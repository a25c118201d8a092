#include "io/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hash.hpp"

namespace sdcmd {

namespace {

static_assert(std::endian::native == std::endian::little,
              "checkpoint v3 stores little-endian arrays; big-endian hosts "
              "are not supported");
static_assert(std::numeric_limits<double>::is_iec559,
              "checkpoint v3 stores IEEE-754 doubles");
static_assert(std::is_trivially_copyable_v<Vec3> &&
                  sizeof(Vec3) == 3 * sizeof(double),
              "Vec3 must be three packed doubles");
static_assert(sizeof(std::array<int, 3>) == 3 * sizeof(std::int32_t),
              "image counters must be three packed 32-bit ints");

constexpr std::string_view kMagic = "sdcmd-checkpoint";
// v1: text payload. v2: text payload + "checksum fnv1a64 <hex>" footer.
// v3: text header, raw arrays, the same footer.
constexpr int kVersion = 3;
constexpr std::string_view kFooterTag = "checksum fnv1a64 ";
constexpr std::size_t kFooterSize = kFooterTag.size() + 16 + 1;
constexpr std::string_view kLayout =
    "soa-le:id-u32,position-3f64,velocity-3f64,image-3i32";
constexpr std::size_t kBytesPerAtom =
    sizeof(std::uint32_t) + 2 * sizeof(Vec3) + sizeof(std::array<int, 3>);
static_assert(kBytesPerAtom == 64);

bool finite3(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

/// Why a box cannot be restored, or nullptr.
const char* box_defect(const Vec3& lo, const Vec3& hi) {
  if (!finite3(lo) || !finite3(hi) || !finite3(hi - lo)) {
    return "box extents must be finite";
  }
  for (int dim = 0; dim < 3; ++dim) {
    if (!(hi[dim] > lo[dim])) return "box hi must exceed lo on every axis";
  }
  return nullptr;
}

std::string hex16(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

// --------------------------------------------------------------- v3 writer

void append_double(std::string& out, double value) {
  // Shortest representation that parses back to the same bits.
  std::array<char, 32> buffer{};
  const auto result =
      std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
  out.append(buffer.data(), result.ptr);
}

template <typename T>
char* put_array(char* out, const std::vector<T>& values) {
  const std::size_t bytes = values.size() * sizeof(T);
  if (bytes != 0) std::memcpy(out, values.data(), bytes);
  return out + bytes;
}

/// The complete v3 file: header, arrays and footer in one exact-size
/// buffer, so the writer hashes and writes it once.
std::string encode(const System& system, long step) {
  const Atoms& atoms = system.atoms();
  const Box& box = system.box();
  const std::size_t n = atoms.size();
  SDCMD_REQUIRE(atoms.id.size() == n && atoms.velocity.size() == n &&
                    atoms.image.size() == n,
                "checkpoint: per-atom arrays must all hold size() entries");

  std::string header = std::string(kMagic) + ' ' + std::to_string(kVersion) +
                       "\nstep " + std::to_string(step) + "\nmass ";
  append_double(header, system.mass());
  header += "\nbox";
  for (const Vec3& corner : {box.lo(), box.hi()}) {
    for (int dim = 0; dim < 3; ++dim) {
      header += ' ';
      append_double(header, corner[dim]);
    }
  }
  for (int dim = 0; dim < 3; ++dim) header += box.periodic(dim) ? " 1" : " 0";
  header += "\natoms " + std::to_string(n) + ' ' + std::string(kLayout) + '\n';

  const std::size_t payload = header.size() + n * kBytesPerAtom;
  std::string bytes(payload + kFooterSize, '\0');
  char* out = bytes.data();
  std::memcpy(out, header.data(), header.size());
  out += header.size();
  out = put_array(out, atoms.id);
  out = put_array(out, atoms.position);
  out = put_array(out, atoms.velocity);
  out = put_array(out, atoms.image);
  const std::string footer =
      std::string(kFooterTag) +
      hex16(fnv1a64(std::string_view(bytes.data(), payload))) + '\n';
  std::memcpy(out, footer.data(), footer.size());
  return bytes;
}

// --------------------------------------------------------------- v3 reader

template <typename T>
T parse_number(std::string_view token, const char* what, int base = 10) {
  T value{};
  const char* last = token.data() + token.size();
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>) {
    result = std::from_chars(token.data(), last, value);
  } else {
    result = std::from_chars(token.data(), last, value, base);
  }
  if (token.empty() || result.ec != std::errc() || result.ptr != last) {
    throw ParseError(std::string("checkpoint: malformed ") + what + " '" +
                     std::string(token.substr(0, 32)) + "'");
  }
  return value;
}

/// The `N` space-separated fields of one header line whose first field is
/// `key`; ParseError when the line has any other shape.
template <std::size_t N>
std::array<std::string_view, N> header_fields(std::string_view line,
                                              std::string_view key) {
  std::array<std::string_view, N> fields;
  std::size_t at = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const std::size_t end = i + 1 < N ? line.find(' ', at) : line.size();
    if (end == std::string_view::npos) break;
    fields[i] = line.substr(at, end - at);
    at = end + 1;
  }
  if (fields[0] != key || fields[N - 1].empty() ||
      fields[N - 1].find(' ') != std::string_view::npos) {
    throw ParseError("checkpoint: malformed '" + std::string(key) +
                     "' line in the v3 header");
  }
  return fields;
}

template <typename T>
const char* get_array(const char* in, std::vector<T>& values) {
  const std::size_t bytes = values.size() * sizeof(T);
  if (bytes != 0) std::memcpy(values.data(), in, bytes);
  return in + bytes;
}

Checkpoint decode_v3(std::string_view bytes) {
  // Header: magic/version, step, mass, box, atoms — one line each.
  std::array<std::string_view, 5> lines;
  std::size_t at = 0;
  for (std::string_view& line : lines) {
    const std::size_t eol = bytes.find('\n', at);
    if (eol == std::string_view::npos) {
      throw ParseError("checkpoint: truncated v3 header (file ends at byte " +
                       std::to_string(bytes.size()) + ")");
    }
    line = bytes.substr(at, eol - at);
    at = eol + 1;
  }
  const std::size_t header_size = at;

  // The atom count fixes the file's exact length. Check it, and the footer
  // at the offset it implies, before trusting or allocating anything; the
  // division keeps a forged count from overflowing n * 64.
  const auto atoms_line = header_fields<3>(lines[4], "atoms");
  if (atoms_line[2] != kLayout) {
    throw ParseError("checkpoint: unsupported array layout '" +
                     std::string(atoms_line[2].substr(0, 64)) + "'");
  }
  const auto count = parse_number<std::size_t>(atoms_line[1], "atom count");
  const std::size_t room = bytes.size() - header_size;
  if (count > room / kBytesPerAtom) {
    throw ParseError("checkpoint: declares " + std::to_string(count) +
                     " atoms but only " + std::to_string(room) +
                     " bytes follow the header (truncated file?)");
  }
  const std::size_t payload = header_size + count * kBytesPerAtom;
  if (bytes.size() != payload + kFooterSize ||
      bytes.substr(payload, kFooterTag.size()) != kFooterTag ||
      bytes.back() != '\n') {
    throw ParseError("checkpoint: no checksum footer at byte " +
                     std::to_string(payload) + ": " + std::to_string(count) +
                     " atoms make a " + std::to_string(payload + kFooterSize) +
                     "-byte file, this one has " +
                     std::to_string(bytes.size()) +
                     " bytes (truncated or padded?)");
  }
  const auto declared = parse_number<std::uint64_t>(
      bytes.substr(payload + kFooterTag.size(), 16), "checksum footer", 16);
  const std::uint64_t actual = fnv1a64(bytes.substr(0, payload));
  if (actual != declared) {
    throw ChecksumError("checkpoint: checksum mismatch (stored " +
                        hex16(declared) + ", computed " + hex16(actual) +
                        " over " + std::to_string(payload) +
                        " payload bytes); file is corrupt");
  }

  const long step =
      parse_number<long>(header_fields<2>(lines[1], "step")[1], "step");
  const double mass =
      parse_number<double>(header_fields<2>(lines[2], "mass")[1], "mass");
  if (!std::isfinite(mass) || mass <= 0.0) {
    throw ParseError("checkpoint: mass must be finite and positive");
  }
  const auto box_line = header_fields<10>(lines[3], "box");
  Vec3 lo, hi;
  std::array<bool, 3> periodic{};
  for (int dim = 0; dim < 3; ++dim) {
    lo[dim] = parse_number<double>(box_line[1 + dim], "box");
    hi[dim] = parse_number<double>(box_line[4 + dim], "box");
    const int flag = parse_number<int>(box_line[7 + dim], "periodic flag");
    if (flag != 0 && flag != 1) {
      throw ParseError("checkpoint: periodic flags must be 0 or 1");
    }
    periodic[dim] = flag == 1;
  }
  if (const char* defect = box_defect(lo, hi)) {
    throw ParseError(std::string("checkpoint: ") + defect);
  }

  Atoms atoms(count);
  const char* in = bytes.data() + header_size;
  in = get_array(in, atoms.id);
  in = get_array(in, atoms.position);
  in = get_array(in, atoms.velocity);
  get_array(in, atoms.image);
  for (std::size_t i = 0; i < count; ++i) {
    if (!finite3(atoms.position[i]) || !finite3(atoms.velocity[i])) {
      throw ParseError("checkpoint: non-finite position or velocity at row " +
                       std::to_string(i));
    }
  }
  return Checkpoint{System(Box(lo, hi, periodic), std::move(atoms), mass),
                    step};
}

// ------------------------------------------------------- v1/v2 text reader

/// " (line L, byte B)" for the stream's current read position inside
/// `payload`, so a truncation report points at the exact spot — the same
/// one-glance triage the setfl/funcfl ParseErrors give via line numbers.
/// Falls back to the end of the payload when the stream position is gone
/// (extraction already hit EOF).
std::string at_offset(std::istringstream& in, const std::string& payload) {
  const auto pos = in.tellg();
  const std::size_t byte =
      pos >= 0 ? static_cast<std::size_t>(pos) : payload.size();
  const std::size_t line =
      1 + static_cast<std::size_t>(
              std::count(payload.begin(),
                         payload.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(byte, payload.size())),
                         '\n'));
  return " (line " + std::to_string(line) + ", byte " + std::to_string(byte) +
         " of " + std::to_string(payload.size()) + ")";
}

Checkpoint parse_payload(const std::string& payload) {
  std::istringstream in(payload);
  std::string magic, key;
  int declared_version = 0;
  in >> magic >> declared_version;  // already validated by the caller

  long step = 0;
  double mass = 0.0;
  if (!(in >> key >> step) || key != "step") {
    throw ParseError("checkpoint: missing step" + at_offset(in, payload));
  }
  if (!(in >> key >> mass) || key != "mass") {
    throw ParseError("checkpoint: missing mass" + at_offset(in, payload));
  }
  if (!std::isfinite(mass) || mass <= 0.0) {
    throw ParseError("checkpoint: mass must be finite and positive" +
                     at_offset(in, payload));
  }

  Vec3 lo, hi;
  bool px, py, pz;
  if (!(in >> key >> lo.x >> lo.y >> lo.z >> hi.x >> hi.y >> hi.z >> px >>
        py >> pz) ||
      key != "box") {
    throw ParseError("checkpoint: missing box" + at_offset(in, payload));
  }
  if (const char* defect = box_defect(lo, hi)) {
    throw ParseError(std::string("checkpoint: ") + defect +
                     at_offset(in, payload));
  }

  std::size_t count = 0;
  if (!(in >> key >> count) || key != "atoms") {
    throw ParseError("checkpoint: missing atom count" + at_offset(in, payload));
  }
  // Fail fast on truncated files: each atom occupies one payload line, so
  // the declared count cannot exceed the lines that remain. This rejects
  // garbage counts before they turn into a huge Atoms allocation.
  const auto here = in.tellg();
  if (here >= 0) {
    const std::size_t remaining_lines = static_cast<std::size_t>(
        std::count(payload.begin() + static_cast<std::ptrdiff_t>(here),
                   payload.end(), '\n'));
    if (remaining_lines < count) {
      throw ParseError("checkpoint: declares " + std::to_string(count) +
                       " atoms but only " + std::to_string(remaining_lines) +
                       " rows remain (truncated file?)" +
                       at_offset(in, payload));
    }
  }

  Atoms atoms(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t id;
    Vec3 r, v;
    int ix, iy, iz;
    // Remember where this row started: after a failed extraction tellg()
    // returns -1, so the error location must come from before the read.
    const auto row_start = in.tellg();
    if (!(in >> id >> r.x >> r.y >> r.z >> v.x >> v.y >> v.z >> ix >> iy >>
          iz)) {
      std::istringstream marker(payload);
      marker.seekg(row_start >= 0
                       ? static_cast<std::streamoff>(row_start)
                       : static_cast<std::streamoff>(payload.size()));
      throw ParseError("checkpoint: truncated atom table at row " +
                       std::to_string(i) + " of " + std::to_string(count) +
                       at_offset(marker, payload));
    }
    if (!finite3(r) || !finite3(v)) {
      throw ParseError("checkpoint: non-finite position or velocity at row " +
                       std::to_string(i) + at_offset(in, payload));
    }
    atoms.id[i] = id;
    atoms.position[i] = r;
    atoms.velocity[i] = v;
    atoms.image[i] = {ix, iy, iz};
  }

  Box box(lo, hi, {px, py, pz});
  return Checkpoint{System(box, std::move(atoms), mass), step};
}

Checkpoint decode_text(std::string_view bytes, int version) {
  if (version == 1) {
    // Legacy files carry no checksum; parse them as-is.
    return parse_payload(std::string(bytes));
  }
  const std::size_t footer = bytes.rfind(kFooterTag);
  if (footer == std::string_view::npos ||
      (footer != 0 && bytes[footer - 1] != '\n')) {
    throw ParseError("checkpoint: missing checksum footer (file ends at byte " +
                     std::to_string(bytes.size()) + "; truncated?)");
  }
  const std::string_view payload = bytes.substr(0, footer);
  std::uint64_t declared = 0;
  {
    std::istringstream f(std::string(bytes.substr(footer + kFooterTag.size())));
    if (!(f >> std::hex >> declared)) {
      throw ParseError("checkpoint: malformed checksum footer at byte " +
                       std::to_string(footer));
    }
  }
  const std::uint64_t actual = fnv1a64(payload);
  if (actual != declared) {
    throw ChecksumError("checkpoint: checksum mismatch (stored " +
                        hex16(declared) + ", computed " + hex16(actual) +
                        " over " + std::to_string(payload.size()) +
                        " payload bytes); file is corrupt");
  }
  return parse_payload(std::string(payload));
}

/// Every byte left in `in`, read with one exact-size allocation when the
/// stream can report its length (files, string streams).
std::string read_all(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = in.tellg();
    in.seekg(start);
    std::string bytes(end > start ? static_cast<std::size_t>(end - start) : 0,
                      '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes.resize(static_cast<std::size_t>(in.gcount()));
    return bytes;
  }
  in.clear();
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

void save_checkpoint(std::ostream& out, const System& system, long step) {
  const std::string bytes = encode(system, step);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void save_checkpoint_file(const std::string& path, const System& system,
                          long step) {
  std::string bytes = encode(system, step);

  // Fault injection: the write stops after a prefix of the payload — the
  // short write an ENOSPC or a dying disk produces. The writer detects it
  // below, cleans up and throws like any real failure.
  bool simulate_short_write = false;
  if (const auto fault = FaultInjector::instance().should_fire(
          faults::kCheckpointShortWrite)) {
    const double kept =
        fault->magnitude > 0.0 && fault->magnitude < 1.0 ? fault->magnitude
                                                         : 0.5;
    bytes.resize(static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * kept));
    simulate_short_write = true;
  }

  // Temp-then-rename: a failed or interrupted save never clobbers the
  // previous good checkpoint at `path`, and every error path below removes
  // the temp file so retries (and keep-last-K ring pruning) never trip
  // over a stale `.tmp`.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::remove(tmp.c_str());  // in case open() itself left a husk
      throw Error("checkpoint: cannot open '" + tmp + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw Error("checkpoint: short write to '" + tmp + "'");
    }
  }
  if (simulate_short_write) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: short write to '" + tmp +
                "' (injected checkpoint.short_write)");
  }
  if (FaultInjector::instance().should_fire(faults::kDiskFull)) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: write failed on '" + tmp +
                "': no space left on device (injected run.disk_full)");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: cannot rename '" + tmp + "' to '" + path + "'");
  }
}

Checkpoint load_checkpoint(std::istream& in) {
  const std::string bytes = read_all(in);
  const std::string_view view = bytes;
  if (!view.starts_with(kMagic) || view.substr(kMagic.size(), 1) != " ") {
    throw ParseError("checkpoint: bad magic");
  }
  const std::size_t eol = view.find('\n');
  if (eol == std::string_view::npos) {
    throw ParseError("checkpoint: truncated header (file ends at byte " +
                     std::to_string(view.size()) + ")");
  }
  const std::size_t digits = kMagic.size() + 1;
  const int version =
      parse_number<int>(view.substr(digits, eol - digits), "version");
  if (version == kVersion) return decode_v3(bytes);
  if (version == 1 || version == 2) return decode_text(bytes, version);
  throw ParseError("checkpoint: unsupported version " +
                   std::to_string(version));
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ParseError("checkpoint: cannot open '" + path + "'");
  }
  // Re-throw with the path up front so a resume scan over a ring of
  // candidates names the offending file, not just the offending byte.
  try {
    return load_checkpoint(in);
  } catch (const ChecksumError& e) {
    throw ChecksumError(path + ": " + e.what());
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

}  // namespace sdcmd
