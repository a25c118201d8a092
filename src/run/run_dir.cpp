#include "run/run_dir.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"

namespace sdcmd::run {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kRunStateName = "run_state.json";
constexpr const char* kManifestMagic = "sdcmd-manifest";
constexpr int kManifestVersion = 1;
constexpr const char* kFooterTag = "checksum fnv1a64 ";
constexpr const char* kCkptPrefix = "ckpt_";
constexpr const char* kCkptSuffix = ".chk";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw Error("run_dir: cannot open '" + path + "'");
  }
  const std::streamoff size = in.tellg();
  if (size < 0) {
    throw Error("run_dir: cannot read '" + path + "'");
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw Error("run_dir: cannot read '" + path + "'");
  }
  return bytes;
}

/// Temp-then-rename writer shared by the sidecar and the MANIFEST; unlinks
/// its temp file on every failure path, mirroring save_checkpoint_file.
void write_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::remove(tmp.c_str());
      throw Error("run_dir: cannot open '" + tmp + "' for writing");
    }
    out << text;
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw Error("run_dir: short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("run_dir: cannot rename '" + tmp + "' to '" + path + "'");
  }
}

}  // namespace

RunDir::RunDir(std::string path, int keep)
    : path_(std::move(path)), keep_(keep) {
  SDCMD_REQUIRE(keep_ >= 1, "retention ring must keep at least 1 checkpoint");
  SDCMD_REQUIRE(!path_.empty(), "run directory path must not be empty");
  std::error_code ec;
  fs::create_directories(path_, ec);
  if (ec || !fs::is_directory(path_)) {
    throw Error("run_dir: cannot create directory '" + path_ + "': " +
                ec.message());
  }
  // Sweep stale temp files from interrupted atomic writes: a crash between
  // the temp write and the rename leaves a *.tmp behind. Committed
  // generations never carry the suffix, so removal is always safe here.
  int swept = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(path_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    constexpr const char* kTmpSuffix = ".tmp";
    if (name.size() > 4 && name.compare(name.size() - 4, 4, kTmpSuffix) == 0) {
      std::error_code remove_ec;
      if (fs::remove(entry.path(), remove_ec)) ++swept;
    }
  }
  if (swept > 0) {
    SDCMD_WARN("run_dir: swept " << swept << " stale .tmp file(s) from '"
                                 << path_ << "'");
  }
}

std::string RunDir::file_path(const std::string& basename) const {
  return (fs::path(path_) / basename).string();
}

std::string RunDir::checkpoint_name(long step) {
  std::ostringstream os;
  os << kCkptPrefix << std::setw(10) << std::setfill('0') << step
     << kCkptSuffix;
  return os.str();
}

void RunDir::commit(const System& system, RunState state) {
  // 1. The checkpoint itself (atomic; previous generation untouched on
  //    failure).
  const std::string name = checkpoint_name(state.step);
  const std::string full = file_path(name);
  save_checkpoint_file(full, system, state.step);

  // 2. The sidecar pointing at it.
  state.checkpoint_file = name;
  write_run_state(state);

  // 3. The MANIFEST index: current ring (from the last good MANIFEST, or a
  //    scan when it is missing/torn) with the new generation in front.
  std::vector<RingEntry> ring;
  try {
    ring = read_manifest();
  } catch (const ParseError&) {
    ring = scan_ring();
  }
  ring.erase(std::remove_if(ring.begin(), ring.end(),
                            [&](const RingEntry& e) {
                              return e.step == state.step ||
                                     !fs::exists(file_path(e.file));
                            }),
             ring.end());
  RingEntry entry;
  entry.step = state.step;
  entry.file = name;
  entry.checksum = fnv1a64(read_file(full));
  ring.insert(ring.begin(), entry);
  std::sort(ring.begin(), ring.end(),
            [](const RingEntry& a, const RingEntry& b) {
              return a.step > b.step;
            });
  prune(ring);
  write_manifest(ring);
}

void RunDir::write_run_state(const RunState& state) {
  write_atomic(file_path(kRunStateName), to_json(state) + "\n");
}

void RunDir::write_manifest(const std::vector<RingEntry>& ring) {
  std::ostringstream body;
  body << kManifestMagic << ' ' << kManifestVersion << '\n';
  for (const RingEntry& e : ring) {
    body << "entry " << e.step << ' ' << e.file << ' ' << std::hex
         << std::setw(16) << std::setfill('0') << e.checksum << std::dec
         << std::setfill(' ') << '\n';
  }
  std::string text = body.str();
  text += kFooterTag;
  {
    std::ostringstream footer;
    footer << std::hex << std::setw(16) << std::setfill('0')
           << fnv1a64(body.str());
    text += footer.str();
  }
  text += '\n';

  // Fault injection: a torn MANIFEST write — half the bytes land at the
  // final path with no rename barrier, as a non-atomic writer would leave
  // after a crash. The next read_manifest() must reject it and resume must
  // fall back to the directory scan.
  if (const auto fault =
          FaultInjector::instance().should_fire(faults::kManifestTornWrite)) {
    const double kept =
        fault->magnitude > 0.0 && fault->magnitude < 1.0 ? fault->magnitude
                                                         : 0.5;
    text.resize(static_cast<std::size_t>(
        static_cast<double>(text.size()) * kept));
    std::ofstream out(file_path(kManifestName),
                      std::ios::binary | std::ios::trunc);
    out << text;
    return;
  }
  write_atomic(file_path(kManifestName), text);
}

void RunDir::prune(std::vector<RingEntry>& ring) {
  while (static_cast<int>(ring.size()) > keep_) {
    const RingEntry victim = ring.back();
    ring.pop_back();
    std::error_code ec;
    fs::remove(file_path(victim.file), ec);
    if (ec) {
      SDCMD_WARN("run_dir: cannot prune '" << victim.file
                                           << "': " << ec.message());
    }
  }
}

std::vector<RingEntry> RunDir::read_manifest() const {
  const std::string path = file_path(kManifestName);
  if (!fs::exists(path)) return {};
  const std::string text = read_file(path);

  const std::size_t footer = text.rfind(kFooterTag);
  if (footer == std::string::npos ||
      (footer != 0 && text[footer - 1] != '\n')) {
    throw ParseError("manifest: missing checksum footer in '" + path +
                     "' (file ends at byte " + std::to_string(text.size()) +
                     "; torn write?)");
  }
  const std::string body = text.substr(0, footer);
  std::uint64_t declared = 0;
  {
    std::istringstream f(text.substr(footer + std::string(kFooterTag).size()));
    if (!(f >> std::hex >> declared)) {
      throw ParseError("manifest: malformed checksum footer in '" + path +
                       "' at byte " + std::to_string(footer));
    }
  }
  if (fnv1a64(body) != declared) {
    throw ChecksumError("manifest: checksum mismatch in '" + path +
                        "'; index is corrupt");
  }

  std::istringstream in(body);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kManifestMagic ||
      version != kManifestVersion) {
    throw ParseError("manifest: bad header in '" + path + "'");
  }
  std::vector<RingEntry> ring;
  std::string key;
  while (in >> key) {
    if (key != "entry") {
      throw ParseError("manifest: unexpected token '" + key + "' in '" +
                       path + "'");
    }
    RingEntry e;
    if (!(in >> e.step >> e.file >> std::hex >> e.checksum >> std::dec)) {
      throw ParseError("manifest: truncated entry in '" + path + "'");
    }
    ring.push_back(std::move(e));
  }
  std::sort(ring.begin(), ring.end(),
            [](const RingEntry& a, const RingEntry& b) {
              return a.step > b.step;
            });
  return ring;
}

std::vector<RingEntry> RunDir::scan_ring() const {
  std::vector<RingEntry> ring;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(path_, ec)) {
    if (!de.is_regular_file()) continue;
    const std::string name = de.path().filename().string();
    if (name.rfind(kCkptPrefix, 0) != 0 || name.size() <= 4 ||
        name.substr(name.size() - 4) != kCkptSuffix) {
      continue;
    }
    RingEntry e;
    e.file = name;
    const std::string digits =
        name.substr(std::string(kCkptPrefix).size(),
                    name.size() - std::string(kCkptPrefix).size() - 4);
    try {
      e.step = std::stol(digits);
    } catch (const std::exception&) {
      continue;  // not one of ours
    }
    try {
      e.checksum = fnv1a64(read_file(de.path().string()));
    } catch (const Error&) {
      continue;  // vanished mid-scan
    }
    ring.push_back(std::move(e));
  }
  std::sort(ring.begin(), ring.end(),
            [](const RingEntry& a, const RingEntry& b) {
              return a.step > b.step;
            });
  return ring;
}

std::optional<ResumePoint> RunDir::try_resume() const {
  int discarded = 0;
  bool manifest_fallback = false;
  std::vector<RingEntry> ring;
  try {
    ring = read_manifest();
  } catch (const ParseError& e) {
    SDCMD_WARN("run_dir: " << e.what() << "; falling back to directory scan");
    manifest_fallback = true;
  }
  const bool from_manifest = !ring.empty();
  if (ring.empty()) {
    const std::vector<RingEntry> scanned = scan_ring();
    if (!scanned.empty() && !manifest_fallback) {
      // Checkpoints exist but no MANIFEST lists them (crash between the
      // checkpoint rename and the first manifest write).
      manifest_fallback = fs::exists(file_path(kManifestName));
    }
    ring = scanned;
  }

  const auto resume_from =
      [&](const std::vector<RingEntry>& candidates)
      -> std::optional<ResumePoint> {
    for (const RingEntry& entry : candidates) {
      const std::string full = file_path(entry.file);
      std::optional<Checkpoint> loaded;
      try {
        loaded.emplace(load_checkpoint_file(full));
      } catch (const Error& e) {
        // ParseError/ChecksumError = corrupt bytes; plain Error = the file
        // is gone or unreadable (e.g. a verified MANIFEST naming a
        // checkpoint deleted out from under it). Both only cost this one
        // candidate.
        SDCMD_WARN("run_dir: discarding resume candidate: " << e.what());
        ++discarded;
        continue;
      }
      if (loaded->step != entry.step) {
        SDCMD_WARN("run_dir: discarding '" << entry.file << "': contains step "
                                           << loaded->step << ", ring says "
                                           << entry.step);
        ++discarded;
        continue;
      }
      ResumePoint point{std::move(*loaded), RunState{}, false, discarded,
                        manifest_fallback};
      // Candidate loaded; attach the sidecar when it verifies and matches.
      const std::string state_path = file_path(kRunStateName);
      if (fs::exists(state_path)) {
        try {
          point.state = parse_run_state(read_file(state_path));
          point.state_valid = point.state.step == point.checkpoint.step;
          if (point.state.step < point.checkpoint.step) {
            SDCMD_WARN("run_dir: run_state.json is for step "
                       << point.state.step << ", older than the resuming "
                       << "checkpoint (step " << point.checkpoint.step
                       << "); ignoring the stale sidecar");
          } else if (point.state.step > point.checkpoint.step) {
            SDCMD_WARN("run_dir: run_state.json is for step "
                       << point.state.step << ", newer than the resuming "
                       << "checkpoint (step " << point.checkpoint.step
                       << "); not using it for this older checkpoint");
          }
        } catch (const Error& e) {
          // Zero-byte, corrupt, or unreadable sidecar: degrade, never block.
          SDCMD_WARN("run_dir: ignoring unusable run_state.json: "
                     << e.what());
        }
      }
      return point;
    }
    return std::nullopt;
  };

  std::optional<ResumePoint> point = resume_from(ring);
  if (!point && from_manifest) {
    // A MANIFEST that verified its checksum can still name only files that
    // were since deleted (operator cleanup, a rogue retention sweep). The
    // directory is the ground truth: scan it before giving up.
    SDCMD_WARN(
        "run_dir: no MANIFEST candidate was loadable; falling back to "
        "directory scan");
    manifest_fallback = true;
    point = resume_from(scan_ring());
  }
  return point;
}

std::optional<ResumePoint> RunDir::try_resume_provable() const {
  std::optional<ResumePoint> point = try_resume();
  if (!point || point->state_valid) return point;
  RunState state;
  try {
    state = parse_run_state(read_file(file_path(kRunStateName)));
  } catch (const Error&) {
    return point;  // no usable sidecar at all: the degraded resume stands
  }
  if (state.step == point->checkpoint.step) return point;
  // The sidecar names a different generation than the resume chose. Older:
  // the crash landed between the checkpoint rename and the sidecar rename.
  // Newer: it landed between the sidecar rename and the MANIFEST rename,
  // so the generation the sidecar proves exists on disk but the index
  // never learned about it. Either way the directory scan finds it; trade
  // the unprovable choice for the provable generation when it loads.
  for (const RingEntry& entry : scan_ring()) {
    if (entry.step != state.step) continue;
    try {
      Checkpoint proven = load_checkpoint_file(file_path(entry.file));
      if (proven.step != state.step) break;
      SDCMD_WARN("run_dir: resumed checkpoint (step "
                 << point->checkpoint.step
                 << ") has no matching sidecar; resuming provable step "
                 << state.step << " instead");
      point->checkpoint = std::move(proven);
      point->state = state;
      point->state_valid = true;
      return point;
    } catch (const Error&) {
      break;  // provable candidate is itself unreadable: degraded resume
    }
  }
  return point;
}

}  // namespace sdcmd::run
