// XYZ reader, LAMMPS data files and checkpoint round trips.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <limits>
#include <new>
#include <random>
#include <sstream>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/units.hpp"
#include "io/checkpoint.hpp"
#include "io/lammps_data.hpp"
#include "io/xyz_reader.hpp"
#include "md/dump.hpp"
#include "md/velocity.hpp"

// The checkpoint fuzz bounds what a forged header can make the loader
// allocate: while armed, every operator new records its request size.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest_allocation.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sdcmd {
namespace {

System sample_system() {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 3;
  System system = System::from_lattice(spec, units::kMassFe);
  maxwell_boltzmann_velocities(system.atoms().velocity, system.mass(),
                               300.0, 17);
  system.atoms().image[5] = {1, -2, 0};
  return system;
}

constexpr const char* kFooterTag = "checksum fnv1a64 ";

std::string footer_for(const std::string& payload) {
  std::ostringstream os;
  os << kFooterTag << std::hex << std::setw(16) << std::setfill('0')
     << fnv1a64(payload) << '\n';
  return os.str();
}

/// A literal v2 file: text rows plus the footer the v2 writer appended.
std::string literal_v2() {
  const std::string payload =
      "sdcmd-checkpoint 2\nstep 3\nmass 55.844999999999999\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 2\n"
      "0 1.25 2.5 3.75 0.015625 -0.03125 0.0625 0 0 0\n"
      "7 4.5 5.5 6.5 -0.5 0.25 0.125 1 -2 0\n";
  return payload + footer_for(payload);
}

std::string v3_bytes(const System& system, long step) {
  std::stringstream stream;
  save_checkpoint(stream, system, step);
  return stream.str();
}

Checkpoint load_bytes(const std::string& bytes) {
  std::istringstream stream(bytes);
  return load_checkpoint(stream);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void expect_bitwise_equal(const System& a, const System& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.box(), b.box());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mass()),
            std::bit_cast<std::uint64_t>(b.mass()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.atoms().id[i], b.atoms().id[i]);
    EXPECT_EQ(a.atoms().image[i], b.atoms().image[i]);
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.atoms().position[i][d]),
                std::bit_cast<std::uint64_t>(b.atoms().position[i][d]));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.atoms().velocity[i][d]),
                std::bit_cast<std::uint64_t>(b.atoms().velocity[i][d]));
    }
  }
}

TEST(XyzReader, RoundTripsWriteXyz) {
  const System system = sample_system();
  std::stringstream stream;
  write_xyz(stream, system, "Fe", "step=7");
  const auto frame = read_xyz_frame(stream);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->positions.size(), system.size());
  ASSERT_TRUE(frame->box.has_value());
  EXPECT_NEAR(frame->box->length(0), system.box().length(0), 1e-6);
  EXPECT_EQ(frame->species[0], "Fe");
  EXPECT_NE(frame->comment.find("step=7"), std::string::npos);
  for (std::size_t i = 0; i < system.size(); ++i) {
    EXPECT_NEAR(norm(frame->positions[i] - system.atoms().position[i]),
                0.0, 1e-7);
  }
}

TEST(XyzReader, ReadsMultipleFrames) {
  const System system = sample_system();
  std::stringstream stream;
  write_xyz(stream, system);
  write_xyz(stream, system);
  int frames = 0;
  while (read_xyz_frame(stream)) ++frames;
  EXPECT_EQ(frames, 2);
}

TEST(XyzReader, EofReturnsNullopt) {
  std::stringstream empty;
  EXPECT_FALSE(read_xyz_frame(empty).has_value());
}

TEST(XyzReader, MalformedCountThrows) {
  std::stringstream stream("not-a-number\ncomment\n");
  EXPECT_THROW(read_xyz_frame(stream), ParseError);
}

TEST(XyzReader, TruncatedFrameThrows) {
  std::stringstream stream("3\ncomment\nFe 0 0 0\n");
  EXPECT_THROW(read_xyz_frame(stream), ParseError);
}

TEST(XyzReader, ParseErrorsNameTheOffendingLine) {
  // The malformed atom row is line 4 of the stream.
  std::stringstream stream("2\ncomment\nFe 0 0 0\nFe oops 0 0\n");
  try {
    read_xyz_frame(stream);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(XyzReader, FileErrorsCarryThePath) {
  const std::string path = "sdcmd_test_bad.xyz";
  std::ofstream(path) << "1\ncomment\nFe broken\n";
  try {
    read_xyz_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(XyzReader, NonOrthorhombicLatticeYieldsNoBox) {
  std::stringstream stream(
      "1\nLattice=\"10 1 0 0 10 0 0 0 10\"\nFe 0 0 0\n");
  const auto frame = read_xyz_frame(stream);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->box.has_value());
}

TEST(LammpsData, RoundTripPreservesEverything) {
  const System original = sample_system();
  std::stringstream stream;
  write_lammps_data(stream, original);
  const System parsed = read_lammps_data(stream);

  EXPECT_EQ(parsed.size(), original.size());
  EXPECT_DOUBLE_EQ(parsed.mass(), original.mass());
  EXPECT_NEAR(parsed.box().length(0), original.box().length(0), 1e-12);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    // Rows are written in storage order with 1-based ids.
    EXPECT_EQ(parsed.atoms().id[i], original.atoms().id[i]);
    EXPECT_NEAR(
        norm(parsed.atoms().position[i] - original.atoms().position[i]),
        0.0, 1e-12);
    EXPECT_NEAR(
        norm(parsed.atoms().velocity[i] - original.atoms().velocity[i]),
        0.0, 1e-12);
  }
}

TEST(LammpsData, RejectsMultiTypeFiles) {
  std::stringstream stream(
      "c\n\n1 atoms\n2 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo "
      "zhi\n\nAtoms # atomic\n\n1 1 0 0 0\n");
  EXPECT_THROW(read_lammps_data(stream), ParseError);
}

TEST(LammpsData, RejectsMissingBounds) {
  std::stringstream stream("c\n\n1 atoms\n1 atom types\n\nAtoms\n\n1 1 0 0 0\n");
  EXPECT_THROW(read_lammps_data(stream), ParseError);
}

TEST(LammpsData, RejectsTruncatedAtoms) {
  std::stringstream stream(
      "c\n\n2 atoms\n1 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo "
      "zhi\n\nAtoms # atomic\n\n1 1 0 0 0\n");
  EXPECT_THROW(read_lammps_data(stream), ParseError);
}

TEST(LammpsData, ParseErrorsNameTheOffendingLine) {
  // The malformed Atoms row is line 11 of the stream.
  std::stringstream stream(
      "c\n\n1 atoms\n1 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo "
      "zhi\n\nAtoms # atomic\n\n1 1 oops 0 0\n");
  try {
    read_lammps_data(stream);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 12"), std::string::npos)
        << e.what();
  }
}

TEST(LammpsData, FileErrorsCarryThePath) {
  const std::string path = "sdcmd_test_bad.data";
  std::ofstream(path)
      << "c\n\n1 atoms\n1 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n"
         "0 1 zlo zhi\n\nAtoms # atomic\n\n1 1 oops 0 0\n";
  try {
    read_lammps_data_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RoundTripIsExact) {
  const System original = sample_system();
  std::stringstream stream;
  save_checkpoint(stream, original, 1234);
  const Checkpoint restored = load_checkpoint(stream);

  EXPECT_EQ(restored.step, 1234);
  EXPECT_EQ(restored.system.size(), original.size());
  EXPECT_DOUBLE_EQ(restored.system.mass(), original.mass());
  EXPECT_EQ(restored.system.box(), original.box());
  for (std::size_t i = 0; i < original.size(); ++i) {
    // Bit-exact round trip (17 significant digits).
    EXPECT_EQ(restored.system.atoms().position[i],
              original.atoms().position[i]);
    EXPECT_EQ(restored.system.atoms().velocity[i],
              original.atoms().velocity[i]);
    EXPECT_EQ(restored.system.atoms().image[i], original.atoms().image[i]);
    EXPECT_EQ(restored.system.atoms().id[i], original.atoms().id[i]);
  }
}

TEST(Checkpoint, FileRoundTrip) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_test.chk";
  const System original = sample_system();
  save_checkpoint_file(path, original, 42);
  const Checkpoint restored = load_checkpoint_file(path);
  EXPECT_EQ(restored.step, 42);
  EXPECT_EQ(restored.system.size(), original.size());
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsBadMagic) {
  std::stringstream stream("wrong-magic 1\n");
  EXPECT_THROW(load_checkpoint(stream), ParseError);
}

TEST(Checkpoint, RejectsFutureVersion) {
  std::stringstream stream("sdcmd-checkpoint 999\nstep 0\n");
  EXPECT_THROW(load_checkpoint(stream), ParseError);
}

TEST(Checkpoint, RejectsTruncatedAtomTable) {
  const System original = sample_system();
  std::stringstream stream;
  save_checkpoint(stream, original, 0);
  std::string text = stream.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(load_checkpoint(truncated), ParseError);
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(load_checkpoint_file("/nonexistent/x.chk"), ParseError);
}

TEST(Checkpoint, V2CarriesChecksumFooter) {
  const std::string text = literal_v2();
  const Checkpoint c = load_bytes(text);
  EXPECT_EQ(c.step, 3);
  ASSERT_EQ(c.system.size(), 2u);
  EXPECT_EQ(c.system.atoms().id[1], 7u);
  EXPECT_EQ(c.system.atoms().velocity[0], Vec3(0.015625, -0.03125, 0.0625));
  EXPECT_EQ(c.system.atoms().image[1], (std::array<int, 3>{1, -2, 0}));
  // Without its footer a v2 file is rejected, not parsed unverified.
  EXPECT_THROW(load_bytes(text.substr(0, text.find(kFooterTag))), ParseError);
}

TEST(Checkpoint, DetectsSingleCharacterCorruption) {
  std::string text = literal_v2();
  // Flip one digit inside the atom table, away from the footer.
  text[text.find("1.25")] = '2';
  EXPECT_THROW(load_bytes(text), ChecksumError);
}

TEST(Checkpoint, V3CarriesChecksumFooter) {
  const System system = sample_system();
  const std::string bytes = v3_bytes(system, 3);
  EXPECT_EQ(bytes.rfind("sdcmd-checkpoint 3\nstep 3\n", 0), 0u);
  // The footer sits exactly after the header and 64 bytes per atom, and
  // the file ends with it.
  const std::size_t header = bytes.find('\n', bytes.find("\natoms ") + 1) + 1;
  const std::size_t payload = header + 64 * system.size();
  EXPECT_EQ(bytes.substr(payload), footer_for(bytes.substr(0, payload)));
}

TEST(Checkpoint, V3DetectsSingleByteCorruption) {
  const System system = sample_system();
  const std::string clean = v3_bytes(system, 3);
  const std::size_t arrays = clean.find('\n', clean.find("\natoms ") + 1) + 1;
  // One flipped bit in the step digit, in each array, and in the last
  // image counter.
  for (const std::size_t pos :
       {clean.find("step 3") + 5, arrays + 1, arrays + 4 * system.size() + 3,
        arrays + 28 * system.size() + 9, clean.size() - 35}) {
    std::string bytes = clean;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    EXPECT_THROW(load_bytes(bytes), ChecksumError) << "byte " << pos;
  }
}

TEST(Checkpoint, LegacyV1StillLoads) {
  // v1 files have no checksum footer; they parse with validation only.
  std::stringstream stream(
      "sdcmd-checkpoint 1\nstep 5\nmass 55.845\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 1\n"
      "0 1 2 3 0.1 0.2 0.3 0 0 0\n");
  const Checkpoint c = load_checkpoint(stream);
  EXPECT_EQ(c.step, 5);
  EXPECT_EQ(c.system.size(), 1u);
  EXPECT_DOUBLE_EQ(c.system.atoms().position[0].y, 2.0);
}

TEST(Checkpoint, LegacyRowsBeyondTheDeclaredCountAreRejected) {
  // A v2 file whose footer matches but whose count is smaller than its
  // table: loading it would silently drop the second atom.
  const std::string body =
      "step 3\nmass 55.845\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 1\n"
      "0 1 2 3 0.1 0.2 0.3 0 0 0\n"
      "1 4 5 6 0.4 0.5 0.6 0 0 0\n";
  const std::string payload = "sdcmd-checkpoint 2\n" + body;
  EXPECT_THROW(load_bytes(payload + footer_for(payload)), ParseError);
  // v1 has no footer; the same table is rejected by the parser alone.
  EXPECT_THROW(load_bytes("sdcmd-checkpoint 1\n" + body), ParseError);
  // Trailing whitespace after a complete table is fine.
  const std::string padded =
      "sdcmd-checkpoint 2\nstep 3\nmass 55.845\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 1\n"
      "0 1 2 3 0.1 0.2 0.3 0 0 0\n\n  \n";
  EXPECT_EQ(load_bytes(padded + footer_for(padded)).system.size(), 1u);
}

TEST(Checkpoint, HugeAtomCountFailsFastOnTruncatedFile) {
  // The declared count exceeds the rows present: must fail before trying
  // to read (or allocate) a billion atoms.
  std::stringstream stream(
      "sdcmd-checkpoint 1\nstep 0\nmass 55.845\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 1000000000\n"
      "0 1 2 3 0.1 0.2 0.3 0 0 0\n");
  try {
    load_checkpoint(stream);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("rows remain"), std::string::npos);
  }
}

TEST(Checkpoint, RejectsNonPositiveOrNonFiniteMass) {
  std::stringstream stream(
      "sdcmd-checkpoint 1\nstep 0\nmass -5\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 0\n");
  EXPECT_THROW(load_checkpoint(stream), ParseError);
}

TEST(Checkpoint, RejectsInvertedBox) {
  std::stringstream stream(
      "sdcmd-checkpoint 1\nstep 0\nmass 55.845\n"
      "box 0 0 0 -10 10 10 1 1 1\natoms 0\n");
  EXPECT_THROW(load_checkpoint(stream), ParseError);
}

TEST(Checkpoint, TruncatedV2LosesItsFooter) {
  std::string text = literal_v2();
  text.resize(text.size() - 10);  // clip inside the footer line
  EXPECT_THROW(load_bytes(text), ParseError);
}

TEST(Checkpoint, TruncatedV3LosesItsFooter) {
  const std::string clean = v3_bytes(sample_system(), 9);
  // Clipped inside the footer line, or short of one atom's bytes in the
  // middle of the arrays with header and footer intact: either way the
  // length disagrees with the header, which is a ParseError.
  for (const std::string& bytes :
       {clean.substr(0, clean.size() - 10),
        clean.substr(0, clean.size() / 2) + clean.substr(clean.size() / 2 + 64)}) {
    try {
      load_bytes(bytes);
      FAIL() << "expected ParseError";
    } catch (const ChecksumError& e) {
      FAIL() << "a length error must not read as corruption: " << e.what();
    } catch (const ParseError&) {
    }
  }
}

TEST(Checkpoint, V3RejectsTrailingBytes) {
  // The header fixes the exact length; bytes after the footer are not
  // ignored, even when they end in a newline.
  const std::string clean = v3_bytes(sample_system(), 9);
  EXPECT_THROW(load_bytes(clean + "\n"), ParseError);
  EXPECT_THROW(load_bytes(clean + clean.substr(clean.size() - 34)),
               ParseError);
}

TEST(Checkpoint, V3ForgedAtomCountFailsBeforeAllocating) {
  const std::string clean = v3_bytes(sample_system(), 9);
  const std::size_t at = clean.find("\natoms ") + 7;
  // 2^58 + 1 atoms: n * 64 wraps to 64 in 64-bit arithmetic.
  const std::string bytes = clean.substr(0, at) + "288230376151711745" +
                            clean.substr(clean.find(' ', at));
  try {
    load_bytes(bytes);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("declares 288230376151711745"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, V3RejectsNonFiniteStateAndBox) {
  // The writer does not judge the state; the loader must, after the
  // footer verifies.
  System nan_velocity = sample_system();
  nan_velocity.atoms().velocity[3].y = std::nan("");
  try {
    load_bytes(v3_bytes(nan_velocity, 1));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("at row 3"), std::string::npos)
        << e.what();
  }
  Atoms one(1);
  const System infinite_box(
      Box({0, 0, 0}, {std::numeric_limits<double>::infinity(), 1, 1}),
      std::move(one), 1.0);
  EXPECT_THROW(load_bytes(v3_bytes(infinite_box, 1)), ParseError);
}

TEST(Checkpoint, V3HeaderDoublesRoundTripBitExact) {
  // Mass and box travel as text in the header; the shortest round-trip
  // form must give back the same bits, and the periodic flags survive.
  const double third = 1.0 / 3.0;
  Atoms atoms(1);
  atoms.position[0] = {std::nextafter(third, 1.0), 0.1, 5e-324};
  atoms.velocity[0] = {-0.0, 1e308, -1e-300};
  atoms.image[0] = {std::numeric_limits<int>::min(), -1,
                    std::numeric_limits<int>::max()};
  atoms.id[0] = std::numeric_limits<std::uint32_t>::max();
  const System original(Box({-third, 0.1, -1e-9}, {std::nextafter(10.0, 0.0),
                                                   0.30000000000000004, 7e22},
                            {true, false, true}),
                        std::move(atoms), 55.845 * third);
  const Checkpoint restored = load_bytes(v3_bytes(original, -7));
  EXPECT_EQ(restored.step, -7);
  expect_bitwise_equal(restored.system, original);
}

TEST(Checkpoint, CommittedV2RingGenerationReencodesAsV3BitExact) {
  // A ring generation the v2 writer produced (tests/data/v2_ring) loads,
  // and its v3 re-encoding restores the same bits.
  const Checkpoint v2 = load_checkpoint_file(
      std::string(SDCMD_TEST_DATA_DIR) + "/v2_ring/ckpt_0000000040.chk");
  EXPECT_EQ(v2.step, 40);
  EXPECT_EQ(v2.system.size(), 128u);
  const Checkpoint v3 = load_bytes(v3_bytes(v2.system, v2.step));
  EXPECT_EQ(v3.step, 40);
  expect_bitwise_equal(v3.system, v2.system);
}

/// Seeded mutations of one valid file: truncations, byte flips and forged
/// atom counts, each raw and re-signed (a fresh footer over the mutated
/// payload, so the parser behind the checksum sees it too). The loader may
/// only succeed or throw ParseError/ChecksumError, and no single
/// allocation may exceed the input's size plus room for an error message.
void fuzz_loader(const std::string& valid, std::uint64_t seed, int cases) {
  constexpr std::size_t kMessageRoom = 4096;
  const std::size_t footer = valid.rfind(kFooterTag);
  const std::size_t count_at = valid.find("\natoms ") + 7;
  const std::size_t count_end = valid.find_first_of(" \n", count_at);
  const std::size_t n = std::stoull(valid.substr(count_at, count_end - count_at));
  const std::string forged[] = {
      "0", std::to_string(n - 1), std::to_string(n + 1),
      std::to_string(2 * n), "288230376151711745",  // 2^58 + 1: n*64 wraps
      std::to_string(std::numeric_limits<std::size_t>::max() / 64 + 1),
      "18446744073709551615", "18446744073709551616", "-1", "1e9", ""};
  std::mt19937_64 rng(seed);
  int loaded = 0, checksum_errors = 0, parse_errors = 0;
  for (int i = 0; i < cases; ++i) {
    std::string payload = valid.substr(0, footer);
    std::string bytes;
    const int kind = i % 3;
    if (kind == 0) {
      payload.resize(rng() % payload.size());
      bytes = valid.substr(0, rng() % valid.size());
    } else if (kind == 1) {
      for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0; --flips) {
        const std::size_t pos = rng() % payload.size();
        payload[pos] = static_cast<char>(payload[pos] ^ (1 + rng() % 255));
      }
      bytes = payload + valid.substr(footer);
    } else {
      const std::string& count = forged[rng() % std::size(forged)];
      payload = payload.substr(0, count_at) + count + payload.substr(count_end);
      bytes = payload + valid.substr(footer);
    }
    if (rng() % 2 == 0) bytes = payload + footer_for(payload);

    std::istringstream stream(bytes);
    g_largest_allocation = 0;
    g_track_allocations = true;
    try {
      load_checkpoint(stream);
      ++loaded;
    } catch (const ChecksumError&) {
      ++checksum_errors;
    } catch (const ParseError&) {
      ++parse_errors;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " threw " << e.what();
    }
    g_track_allocations = false;
    EXPECT_LE(g_largest_allocation.load(), bytes.size() + kMessageRoom)
        << "case " << i << " (kind " << kind << ")";
  }
  // Every outcome must actually occur, or the fuzz is not reaching the
  // parser behind the checksum.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(checksum_errors, 0);
  EXPECT_GT(parse_errors, 0);
}

TEST(CheckpointFuzz, V2BytesOnlyRaiseParseOrChecksumErrors) {
  fuzz_loader(read_bytes(std::string(SDCMD_TEST_DATA_DIR) +
                         "/v2_ring/ckpt_0000000040.chk"),
              0x5dc3d2, 1200);
}

TEST(CheckpointFuzz, V3BytesOnlyRaiseParseOrChecksumErrors) {
  fuzz_loader(v3_bytes(sample_system(), 1234), 0x5dc3d3, 1200);
}

TEST(Checkpoint, SaveFileLeavesNoTempBehind) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_atomic.chk";
  save_checkpoint_file(path, sample_system(), 1);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file should have been renamed away";
  EXPECT_EQ(load_checkpoint_file(path).step, 1);
  std::remove(path.c_str());
}

TEST(Checkpoint, FailedSaveUnlinksItsTempFile) {
  // A detected short write must throw AND clean up: a retrying caller (the
  // run supervisor) would otherwise accumulate one stale .tmp per attempt.
  const std::string path = testing::TempDir() + "sdcmd_ckpt_shortw.chk";
  save_checkpoint_file(path, sample_system(), 1);  // previous generation

  FaultSpec fault;
  fault.magnitude = 0.5;
  FaultInjector::instance().arm(faults::kCheckpointShortWrite, fault);
  EXPECT_THROW(save_checkpoint_file(path, sample_system(), 2), Error);
  FaultInjector::instance().disarm_all();

  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "failed save left " << path << ".tmp behind";
  // The previous generation is untouched.
  EXPECT_EQ(load_checkpoint_file(path).step, 1);
  std::remove(path.c_str());
}

TEST(Checkpoint, DiskFullFaultCleansUpAndThrows) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_enospc.chk";
  FaultSpec fault;
  fault.shots = 1;
  FaultInjector::instance().arm(faults::kDiskFull, fault);
  try {
    save_checkpoint_file(path, sample_system(), 3);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no space left"), std::string::npos);
  }
  FaultInjector::instance().disarm_all();
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  // The fault consumed its shot: the retry goes through.
  save_checkpoint_file(path, sample_system(), 3);
  EXPECT_EQ(load_checkpoint_file(path).step, 3);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncationErrorsPointAtRowLineAndByte) {
  // v1 (no footer, so the parser — not the checksum — sees the damage):
  // the second atom row is cut short mid-field.
  std::stringstream truncated(
      "sdcmd-checkpoint 1\nstep 0\nmass 55.845\n"
      "box 0 0 0 10 10 10 1 1 1\natoms 2\n"
      "0 1 2 3 0.1 0.2 0.3 0 0 0\n"
      "1 4 5 6\n");
  try {
    load_checkpoint(truncated);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 1 of 2"), std::string::npos) << what;
    EXPECT_NE(what.find("line "), std::string::npos) << what;
    EXPECT_NE(what.find("byte "), std::string::npos) << what;
  }
}

TEST(Checkpoint, FileErrorsArePrefixedWithThePath) {
  const std::string path = testing::TempDir() + "sdcmd_ckpt_badfile.chk";
  {
    std::ofstream out(path, std::ios::binary);
    out << "sdcmd-checkpoint 2\nstep x\n";
  }
  try {
    load_checkpoint_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sdcmd
