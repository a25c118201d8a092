// Checkpoint / restart.
//
// Saves everything needed to continue a run bit-for-bit at the physics
// level: box, per-atom state (position, velocity, id, image counters),
// species mass, and the step counter.
//
// Format v3 (the only one written) is a short text header followed by the
// raw little-endian per-atom arrays and a text footer:
//
//   sdcmd-checkpoint 3
//   step <step>
//   mass <shortest round-trip double>
//   box <lo.x lo.y lo.z hi.x hi.y hi.z> <periodic x y z as 0/1>
//   atoms <n> <layout tag>
//   id u32[n] | position f64[3n] | velocity f64[3n] | image i32[3n]
//   checksum fnv1a64 <16 hex digits>
//
// The footer's FNV-1a digest covers every byte before it. The loader
// derives the exact file length from the header (header + 64 n + footer),
// checks the footer at that offset and verifies the digest before it
// allocates any atom storage (ChecksumError on mismatch, ParseError on a
// wrong length), then rejects non-finite mass or state and inverted boxes
// with ParseError. The doubles round-trip bit-exactly. Big-endian hosts
// are rejected at compile time.
//
// Legacy text files still load through the text parser: v1 (no footer)
// and v2 (one text row per atom plus the same footer); their errors carry
// the offending line/byte offset.
//
// `save_checkpoint_file` is crash-safe: it writes `<path>.tmp` and renames
// it into place, so an interrupted save never clobbers the previous good
// checkpoint, and every failed save unlinks its `.tmp` before throwing.
#pragma once

#include <iosfwd>
#include <string>

#include "md/system.hpp"

namespace sdcmd {

struct Checkpoint {
  System system;
  long step = 0;
};

void save_checkpoint(std::ostream& out, const System& system, long step);
void save_checkpoint_file(const std::string& path, const System& system,
                          long step);

/// Throws ParseError on malformed, truncated or version-mismatched input
/// and ChecksumError when a v2/v3 footer does not match the payload.
Checkpoint load_checkpoint(std::istream& in);
Checkpoint load_checkpoint_file(const std::string& path);

}  // namespace sdcmd
