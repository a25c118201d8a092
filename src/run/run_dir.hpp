// RunDir: the durable on-disk lifecycle of one supervised run.
//
// Layout of a run directory:
//
//   <run_dir>/
//     ckpt_0000001200.chk   checkpoint ring, format v3 (io/checkpoint.hpp;
//     ckpt_0000001400.chk   rings written as v2 still resume), keep-last-K
//     ckpt_0000001600.chk   rotation, zero-padded step in the name so
//                           lexicographic order == step order
//     run_state.json        sdcmd.run_state.v1 sidecar (run/run_state.hpp)
//     MANIFEST              ring index, temp-then-rename, checksum footer
//
// MANIFEST format (text, one entry per ring file, newest first):
//
//   sdcmd-manifest 1
//   entry <step> <filename> <fnv1a64 of the file's bytes, read back>
//   ...
//   checksum fnv1a64 <hex>          # covers every preceding byte
//
// Every artifact is written temp-then-rename, so no crash at any point can
// leave the directory unreadable: the MANIFEST is an *index*, not the
// source of truth. Resume trusts it only after its footer verifies; on any
// corruption (e.g. the run.manifest_torn_write fault) it falls back to a
// directory scan and per-file checksum validation, newest first.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "run/run_state.hpp"

namespace sdcmd::run {

/// One ring entry as listed in the MANIFEST (or recovered from a scan).
struct RingEntry {
  long step = 0;
  std::string file;  ///< basename within the run directory
  std::uint64_t checksum = 0;  ///< fnv1a64 of the whole file's bytes
};

/// What an auto-resume scan found.
struct ResumePoint {
  Checkpoint checkpoint;
  /// Sidecar contents; meaningful only when state_valid. A missing or
  /// corrupt sidecar degrades the resume (fresh governor, default DOF
  /// bookkeeping) but never blocks it — the checkpoint alone restores the
  /// physics.
  RunState state;
  bool state_valid = false;
  /// Ring candidates discarded as corrupt/truncated before this one loaded.
  int discarded = 0;
  /// True when the MANIFEST failed verification and the scan fell back to
  /// the directory listing.
  bool manifest_fallback = false;
};

class RunDir {
 public:
  /// Opens (creating if needed) the run directory. `keep` is the retention
  /// ring size; throws PreconditionError when keep < 1 and Error when the
  /// directory cannot be created.
  RunDir(std::string path, int keep);

  const std::string& path() const { return path_; }
  int keep() const { return keep_; }

  /// Persist one retention-ring generation. Order: checkpoint rename,
  /// run_state sidecar rename, prune of the ring beyond keep(), MANIFEST
  /// rename. A crash between those steps leaves at most one checkpoint
  /// newer than the MANIFEST head that it does not list, and at most its
  /// oldest entry already pruned (scripts/chaos_resume.py audits exactly
  /// that). Throws Error on write failure (the caller retries; a failed
  /// write never corrupts the previous generation). `state.checkpoint_file`
  /// is filled in.
  void commit(const System& system, RunState state);

  /// The ring according to the MANIFEST, newest first. Empty when there is
  /// no MANIFEST. Throws ParseError/ChecksumError when the MANIFEST exists
  /// but fails verification (torn write) — resume catches this and falls
  /// back to scan_ring().
  std::vector<RingEntry> read_manifest() const;

  /// The ring recovered from the directory listing (ckpt_*.chk), newest
  /// first, with checksums recomputed from the files themselves.
  std::vector<RingEntry> scan_ring() const;

  /// Auto-resume: newest-first over the ring (MANIFEST when it verifies,
  /// directory scan otherwise), discarding corrupt/truncated candidates
  /// via the checkpoint loader's checksum fast-fail, returning the first
  /// checkpoint that loads. nullopt when no valid candidate exists.
  std::optional<ResumePoint> try_resume() const;

  /// Like try_resume(), but when the newest generation is unprovable (a
  /// crash between the checkpoint rename and the sidecar rename left
  /// run_state.json describing an older step), prefer the older ring
  /// generation the sidecar DOES describe: losing at most one checkpoint
  /// cadence of progress buys a resume whose energy continuity can be
  /// proven. Falls back to the plain (degraded) resume when the sidecar's
  /// generation has left the ring. sdcmd-run and the session server
  /// resume through this so every restart carries a continuity proof.
  std::optional<ResumePoint> try_resume_provable() const;

  /// Absolute path of a ring basename.
  std::string file_path(const std::string& basename) const;

  /// Canonical ring basename for a step ("ckpt_0000001200.chk").
  static std::string checkpoint_name(long step);

 private:
  void write_run_state(const RunState& state);
  void write_manifest(const std::vector<RingEntry>& ring);
  void prune(std::vector<RingEntry>& ring);

  std::string path_;
  int keep_;
};

}  // namespace sdcmd::run
