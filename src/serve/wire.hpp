// Wire protocol for the session server: line-delimited flat JSON control
// messages plus raw binary position frames, over local (AF_UNIX) sockets.
//
// A control message is one JSON object per line whose values are scalars
// (string / integer / double / bool / null) — the same shape as the
// run_state.v1 sidecar, read by the same parser (obs::parse_flat_object),
// so the whole protocol stays greppable and the chaos tooling can speak it
// with python's json module:
//
//   {"op": "step", "id": "s0", "steps": 100}\n
//   {"ok": true, "id": "s0", "step": 400, "pending": 100}\n
//
// A snapshot response is a control line announcing "frame_bytes": N,
// immediately followed by N raw bytes (natoms × 3 little-endian doubles,
// xyz-interleaved) on the same stream.
//
// All socket I/O here is EINTR-safe and deadline-bounded: every read and
// write polls first and gives up after the configured timeout instead of
// blocking a serve loop on a stalled peer (see docs/serving.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace sdcmd::serve {

/// A control message member: the library's tagged JSON scalar.
using obs::JsonValue;

/// One flat-JSON control message (request or response). Member order is
/// preserved on serialization so responses stay stable to diff.
class WireMessage {
 public:
  WireMessage() = default;

  /// Set (or replace) a member.
  void set(const std::string& key, JsonValue value);

  bool has(const std::string& key) const { return find(key) != nullptr; }
  const JsonValue* find(const std::string& key) const;

  /// Accessors with defaults (missing member => the default) and required
  /// accessors (missing member => ParseError naming the key).
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string require_string(const std::string& key) const;
  std::int64_t require_int(const std::string& key) const;

  /// One-line JSON document (no trailing newline).
  std::string serialize() const;

  /// Parse one flat JSON object. Throws ParseError with a byte offset on
  /// malformed input (nested containers are malformed by design).
  static WireMessage parse(const std::string& line);

  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

 private:
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Canonical response helpers.
WireMessage make_ok();
WireMessage make_error(const std::string& code, const std::string& message);

// ---------------------------------------------------------------------------
// Deadline-bounded, EINTR-safe socket I/O (POSIX fds).

/// Poll `fd` for `events` (POLLIN/POLLOUT) up to `timeout_s` seconds.
/// Retries EINTR against the remaining budget. Returns true when the fd is
/// ready, false on timeout. Throws Error on poll failure or hangup+error.
bool wait_fd(int fd, short events, double timeout_s);

/// Write the whole buffer, polling before every write and retrying
/// EINTR/EAGAIN against one shared deadline. Returns false when the peer
/// vanished (EPIPE/ECONNRESET) or the deadline expired mid-write.
bool write_all(int fd, std::string_view data, double timeout_s);

/// Read exactly `len` bytes into `out` under one deadline (binary frames).
/// Returns false on EOF, peer reset, or timeout.
bool read_exact(int fd, char* out, std::size_t len, double timeout_s);

/// Incremental line framing over a socket: buffers partial reads across
/// calls so one read syscall can yield several protocol lines.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  enum class Result { Line, Timeout, Closed };

  /// Next '\n'-terminated line (terminator stripped). Drains buffered bytes
  /// before touching the socket; reads under `timeout_s` otherwise.
  Result next_line(std::string& line, double timeout_s);

  /// True when a whole buffered line is ready without any socket read.
  bool line_buffered() const;

  /// One recv() appended to the buffer — for poll-driven loops that must
  /// never block on a half-sent line (the caller polled POLLIN already).
  /// Returns the byte count, 0 on EOF/peer reset, -1 on EINTR/EAGAIN
  /// (retriable: just poll again next round).
  int fill_once();

  /// Move exactly `len` already-buffered + newly-read bytes into `out`
  /// (binary frame following a header line). False on EOF/timeout.
  bool take_exact(std::string& out, std::size_t len, double timeout_s);

 private:
  int fd_;
  std::string buffer_;
};

/// Bind + listen on an AF_UNIX socket, replacing any stale socket file at
/// `path`. Throws Error (with the path) when the path is too long for
/// sockaddr_un or any syscall fails. Returns the listening fd (CLOEXEC).
int listen_unix(const std::string& path, int backlog = 16);

/// Connect to an AF_UNIX socket. Returns the connected fd (CLOEXEC), or -1
/// when the server is absent/not accepting (the retriable case). Throws
/// Error on a non-retriable failure (path too long, socket() failure).
int connect_unix(const std::string& path);

/// EINTR-safe accept; returns -1 when no connection is pending (caller
/// polls first) or on transient failure.
int accept_connection(int listen_fd);

/// Close ignoring EINTR (idempotent; -1 is a no-op).
void close_fd(int fd);

}  // namespace sdcmd::serve
