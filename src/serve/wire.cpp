#include "serve/wire.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/json.hpp"

namespace sdcmd::serve {

// ---------------------------------------------------------------------------
// WireMessage

void WireMessage::set(const std::string& key, JsonValue value) {
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

const JsonValue* WireMessage::find(const std::string& key) const {
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::string WireMessage::get_string(const std::string& key,
                                    const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

std::int64_t WireMessage::get_int(const std::string& key,
                                  std::int64_t fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_int() : fallback;
}

double WireMessage::get_double(const std::string& key,
                               double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

bool WireMessage::get_bool(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

std::string WireMessage::require_string(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_string()) {
    throw ParseError("wire: missing required string member '" + key + "'");
  }
  return v->as_string();
}

std::int64_t WireMessage::require_int(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number()) {
    throw ParseError("wire: missing required numeric member '" + key + "'");
  }
  return v->as_int();
}

std::string WireMessage::serialize() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : members_) {
    if (!first) out += ',';
    first = false;
    obs::append_json_string(out, key);
    out += ':';
    value.append_to(out);
  }
  out += '}';
  return out;
}

WireMessage WireMessage::parse(const std::string& line) {
  WireMessage msg;
  for (auto& [key, value] : obs::parse_flat_object(line, "wire")) {
    msg.set(key, std::move(value));
  }
  return msg;
}

WireMessage make_ok() {
  WireMessage msg;
  msg.set("ok", JsonValue(true));
  return msg;
}

WireMessage make_error(const std::string& code, const std::string& message) {
  WireMessage msg;
  msg.set("ok", JsonValue(false));
  msg.set("code", JsonValue(code));
  msg.set("error", JsonValue(message));
  return msg;
}

// ---------------------------------------------------------------------------
// Socket I/O

bool wait_fd(int fd, short events, double timeout_s) {
  const double deadline = wall_time() + timeout_s;
  while (true) {
    const double remaining = deadline - wall_time();
    if (remaining < 0.0) return false;
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = events;
    const int timeout_ms =
        static_cast<int>(remaining * 1000.0) + 1;  // round up, never 0-spin
    const int rc = poll(&pfd, 1, timeout_ms);
    if (rc > 0) {
      // POLLHUP/POLLERR still mean "go read/write and see the error": a
      // hung-up socket must be drained so the caller observes EOF.
      return true;
    }
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    throw Error(std::string("serve: poll failed: ") + std::strerror(errno));
  }
}

bool write_all(int fd, std::string_view data, double timeout_s) {
  const double deadline = wall_time() + timeout_s;
  std::size_t written = 0;
  while (written < data.size()) {
    const double remaining = deadline - wall_time();
    if (remaining < 0.0 || !wait_fd(fd, POLLOUT, remaining)) return false;
    const ssize_t n = ::send(fd, data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                  errno == EWOULDBLOCK)) {
      continue;
    }
    return false;  // EPIPE / ECONNRESET: the peer is gone
  }
  return true;
}

bool read_exact(int fd, char* out, std::size_t len, double timeout_s) {
  const double deadline = wall_time() + timeout_s;
  std::size_t got = 0;
  while (got < len) {
    const double remaining = deadline - wall_time();
    if (remaining < 0.0 || !wait_fd(fd, POLLIN, remaining)) return false;
    const ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                  errno == EWOULDBLOCK)) {
      continue;
    }
    return false;  // EOF or reset
  }
  return true;
}

bool LineReader::line_buffered() const {
  return buffer_.find('\n') != std::string::npos;
}

int LineReader::fill_once() {
  char chunk[4096];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
  if (n > 0) {
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return static_cast<int>(n);
  }
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return -1;
  }
  return 0;  // EOF or peer reset
}

LineReader::Result LineReader::next_line(std::string& line,
                                         double timeout_s) {
  const double deadline = wall_time() + timeout_s;
  while (true) {
    const std::size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      line.assign(buffer_, 0, eol);
      buffer_.erase(0, eol + 1);
      return Result::Line;
    }
    const double remaining = deadline - wall_time();
    if (remaining < 0.0 || !wait_fd(fd_, POLLIN, remaining)) {
      return Result::Timeout;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                  errno == EWOULDBLOCK)) {
      continue;
    }
    return Result::Closed;
  }
}

bool LineReader::take_exact(std::string& out, std::size_t len,
                            double timeout_s) {
  out.clear();
  const std::size_t buffered = std::min(buffer_.size(), len);
  out.append(buffer_, 0, buffered);
  buffer_.erase(0, buffered);
  if (out.size() == len) return true;
  const std::size_t missing = len - out.size();
  std::string tail(missing, '\0');
  if (!read_exact(fd_, tail.data(), missing, timeout_s)) return false;
  out += tail;
  return true;
}

namespace {

void fill_unix_address(const std::string& path, sockaddr_un& addr) {
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw Error("serve: socket path too long (" +
                std::to_string(path.size()) + " bytes, max " +
                std::to_string(sizeof addr.sun_path - 1) + "): '" + path +
                "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
}

int make_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw Error(std::string("serve: socket() failed: ") +
                std::strerror(errno));
  }
  return fd;
}

}  // namespace

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr;
  fill_unix_address(path, addr);
  // Replace a stale socket file from a killed daemon; a live daemon would
  // have it bound, making the bind below fail with EADDRINUSE.
  ::unlink(path.c_str());
  const int fd = make_socket();
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    close_fd(fd);
    throw Error("serve: cannot bind '" + path + "': " + std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    close_fd(fd);
    throw Error("serve: cannot listen on '" + path +
                "': " + std::strerror(err));
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr;
  fill_unix_address(path, addr);
  const int fd = make_socket();
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
         0) {
    if (errno == EINTR) continue;
    close_fd(fd);
    return -1;  // absent / refusing / mid-restart: the retriable case
  }
  return fd;
}

int accept_connection(int listen_fd) {
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    return -1;
  }
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace sdcmd::serve
