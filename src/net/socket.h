// Thin POSIX TCP helpers shared by the server, the client library and the
// benches: listener/accept/connect setup, non-blocking mode, and EINTR/EAGAIN
// classification for the event loop's partial reads and writes. Everything
// here returns Status instead of raw errno so the callers stay in the
// library's error idiom.

#ifndef STABLETEXT_NET_SOCKET_H_
#define STABLETEXT_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "util/status.h"

namespace stabletext {
namespace net {

/// Parses "host:port" (host may be empty for 127.0.0.1). The port must be
/// a decimal number in [1, 65535].
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& spec);

/// Creates a non-blocking listening TCP socket bound to host:port with
/// SO_REUSEADDR. port 0 binds an ephemeral port; read it back with
/// LocalPort(). Returns the fd.
Result<int> ListenTcp(const std::string& host, uint16_t port,
                      int backlog = 128);

/// Blocking connect to host:port with a bounded wait. The returned fd is
/// left in blocking mode (the client library polls before reads).
Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       int timeout_ms = 5000);

/// Accepts one pending connection on a listening socket and readies it
/// for the event loop: non-blocking, with TCP_NODELAY so a small reply
/// is never held back by Nagle behind an unacknowledged one. NotFound
/// when nothing is pending (EAGAIN) or the call was interrupted; IOError
/// otherwise (the accepted fd, if any, is closed).
Result<int> AcceptTcp(int listen_fd);

/// The locally bound port of a socket (e.g. after an ephemeral bind).
Result<uint16_t> LocalPort(int fd);

/// Switches `fd` to non-blocking mode.
Status SetNonBlocking(int fd);

/// One read(2)/write(2) outcome, with EAGAIN folded into `would_block`
/// instead of an error (EINTR is retried internally).
struct IoOutcome {
  long n = 0;               ///< Bytes moved; 0 on read means EOF.
  bool would_block = false; ///< The operation would have blocked.
  bool ok = true;           ///< False on a hard error (errno-level).
};

/// Reads up to `size` bytes from a (possibly non-blocking) fd.
IoOutcome ReadSome(int fd, void* buf, size_t size);

/// Writes up to `size` bytes to a (possibly non-blocking) fd. SIGPIPE is
/// suppressed (MSG_NOSIGNAL); a peer reset reports ok = false.
IoOutcome WriteSome(int fd, const void* buf, size_t size);

/// Waits until `fd` is readable. Returns OK when readable, IOError on a
/// poll failure or hangup-without-data, NotFound on timeout.
Status WaitReadable(int fd, int timeout_ms);

}  // namespace net
}  // namespace stabletext

#endif  // STABLETEXT_NET_SOCKET_H_
