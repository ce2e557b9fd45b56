#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace stabletext {
namespace net {

namespace {

Status ErrnoStatus(const char* what) {
  return Status::IOError(std::string(what) + ": " +
                         std::strerror(errno));
}

Result<in_addr> ResolveHost(const std::string& host) {
  in_addr addr{};
  const std::string use = host.empty() ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, use.c_str(), &addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + use);
  }
  return addr;
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return ErrnoStatus("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

}  // namespace

Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& spec) {
  const size_t colon = spec.rfind(':');
  std::string host;
  std::string port_str;
  if (colon == std::string::npos) {
    port_str = spec;
  } else {
    host = spec.substr(0, colon);
    port_str = spec.substr(colon + 1);
  }
  if (port_str.empty()) {
    return Status::InvalidArgument("missing port in \"" + spec + "\"");
  }
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end != port_str.c_str() + port_str.size() || port < 1 ||
      port > 65535) {
    return Status::InvalidArgument("bad port in \"" + spec + "\"");
  }
  return std::make_pair(host, static_cast<uint16_t>(port));
}

Result<int> ListenTcp(const std::string& host, uint16_t port,
                      int backlog) {
  auto addr = ResolveHost(host);
  if (!addr.ok()) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr.value();
  sa.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    Status s = ErrnoStatus("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, backlog) != 0) {
    Status s = ErrnoStatus("listen");
    ::close(fd);
    return s;
  }
  Status s = SetNonBlocking(fd);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  return fd;
}

Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       int timeout_ms) {
  auto addr = ResolveHost(host);
  if (!addr.ok()) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr.value();
  sa.sin_port = htons(port);
  // Non-blocking connect with a bounded poll wait, then back to blocking
  // mode for the caller.
  Status s = SetNonBlocking(fd);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) {
    s = ErrnoStatus("connect");
    ::close(fd);
    return s;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      ::close(fd);
      return rc == 0 ? Status::IOError("connect timed out")
                     : ErrnoStatus("poll");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ::close(fd);
      return Status::IOError(std::string("connect: ") +
                             std::strerror(err != 0 ? err : errno));
    }
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    s = ErrnoStatus("fcntl");
    ::close(fd);
    return s;
  }
  SetNoDelay(fd).IgnoreError();  // Latency hint only.
  return fd;
}

Result<int> AcceptTcp(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return Status::NotFound("no pending connection");
    }
    return ErrnoStatus("accept");
  }
  Status s = SetNonBlocking(fd);
  if (s.ok()) s = SetNoDelay(fd);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  return static_cast<uint16_t>(ntohs(sa.sin_port));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoStatus("fcntl(F_SETFL)");
  }
  return Status::OK();
}

IoOutcome ReadSome(int fd, void* buf, size_t size) {
  IoOutcome out;
  for (;;) {
    const ssize_t n = ::read(fd, buf, size);
    if (n >= 0) {
      out.n = n;
      return out;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      out.would_block = true;
      return out;
    }
    out.ok = false;
    return out;
  }
}

IoOutcome WriteSome(int fd, const void* buf, size_t size) {
  IoOutcome out;
  for (;;) {
    const ssize_t n = ::send(fd, buf, size, MSG_NOSIGNAL);
    if (n >= 0) {
      out.n = n;
      return out;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      out.would_block = true;
      return out;
    }
    out.ok = false;
    return out;
  }
}

Status WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return ErrnoStatus("poll");
  if (rc == 0) return Status::NotFound("poll timed out");
  if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
    return Status::IOError("poll: unexpected event");
  }
  return Status::OK();
}

}  // namespace net
}  // namespace stabletext
