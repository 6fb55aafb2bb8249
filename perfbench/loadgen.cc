#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace perfbench {
namespace {

int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// One non-blocking session driven from a single thread: lines are queued
// when `admit` allows (due time reached, or window open), written as the
// socket accepts them, and answers are timestamped as their newline
// arrives.
template <typename Admit>
SessionResult Drive(int port, const Script& script, Admit admit,
                    bool open_loop, Clock::time_point start, double rate) {
  SessionResult result;
  const std::size_t n = script.size();
  const int fd = Dial(port);
  if (fd < 0) {
    result.ok = false;
    return result;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  if (open_loop) {
    result.latency_ns.resize(n);
    result.late_ns.resize(n);
  }
  const auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(i) * 1e9 / rate));
  };
  std::size_t next = 0;      // next line to queue
  std::size_t answered = 0;  // answers received
  std::size_t send_from = 0;  // byte offset of unsent script text
  std::size_t send_to = 0;    // end of queued script text
  const Clock::time_point first = Clock::now();
  char buf[1 << 16];
  while (answered < n) {
    Clock::time_point now = Clock::now();
    while (next < n && admit(next, answered, now)) {
      if (open_loop) result.late_ns[next] = Nanos(now - due(next));
      ++next;
      send_to = next < n ? script.starts[next] : script.text.size();
    }
    if (send_from < send_to) {
      const ssize_t w = ::send(fd, script.text.data() + send_from,
                               send_to - send_from, MSG_NOSIGNAL);
      if (w > 0) {
        send_from += static_cast<std::size_t>(w);
      } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        result.ok = false;
        break;
      }
    }
    pollfd pfd{fd, POLLIN, 0};
    if (send_from < send_to) pfd.events |= POLLOUT;
    timespec timeout{0, 0};
    timespec* timeout_ptr = nullptr;
    if (open_loop && next < n && send_from == send_to) {
      const std::int64_t wait = std::max<std::int64_t>(0, Nanos(due(next) - now));
      timeout.tv_sec = wait / 1000000000;
      timeout.tv_nsec = wait % 1000000000;
      timeout_ptr = &timeout;
    }
    if (::ppoll(&pfd, 1, timeout_ptr, nullptr) < 0 && errno != EINTR) {
      result.ok = false;
      break;
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0) {
      result.ok = false;  // server closed before answering everything
      break;
    }
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      result.ok = false;
      break;
    }
    now = Clock::now();
    for (ssize_t i = 0; i < r; ++i) {
      if (buf[i] == '\n' && answered < n) {
        if (open_loop) result.latency_ns[answered] = Nanos(now - due(answered));
        ++answered;
      }
    }
    result.transcript.append(buf, static_cast<std::size_t>(r));
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - first).count();
  ::close(fd);
  return result;
}

}  // namespace

void Script::Add(const std::string& line) {
  starts.push_back(text.size());
  text += line;
  text += '\n';
}

SessionResult RunOpenLoop(int port, const Script& script, double rate,
                          Clock::time_point start) {
  const auto admit = [&](std::size_t i, std::size_t, Clock::time_point now) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(i) * 1e9 / rate)) <=
           now;
  };
  return Drive(port, script, admit, /*open_loop=*/true, start, rate);
}

SessionResult RunPipelined(int port, const Script& script,
                           std::int64_t window) {
  const auto admit = [&](std::size_t i, std::size_t answered,
                         Clock::time_point) {
    return static_cast<std::int64_t>(i - answered) < window;
  };
  return Drive(port, script, admit, /*open_loop=*/false, Clock::now(), 1.0);
}

RoundTripClient::RoundTripClient(int port) : fd_(Dial(port)) {}

RoundTripClient::~RoundTripClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string RoundTripClient::Call(const std::string& line) {
  if (fd_ < 0) return std::string();
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t w =
        ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return std::string();
    }
    sent += static_cast<std::size_t>(w);
  }
  for (;;) {
    const std::size_t pos = carry_.find('\n');
    if (pos != std::string::npos) {
      std::string answer = carry_.substr(0, pos);
      carry_.erase(0, pos + 1);
      return answer;
    }
    char buf[1 << 16];
    const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return std::string();
    }
    carry_.append(buf, static_cast<std::size_t>(r));
  }
}

}  // namespace perfbench
