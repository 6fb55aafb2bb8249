#include "nucleus/serve/net/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <ostream>
#include <streambuf>
#include <utility>

#include "nucleus/util/mutex.h"

namespace nucleus {
namespace {

/// Blocking, SIGPIPE-free writes to a (possibly O_NONBLOCK) socket.
/// Workers stream responses through this; a peer that went away — or
/// that holds the socket open without reading past the write-stall
/// deadline — turns the buffer into a sink (the session still finishes
/// deterministically, its output just has nowhere to go), so a stalled
/// client can never pin its worker and wedge drain behind it.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setp(buffer_, buffer_ + sizeof(buffer_));
  }
  ~FdStreamBuf() override { FlushToFd(); }

 protected:
  int overflow(int_type ch) override {
    if (!FlushToFd()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return FlushToFd() ? 0 : -1; }

 private:
  bool FlushToFd() {
    const char* p = pbase();
    while (p < pptr()) {
      if (broken_) break;
      const ssize_t n = ::send(fd_, p, static_cast<std::size_t>(pptr() - p),
                               MSG_NOSIGNAL);
      if (n > 0) {
        p += n;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // The fd is non-blocking (it shares flags with the reader):
        // wait for writability — boundedly. The deadline restarts on
        // every send that makes progress, so only a peer that accepts
        // NOTHING for the whole window is cut off.
        struct pollfd pfd;
        pfd.fd = fd_;
        pfd.events = POLLOUT;
        pfd.revents = 0;
        const int r = ::poll(&pfd, 1, kWriteStallMs);
        if (r > 0) continue;                    // writable (or error:
                                                // the next send reports it)
        if (r < 0 && errno == EINTR) continue;
        // Stalled past the deadline: the peer stopped reading but kept
        // the socket open. Treat it like a vanished peer.
      }
      broken_ = true;  // peer is gone; drop the rest of the session
    }
    setp(buffer_, buffer_ + sizeof(buffer_));
    return true;
  }

  /// How long one blocked write waits for the peer to drain its receive
  /// buffer before the stream is declared broken. Matches the reap
  /// pass's linger deadline: both bound how long a dead-but-open client
  /// can hold server resources.
  static constexpr int kWriteStallMs = 5000;

  int fd_;
  bool broken_ = false;
  char buffer_[16384];
};

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// The default per-connection handler: a RequestProcessor session, which
/// keeps the resolver/registry constructor byte-identical to the stdio
/// serving path.
class RequestProcessorHandler : public ConnectionHandler {
 public:
  RequestProcessorHandler(const ServeSessionResolver& resolver,
                          SnapshotRegistry* registry, std::ostream& out,
                          const ServeOptions& serve)
      : processor_(resolver, registry, out, serve) {}

  void ProcessLine(const std::string& line) override {
    processor_.ProcessLine(line);
  }
  void RejectLine(const Status& status) override {
    processor_.RejectLine(status);
  }
  void Flush() override { processor_.Flush(); }
  void Finish() override { processor_.Finish(); }
  bool shutdown_requested() const override {
    return processor_.shutdown_requested();
  }

 private:
  RequestProcessor processor_;
};

}  // namespace

/// One live connection: the IO thread owns fd/read-state and feeds the
/// queue; the worker thread drains the queue through a RequestProcessor
/// and owns all writes to the socket.
struct TcpServer::Connection {
  int fd = -1;

  // IO-thread-only read state.
  std::string inbuf;         // partial line, bounded by max_line_bytes
  bool discarding = false;   // inside an oversized line, dropping to '\n'
  bool eof_enqueued = false; // stop polling this fd for reads

  struct Item {
    enum class Kind { kLine, kReject, kEof };
    Kind kind = Kind::kLine;
    std::string text;          // kLine
    Status reject;             // kReject
    std::int64_t count = 0;    // kReject: consecutive rejected lines
    bool overflow = false;     // kReject: coalescable back-pressure drop
    // kLine admission time for the queue-wait histogram; default
    // (epoch) means metrics were off at admission — not observed.
    std::chrono::steady_clock::time_point enqueued{};
  };

  Mutex mutex;
  std::condition_variable cv;
  std::deque<Item> queue GUARDED_BY(mutex);
  // kLine items currently queued.
  std::int64_t admitted_depth GUARDED_BY(mutex) = 0;

  std::thread worker;
  std::atomic<bool> worker_done{false};

  // Linger state (IO-thread-only): after the worker half-closes, the fd
  // stays open until the client's FIN (or the deadline) so the final
  // close is never an RST racing the client's last reads.
  bool lingering = false;
  std::chrono::steady_clock::time_point linger_deadline;
};

TcpServer::TcpServer(ConnectionHandlerFactory factory,
                     TcpServerOptions options)
    : handler_factory_(std::move(factory)),
      options_(std::move(options)),
      queue_wait_((options_.serve.metrics != nullptr
                       ? options_.serve.metrics
                       : &obs::MetricsRegistry::Global())
                      ->GetHistogram("nucleus_tcp_queue_wait_us")) {}

TcpServer::TcpServer(ServeSessionResolver resolver,
                     SnapshotRegistry* registry, TcpServerOptions options)
    : TcpServer(ConnectionHandlerFactory(), std::move(options)) {
  // The factory is installed after delegation so it can capture `this`
  // (the sessions' server hook) — workers only read it after Start().
  auto shared_resolver =
      std::make_shared<ServeSessionResolver>(std::move(resolver));
  handler_factory_ =
      [this, shared_resolver,
       registry](std::ostream& out) -> std::unique_ptr<ConnectionHandler> {
    ServeOptions serve = options_.serve;
    serve.server = this;
    return std::make_unique<RequestProcessorHandler>(*shared_resolver,
                                                     registry, out, serve);
  };
}

TcpServer::~TcpServer() {
  Stop();
  // Safe only after the join inside Stop(): nothing can be writing the
  // wake pipe through this object once the IO thread is gone.
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

Status TcpServer::Start() {
  if (io_thread_.joinable()) {
    return Status::Internal("TcpServer already started");
  }
  // A failed Start (bad host, port taken) may be retried; reuse the wake
  // pipe from the previous attempt instead of leaking two fds per retry.
  if (wake_pipe_[0] < 0) {
    if (::pipe(wake_pipe_) != 0) {
      return Status::Internal("pipe() failed: " +
                              std::string(std::strerror(errno)));
    }
    SetNonBlocking(wake_pipe_[0]);
    SetNonBlocking(wake_pipe_[1]);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  const std::string host =
      options_.host.empty() ? std::string("127.0.0.1") : options_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("invalid listen address '" + host +
                                   "' (numeric IPv4 expected)");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind(" + host + ":" +
                            std::to_string(options_.port) +
                            ") failed: " + error);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed: " + error);
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  SetNonBlocking(listen_fd_);

  io_thread_ = std::thread(&TcpServer::PollLoop, this);
  return Status::Ok();
}

void TcpServer::RequestDrain() {
  // Flag + self-pipe only: callable from a signal handler and from
  // connection workers (the `shutdown` verb).
  draining_.store(true, std::memory_order_release);
  WakeIoThread();
}

void TcpServer::WakeIoThread() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void TcpServer::Wait() {
  if (io_thread_.joinable()) io_thread_.join();
}

void TcpServer::Stop() {
  if (!io_thread_.joinable()) return;
  RequestDrain();
  Wait();
}

TcpServerStats TcpServer::Stats() const {
  TcpServerStats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected =
      rejected_connections_.load(std::memory_order_relaxed);
  stats.connections_open = open_.load(std::memory_order_relaxed);
  stats.connections_drained = drained_.load(std::memory_order_relaxed);
  stats.accept_errors = accept_errors_.load(std::memory_order_relaxed);
  stats.lines_admitted = lines_admitted_.load(std::memory_order_relaxed);
  stats.lines_rejected = lines_rejected_.load(std::memory_order_relaxed);
  stats.oversized_lines = oversized_lines_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  stats.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  stats.draining = draining_.load(std::memory_order_relaxed);
  return stats;
}

std::string TcpServer::StatsJson() const {
  const TcpServerStats stats = Stats();
  std::string json = "{";
  json += "\"connections_accepted\": " +
          std::to_string(stats.connections_accepted);
  json += ", \"connections_open\": " +
          std::to_string(stats.connections_open);
  json += ", \"connections_rejected\": " +
          std::to_string(stats.connections_rejected);
  json += ", \"connections_drained\": " +
          std::to_string(stats.connections_drained);
  json += ", \"accept_errors\": " + std::to_string(stats.accept_errors);
  json += ", \"lines_admitted\": " + std::to_string(stats.lines_admitted);
  json += ", \"lines_rejected\": " + std::to_string(stats.lines_rejected);
  json += ", \"oversized_lines\": " + std::to_string(stats.oversized_lines);
  json += ", \"queue_depth\": " + std::to_string(stats.queue_depth);
  json += ", \"max_queue_depth\": " + std::to_string(stats.max_queue_depth);
  json += ", \"queue_high_water\": " +
          std::to_string(options_.queue_high_water);
  json += ", \"draining\": ";
  json += stats.draining ? "true" : "false";
  json += "}";
  return json;
}

void TcpServer::PublishMetrics(obs::MetricsRegistry& m) const {
  const TcpServerStats stats = Stats();
  m.GetCounter("nucleus_tcp_connections_accepted_total")
      ->Set(stats.connections_accepted);
  m.GetCounter("nucleus_tcp_connections_rejected_total")
      ->Set(stats.connections_rejected);
  m.GetCounter("nucleus_tcp_connections_drained_total")
      ->Set(stats.connections_drained);
  m.GetCounter("nucleus_tcp_accept_errors_total")->Set(stats.accept_errors);
  m.GetCounter("nucleus_tcp_lines_admitted_total")->Set(stats.lines_admitted);
  m.GetCounter("nucleus_tcp_lines_rejected_total")->Set(stats.lines_rejected);
  m.GetCounter("nucleus_tcp_oversized_lines_total")
      ->Set(stats.oversized_lines);
  m.GetGauge("nucleus_tcp_connections_open")
      ->Set(static_cast<double>(stats.connections_open));
  m.GetGauge("nucleus_tcp_queue_depth")
      ->Set(static_cast<double>(stats.queue_depth));
  m.GetGauge("nucleus_tcp_max_queue_depth")
      ->Set(static_cast<double>(stats.max_queue_depth));
}

void TcpServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // backlog drained: nothing more to accept
      }
      // Resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) or another
      // transient failure. poll() is level-triggered, so returning with
      // no backoff would re-enter here immediately and busy-spin while
      // fds stay exhausted. Sleeping would stall every established
      // connection's IO (this is the shared IO thread), so instead the
      // listener fd is dropped from the poll set until the deadline —
      // established connections keep being serviced, the process gets a
      // beat to shed descriptors, and the still-pending connection
      // re-triggers the re-armed listener — the listener stays alive.
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      accept_backoff_until_ =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
      return;
    }
    if (open_.load(std::memory_order_relaxed) >= options_.max_connections) {
      // Over the connection cap: one structured error, then close. The
      // client gets a parseable reason instead of a silent RST.
      const std::string error =
          "{\"error\": \"server at connection limit (" +
          std::to_string(options_.max_connections) + ")\"}\n";
      [[maybe_unused]] const ssize_t n =
          ::send(fd, error.data(), error.size(), MSG_NOSIGNAL);
      ::close(fd);
      rejected_connections_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_add(1, std::memory_order_relaxed);
    Connection* raw = conn.get();
    conn->worker = std::thread(&TcpServer::WorkerLoop, this, raw);
    connections_.push_back(std::move(conn));
  }
}

void TcpServer::AdmitLine(Connection& conn, std::string line) {
  MutexLock lock(conn.mutex);
  if (conn.admitted_depth >= options_.queue_high_water) {
    // Back-pressure: the line is dropped HERE, but it still gets its
    // response slot — consecutive drops coalesce into one queue item the
    // worker expands into per-line errors, so a firehose of rejected
    // lines costs O(1) memory.
    lines_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (!conn.queue.empty() && conn.queue.back().kind ==
            Connection::Item::Kind::kReject &&
        conn.queue.back().overflow) {
      ++conn.queue.back().count;
    } else {
      Connection::Item item;
      item.kind = Connection::Item::Kind::kReject;
      item.reject = Status::OutOfRange(
          "admission queue full (high water " +
          std::to_string(options_.queue_high_water) +
          " lines): request rejected");
      item.count = 1;
      item.overflow = true;
      conn.queue.push_back(std::move(item));
    }
  } else {
    Connection::Item item;
    item.kind = Connection::Item::Kind::kLine;
    item.text = std::move(line);
    const std::int64_t admitted =
        lines_admitted_.fetch_add(1, std::memory_order_relaxed);
    if (obs::MetricsEnabled() && (admitted & 7) == 0) {
      // Queue-wait is sampled 1-in-8: the histogram prices the wait
      // distribution, and the two clock reads a timestamp costs (here
      // and at dequeue) are the most expensive instructions on this
      // path.
      item.enqueued = std::chrono::steady_clock::now();
    }
    conn.queue.push_back(std::move(item));
    ++conn.admitted_depth;
    const std::int64_t depth =
        queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
    while (depth > seen && !max_queue_depth_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }
  conn.cv.notify_one();
}

void TcpServer::RejectOversized(Connection& conn) {
  oversized_lines_.fetch_add(1, std::memory_order_relaxed);
  lines_rejected_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(conn.mutex);
  Connection::Item item;
  item.kind = Connection::Item::Kind::kReject;
  item.reject = Status::OutOfRange(
      "request line exceeds " + std::to_string(options_.max_line_bytes) +
      " bytes: rejected without buffering");
  item.count = 1;
  conn.queue.push_back(std::move(item));
  conn.cv.notify_one();
}

void TcpServer::EnqueueEof(Connection& conn) {
  if (conn.eof_enqueued) return;
  conn.eof_enqueued = true;
  MutexLock lock(conn.mutex);
  Connection::Item item;
  item.kind = Connection::Item::Kind::kEof;
  conn.queue.push_back(std::move(item));
  conn.cv.notify_one();
}

void TcpServer::ReadFromConnection(Connection& conn) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Hard error: treat as disconnect.
    }
    if (n <= 0) {
      // Disconnect. A partial final line is served the way std::getline
      // serves an unterminated last line: as a line.
      if (!conn.inbuf.empty() && !conn.discarding) {
        AdmitLine(conn, std::move(conn.inbuf));
      }
      conn.inbuf.clear();
      EnqueueEof(conn);
      return;
    }
    std::size_t begin = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      if (chunk[i] != '\n') continue;
      if (conn.discarding) {
        // The tail of an already-rejected oversized line.
        conn.discarding = false;
      } else if (static_cast<std::int64_t>(conn.inbuf.size() +
                                           (i - begin)) >
                 options_.max_line_bytes) {
        // Oversized even though it fit in one read: same rejection as the
        // buffered case, the limit is on the LINE, not the buffering.
        RejectOversized(conn);
        conn.inbuf.clear();
      } else {
        conn.inbuf.append(chunk + begin, i - begin);
        AdmitLine(conn, std::move(conn.inbuf));
        conn.inbuf.clear();
      }
      begin = i + 1;
    }
    if (!conn.discarding) {
      conn.inbuf.append(chunk + begin, static_cast<std::size_t>(n) - begin);
      if (static_cast<std::int64_t>(conn.inbuf.size()) >
          options_.max_line_bytes) {
        // Unbounded-buffering guard: reject now, swallow to the newline.
        RejectOversized(conn);
        conn.inbuf.clear();
        conn.discarding = true;
      }
    }
  }
}

void TcpServer::WorkerLoop(Connection* conn) {
  FdStreamBuf buf(conn->fd);
  std::ostream out(&buf);
  const std::unique_ptr<ConnectionHandler> handler = handler_factory_(out);
  ConnectionHandler& processor = *handler;

  bool eof = false;
  while (!eof && !processor.shutdown_requested()) {
    std::deque<Connection::Item> batch;
    {
      MutexLock lock(conn->mutex);
      while (conn->queue.empty()) conn->cv.wait(lock.native());
      batch.swap(conn->queue);
      conn->admitted_depth = 0;
    }
    for (Connection::Item& item : batch) {
      // The depth gauge counts admitted-but-undequeued lines, so it drops
      // for every kLine leaving the queue — including ones discarded
      // below (post-shutdown, post-EOF) that are never processed.
      if (item.kind == Connection::Item::Kind::kLine) {
        queue_depth_.fetch_sub(1, std::memory_order_relaxed);
        if (item.enqueued != std::chrono::steady_clock::time_point{}) {
          queue_wait_->Observe(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - item.enqueued)
                  .count());
        }
      }
      if (eof || processor.shutdown_requested()) continue;  // drop input
      switch (item.kind) {
        case Connection::Item::Kind::kLine:
          processor.ProcessLine(item.text);
          break;
        case Connection::Item::Kind::kReject:
          for (std::int64_t i = 0; i < item.count; ++i) {
            processor.RejectLine(item.reject);
          }
          break;
        case Connection::Item::Kind::kEof:
          eof = true;
          break;
      }
    }
    // Input ran dry (or ended): emit what's pending so an interactive
    // client is never left waiting on a half-full batch.
    bool quiescent;
    {
      MutexLock lock(conn->mutex);
      quiescent = conn->queue.empty();
    }
    if (quiescent || eof) processor.Flush();
  }
  if (processor.shutdown_requested()) {
    // The client asked the whole server to go: acknowledge (already
    // emitted), then drain every connection including this one.
    RequestDrain();
  }
  processor.Finish();
  ::shutdown(conn->fd, SHUT_WR);  // flush EOF to the client's read side
  conn->worker_done.store(true, std::memory_order_release);
  WakeIoThread();
}

void TcpServer::PollLoop() {
  bool drain_started = false;
  for (;;) {
    // Reap finished connections. The worker already sent everything and
    // half-closed (SHUT_WR); closing while the client is still sending
    // would turn that into an RST, which may discard response bytes the
    // client has not read yet. So a finished connection LINGERS: its
    // unread client bytes are read and discarded until the client's FIN
    // (read() == 0) confirms it saw our EOF — then close is a clean FIN
    // handshake. A client that never stops sending is cut off at the
    // deadline; it forfeited the tail of its transcript.
    bool any_lingering = false;
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& conn = **it;
      if (!conn.worker_done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      if (conn.worker.joinable()) conn.worker.join();
      if (!conn.lingering) {
        conn.lingering = true;
        conn.linger_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
      }
      bool finished = false;
      char sink[4096];
      for (;;) {
        const ssize_t n = ::read(conn.fd, sink, sizeof(sink));
        if (n > 0) continue;
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;  // nothing buffered; wait for FIN or deadline
        }
        finished = true;  // FIN (0) or error: no more client bytes coming
        break;
      }
      if (!finished &&
          std::chrono::steady_clock::now() < conn.linger_deadline) {
        any_lingering = true;
        ++it;
        continue;
      }
      {
        // Lines admitted after the worker quit (it exits on `shutdown`
        // without waiting for the reader) were never dequeued; unwind
        // their share of the depth gauge before the connection goes away.
        MutexLock lock(conn.mutex);
        for (const Connection::Item& item : conn.queue) {
          if (item.kind == Connection::Item::Kind::kLine) {
            queue_depth_.fetch_sub(1, std::memory_order_relaxed);
          }
        }
        conn.queue.clear();
      }
      ::close(conn.fd);
      open_.fetch_sub(1, std::memory_order_relaxed);
      drained_.fetch_add(1, std::memory_order_relaxed);
      it = connections_.erase(it);
    }

    if (draining_.load(std::memory_order_acquire) && !drain_started) {
      drain_started = true;
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);  // stop accepting
        listen_fd_ = -1;
      }
      // Stop admitting: every connection gets its end-of-input marker
      // behind whatever is already queued; workers finish, flush, close.
      for (auto& conn : connections_) EnqueueEof(*conn);
    }
    if (drain_started && connections_.empty()) break;

    std::vector<struct pollfd> fds;
    fds.reserve(connections_.size() + 2);
    std::vector<Connection*> polled;
    polled.reserve(connections_.size());
    {
      struct pollfd pfd;
      pfd.fd = wake_pipe_[0];
      pfd.events = POLLIN;
      pfd.revents = 0;
      fds.push_back(pfd);
    }
    // During accept backoff the listener is left out of the poll set so
    // the level-triggered pending connection cannot spin this loop;
    // established connections below keep being serviced meanwhile.
    const auto now = std::chrono::steady_clock::now();
    const bool accept_backing_off = now < accept_backoff_until_;
    const bool poll_listener =
        listen_fd_ >= 0 && !drain_started && !accept_backing_off;
    if (poll_listener) {
      struct pollfd pfd;
      pfd.fd = listen_fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      fds.push_back(pfd);
    }
    for (auto& conn : connections_) {
      // Lingering fds are polled too: the client's next bytes (or FIN)
      // must wake the reap pass above, not sit until another event.
      if (conn->eof_enqueued && !conn->lingering) continue;
      struct pollfd pfd;
      pfd.fd = conn->fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      fds.push_back(pfd);
      polled.push_back(conn.get());
    }

    // A finite timeout only exists to enforce linger deadlines and to
    // re-arm the listener when its accept backoff expires.
    int timeout_ms = any_lingering ? 100 : -1;
    if (listen_fd_ >= 0 && !drain_started && accept_backing_off) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              accept_backoff_until_ - now)
              .count() +
          1;
      const int rearm_ms = static_cast<int>(remaining);
      if (timeout_ms < 0 || rearm_ms < timeout_ms) timeout_ms = rearm_ms;
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure
    }

    std::size_t index = 0;
    if (fds[index].revents & POLLIN) {
      char sink[64];
      while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
      }
    }
    ++index;
    if (poll_listener) {
      if (fds[index].revents & POLLIN) AcceptPending();
      ++index;
    }
    for (Connection* conn : polled) {
      const short revents = fds[index++].revents;
      if (conn->lingering) continue;  // the reap pass consumes its bytes
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        ReadFromConnection(*conn);
      }
    }
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The wake pipe is deliberately NOT closed here: RequestDrain() may be
  // called (from a signal handler, a worker's `shutdown`, or Stop()) at
  // any point relative to this exit, and its write must never race a
  // close. The destructor closes the pipe after the join.
}

}  // namespace nucleus
