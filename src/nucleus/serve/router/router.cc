#include "nucleus/serve/router/router.h"

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
#include <sstream>
#include <utility>

#include "nucleus/io/hierarchy_export.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/store/manifest.h"
#include "nucleus/util/parse_util.h"

namespace nucleus {
namespace {

/// Front-session error object, same shape RequestProcessor emits. The
/// message must already be JSON-escaped (or escape-free).
std::string ErrorLine(const std::string& escaped_message,
                      std::int64_t line_no) {
  return "{\"error\": \"" + escaped_message +
         "\", \"line\": " + std::to_string(line_no) + "}";
}

bool IsErrorLine(const std::string& response) {
  return response.rfind("{\"error\"", 0) == 0;
}

/// Replaces the `"line": N` value of a backend error object with the
/// front session's line number. The pattern `, "line": ` cannot occur
/// inside the escaped message (a literal quote is \" there), so the
/// last occurrence is always the real key.
std::string RewriteErrorLineNumber(const std::string& response,
                                   std::int64_t line_no) {
  const std::string key = ", \"line\": ";
  const std::size_t at = response.rfind(key);
  if (at == std::string::npos) return response;
  std::size_t digits = at + key.size();
  while (digits < response.size() &&
         (std::isdigit(static_cast<unsigned char>(response[digits])) ||
          response[digits] == '-')) {
    ++digits;
  }
  return response.substr(0, at) + key + std::to_string(line_no) +
         response.substr(digits);
}

/// Extracts the escaped payload of `"<field>": "<payload>"` from a JSON
/// object WE (or a backend we run) formatted — not a general parser.
/// Returns false when the field is absent.
bool ExtractEscapedField(const std::string& json, const std::string& field,
                         std::string* out) {
  const std::string key = "\"" + field + "\": \"";
  const std::size_t start = json.find(key);
  if (start == std::string::npos) return false;
  std::size_t i = start + key.size();
  std::string value;
  while (i < json.size() && json[i] != '"') {
    if (json[i] == '\\' && i + 1 < json.size()) {
      value.push_back(json[i]);
      value.push_back(json[i + 1]);
      i += 2;
      continue;
    }
    value.push_back(json[i]);
    ++i;
  }
  *out = value;
  return true;
}

/// Reverses JsonEscape for the path strings a `detach` response names.
std::string JsonUnescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      default: out.push_back(s[i]); break;  // \" \\ and anything else
    }
  }
  return out;
}

/// The `"persisted": ["p1", "p2", ...]` array of a detach response,
/// unescaped; empty when the field is absent (clean tenant).
std::vector<std::string> ParsePersistedArray(const std::string& response) {
  std::vector<std::string> paths;
  const std::string key = "\"persisted\": [";
  std::size_t i = response.find(key);
  if (i == std::string::npos) return paths;
  i += key.size();
  while (i < response.size() && response[i] != ']') {
    if (response[i] != '"') {
      ++i;
      continue;
    }
    ++i;  // opening quote
    std::string escaped;
    while (i < response.size() && response[i] != '"') {
      if (response[i] == '\\' && i + 1 < response.size()) {
        escaped.push_back(response[i]);
        escaped.push_back(response[i + 1]);
        i += 2;
        continue;
      }
      escaped.push_back(response[i]);
      ++i;
    }
    ++i;  // closing quote
    paths.push_back(JsonUnescape(escaped));
  }
  return paths;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool SendAllFd(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking-handshake TCP dial with a connect deadline (nonblocking
/// connect + poll, then back to blocking for the session).
int DialTcp(const std::string& host, int port, int timeout_ms) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (rc <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      ::close(fd);
      return -1;
    }
  } else if (rc != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for send/recv
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// One response line off `fd` within the deadline (for health probes).
bool ReadLineWithDeadline(int fd, int timeout_ms, std::string* line) {
  line->clear();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char c = 0;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1);
    const int r = ::poll(&pfd, 1, wait_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

constexpr std::size_t kHandlerBatch = 256;

}  // namespace

std::uint64_t RouterTenantKey(const std::string& tenant) {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  for (const char c : tenant) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return hash;
}

std::int32_t JumpConsistentHash(std::uint64_t key,
                                std::int32_t num_buckets) {
  if (num_buckets <= 0) return 0;
  std::int64_t bucket = -1;
  std::int64_t next = 0;
  while (next < num_buckets) {
    bucket = next;
    key = key * 2862933555777941757ULL + 1;
    next = static_cast<std::int64_t>(
        static_cast<double>(bucket + 1) *
        (static_cast<double>(1LL << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<std::int32_t>(bucket);
}

/// One forwarded line's rendezvous: the front worker waits on it, the
/// backend connection's reader (or a failure path) completes it exactly
/// once.
struct TenantRouter::Slot {
  explicit Slot(std::int64_t line) : line_no(line) {}
  const std::int64_t line_no;
  Mutex mutex;
  std::condition_variable cv;
  bool done GUARDED_BY(mutex) = false;
  std::string text GUARDED_BY(mutex);
};

/// One pooled connection to one backend. Wire order must equal FIFO
/// order — write_mutex is held across the (push, send) pair to pin that
/// invariant; the reader thread pops the FIFO as response lines arrive.
struct TenantRouter::BackendConn {
  /// Serializes forwarders; ACQUIRED_BEFORE mutex.
  Mutex write_mutex;
  Mutex mutex ACQUIRED_AFTER(write_mutex);
  int fd GUARDED_BY(mutex) = -1;
  bool alive GUARDED_BY(mutex) = false;
  std::deque<std::shared_ptr<Slot>> fifo GUARDED_BY(mutex);
  /// Managed under write_mutex (EnsureConnected joins before re-dialing).
  std::thread reader;
};

struct TenantRouter::Backend {
  std::string address;
  std::string host;
  int port = 0;
  std::atomic<bool> up{false};
  std::vector<std::unique_ptr<BackendConn>> conns;
};

void TenantRouter::CompleteSlot(Slot& slot, std::string text) {
  {
    MutexLock lock(slot.mutex);
    if (slot.done) return;  // first completion wins
    slot.done = true;
    slot.text = std::move(text);
  }
  slot.cv.notify_all();
}

std::string TenantRouter::WaitSlot(Slot& slot) {
  MutexLock lock(slot.mutex);
  while (!slot.done) slot.cv.wait(lock.native());
  return slot.text;
}

std::shared_ptr<TenantRouter::Slot> TenantRouter::MakeCompletedSlot(
    std::int64_t line_no, std::string text) {
  auto slot = std::make_shared<Slot>(line_no);
  CompleteSlot(*slot, std::move(text));
  return slot;
}

TenantRouter::TenantRouter(TenantRouterOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::Global()) {}

TenantRouter::~TenantRouter() { Stop(); }

Status TenantRouter::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::Internal("TenantRouter already started");
  }
  if (options_.backends.empty()) {
    return Status::InvalidArgument("route requires at least one backend");
  }
  const int pool =
      options_.pool_size < 1 ? 1 : options_.pool_size;
  // Validate every address into a local list first: a mid-list error
  // must leave backends_ empty, so a retried Start() cannot append
  // duplicates onto a partially populated table.
  std::vector<std::unique_ptr<Backend>> validated;
  for (const std::string& address : options_.backends) {
    const std::size_t colon = address.rfind(':');
    std::int64_t port = 0;
    if (colon == std::string::npos || colon == 0 ||
        !StrictParseInt64(address.substr(colon + 1), &port) || port <= 0 ||
        port > 65535) {
      return Status::InvalidArgument(
          "backend '" + address + "' is not <host>:<port>");
    }
    const std::string host = address.substr(0, colon);
    struct in_addr probe;
    if (::inet_pton(AF_INET, host.c_str(), &probe) != 1) {
      return Status::InvalidArgument("backend host '" + host +
                                     "' (numeric IPv4 expected)");
    }
    auto backend = std::make_unique<Backend>();
    backend->address = address;
    backend->host = host;
    backend->port = static_cast<int>(port);
    for (int i = 0; i < pool; ++i) {
      backend->conns.push_back(std::make_unique<BackendConn>());
    }
    validated.push_back(std::move(backend));
  }
  backends_ = std::move(validated);
  stopping_.store(false, std::memory_order_release);
  // First health pass: unreachable backends start down (they re-admit
  // when a later probe succeeds) instead of failing startup.
  CheckBackendsNow();
  if (options_.health_interval_ms > 0) {
    if (::pipe(prober_wake_) != 0) {
      backends_.clear();
      return Status::Internal(std::string("router wake pipe: ") +
                              std::strerror(errno));
    }
    prober_ = std::thread(&TenantRouter::ProberLoop, this);
  }
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

void TenantRouter::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (prober_.joinable()) {
    const char byte = 'x';
    (void)!::write(prober_wake_[1], &byte, 1);
    prober_.join();
  }
  if (prober_wake_[0] >= 0) ::close(prober_wake_[0]);
  if (prober_wake_[1] >= 0) ::close(prober_wake_[1]);
  prober_wake_[0] = prober_wake_[1] = -1;
  for (auto& backend : backends_) {
    for (auto& conn : backend->conns) {
      {
        MutexLock lock(conn->mutex);
        // Wakes the reader with EOF; it fails outstanding slots and
        // exits. The fd is closed after the join.
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      }
      if (conn->reader.joinable()) conn->reader.join();
      MutexLock lock(conn->mutex);
      if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
      }
      conn->alive = false;
    }
  }
  backends_.clear();
  started_.store(false, std::memory_order_release);
}

const std::string& TenantRouter::backend_address(int index) const {
  return backends_[static_cast<std::size_t>(index)]->address;
}

bool TenantRouter::backend_up(int index) const {
  return backends_[static_cast<std::size_t>(index)]->up.load(
      std::memory_order_acquire);
}

int TenantRouter::BackendIndexFor(const std::string& tenant) const {
  {
    ReaderLock lock(route_mutex_);
    const auto it = overrides_.find(tenant);
    if (it != overrides_.end()) return it->second;
  }
  return JumpConsistentHash(RouterTenantKey(tenant), num_backends());
}

int TenantRouter::ConnIndexFor(const std::string& tenant) const {
  const int pool = static_cast<int>(backends_[0]->conns.size());
  if (pool <= 1) return 0;
  // The high half of the key, so the conn pin is independent of the
  // backend pin (which consumes the key through the jump hash).
  return static_cast<int>((RouterTenantKey(tenant) >> 32) %
                          static_cast<std::uint64_t>(pool));
}

Status TenantRouter::EnsureConnected(Backend& backend, BackendConn& conn) {
  MutexLock wlock(conn.write_mutex);
  {
    MutexLock lock(conn.mutex);
    if (conn.alive) return Status::Ok();
  }
  // The previous session (if any) is fully dead: its reader cleared
  // `alive` on the way out. Join it, recycle the fd, dial fresh.
  if (conn.reader.joinable()) conn.reader.join();
  {
    MutexLock lock(conn.mutex);
    if (conn.fd >= 0) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  const int fd =
      DialTcp(backend.host, backend.port, options_.health_timeout_ms);
  if (fd < 0) {
    return Status::Internal("backend " + backend.address +
                            " unreachable: request rejected");
  }
  {
    MutexLock lock(conn.mutex);
    conn.fd = fd;
    conn.alive = true;
  }
  conn.reader =
      std::thread(&TenantRouter::ReaderLoop, this, &backend, &conn, fd);
  return Status::Ok();
}

void TenantRouter::FailConnLocked(Backend& backend, BackendConn& conn,
                                  const std::string& reason) {
  for (const std::shared_ptr<Slot>& slot : conn.fifo) {
    CompleteSlot(*slot, ErrorLine(JsonEscape(reason), slot->line_no));
  }
  conn.fifo.clear();
  (void)backend;
}

void TenantRouter::ReaderLoop(Backend* backend, BackendConn* conn, int fd) {
  std::string buffered;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffered.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffered.find('\n', start);
         nl != std::string::npos; nl = buffered.find('\n', start)) {
      std::string line = buffered.substr(start, nl - start);
      start = nl + 1;
      std::shared_ptr<Slot> slot;
      {
        MutexLock lock(conn->mutex);
        if (!conn->fifo.empty()) {
          slot = conn->fifo.front();
          conn->fifo.pop_front();
        }
      }
      if (slot == nullptr) continue;  // stray line; nothing waits on it
      if (IsErrorLine(line)) {
        // The backend numbered the error in ITS session; renumber it
        // into the front session the client actually sees.
        line = RewriteErrorLineNumber(line, slot->line_no);
      }
      CompleteSlot(*slot, std::move(line));
    }
    buffered.erase(0, start);
  }
  // EOF or hard error: the session is gone. Fail whatever was in
  // flight, flag the connection for lazy reconnect, and treat the tear
  // as a down signal — the prober re-admits when the backend answers
  // again.
  {
    MutexLock lock(conn->mutex);
    conn->alive = false;
    FailConnLocked(*backend, *conn,
                   "backend " + backend->address +
                       " connection lost before responding");
    // Half-close to send our FIN now: a draining backend lingers until
    // it sees it, and nothing will be written on this fd again before
    // EnsureConnected replaces it.
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_WR);
  }
  if (!stopping_.load(std::memory_order_acquire)) {
    backend->up.store(false, std::memory_order_release);
    backend_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<TenantRouter::Slot> TenantRouter::ForwardToConn(
    Backend& backend, BackendConn& conn, const std::string& raw_line,
    std::int64_t line_no) {
  if (!backend.up.load(std::memory_order_acquire)) {
    lines_rejected_.fetch_add(1, std::memory_order_relaxed);
    return MakeCompletedSlot(
        line_no, ErrorLine("backend " + backend.address +
                               " is down (health check failed): "
                               "request rejected",
                           line_no));
  }
  if (Status s = EnsureConnected(backend, conn); !s.ok()) {
    lines_rejected_.fetch_add(1, std::memory_order_relaxed);
    return MakeCompletedSlot(line_no,
                             ErrorLine(JsonEscape(s.message()), line_no));
  }
  MutexLock wlock(conn.write_mutex);
  auto slot = std::make_shared<Slot>(line_no);
  int fd = -1;
  {
    MutexLock lock(conn.mutex);
    if (!conn.alive) {
      lines_rejected_.fetch_add(1, std::memory_order_relaxed);
      CompleteSlot(*slot, ErrorLine("backend " + backend.address +
                                        " connection lost: request rejected",
                                    line_no));
      return slot;
    }
    if (static_cast<std::int64_t>(conn.fifo.size()) >=
        options_.max_inflight) {
      // The same admission discipline the TCP tier applies to its
      // queues: bound the buffer, reject with a structured error.
      lines_rejected_.fetch_add(1, std::memory_order_relaxed);
      CompleteSlot(*slot,
                   ErrorLine("backend " + backend.address +
                                 " in-flight limit (" +
                                 std::to_string(options_.max_inflight) +
                                 " lines) reached: request rejected",
                             line_no));
      return slot;
    }
    conn.fifo.push_back(slot);
    fd = conn.fd;
  }
  // Send outside conn.mutex (the reader must keep popping while we
  // block on a full socket) but inside write_mutex (wire order == FIFO
  // order).
  std::string wire = raw_line;
  wire.push_back('\n');
  if (!SendAllFd(fd, wire)) {
    MutexLock lock(conn.mutex);
    // write_mutex is still held: our slot is the tail if the reader has
    // not already failed the whole FIFO.
    if (!conn.fifo.empty() && conn.fifo.back() == slot) {
      conn.fifo.pop_back();
    }
    CompleteSlot(*slot, ErrorLine("backend " + backend.address +
                                      " send failed: request not delivered",
                                  line_no));
    return slot;
  }
  lines_forwarded_.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

std::shared_ptr<TenantRouter::Slot> TenantRouter::ForwardLine(
    int backend_index, const std::string& tenant,
    const std::string& raw_line, std::int64_t line_no) {
  Backend& backend = *backends_[static_cast<std::size_t>(backend_index)];
  BackendConn& conn =
      *backend.conns[static_cast<std::size_t>(ConnIndexFor(tenant))];
  return ForwardToConn(backend, conn, raw_line, line_no);
}

bool TenantRouter::ProbeBackend(Backend& backend) {
  const int fd =
      DialTcp(backend.host, backend.port, options_.health_timeout_ms);
  if (fd < 0) return false;
  bool healthy = SendAllFd(fd, "stats\n");
  std::string line;
  if (healthy) {
    // Any one-line answer counts: the probe is a liveness check of the
    // serving loop, not a health grade of the registry behind it.
    healthy = ReadLineWithDeadline(fd, options_.health_timeout_ms, &line) &&
              !line.empty();
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  return healthy;
}

void TenantRouter::TearBackendConns(Backend& backend) {
  for (auto& conn : backend.conns) {
    MutexLock lock(conn->mutex);
    // Wakes the reader out of recv(); its exit path fails every
    // in-flight slot, so no front worker is left blocked in WaitSlot on
    // a backend that is still connected but no longer answering.
    if (conn->alive && conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void TenantRouter::CheckBackendsNow() {
  for (auto& backend : backends_) {
    const bool healthy = ProbeBackend(*backend);
    backend->up.store(healthy, std::memory_order_release);
    if (!healthy) {
      // A down backend may still hold forwarded-but-unanswered lines on
      // live connections (e.g. it wedged without closing). Tear them on
      // EVERY failed probe, not just the down transition: a forward can
      // race the probe and re-dial a half-dead backend, and the next
      // pass must fail those slots too.
      TearBackendConns(*backend);
    }
  }
}

void TenantRouter::ProberLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = prober_wake_[0];
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int r = ::poll(&pfd, 1, options_.health_interval_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r > 0) return;  // Stop() wrote the wake byte
    CheckBackendsNow();
  }
}

TenantRouterStats TenantRouter::Stats() const {
  TenantRouterStats stats;
  stats.backends = static_cast<std::int64_t>(backends_.size());
  for (const auto& backend : backends_) {
    if (backend->up.load(std::memory_order_acquire)) ++stats.backends_up;
    for (const auto& conn : backend->conns) {
      MutexLock lock(conn->mutex);
      stats.inflight += static_cast<std::int64_t>(conn->fifo.size());
    }
  }
  stats.pool_size = backends_.empty()
                        ? options_.pool_size
                        : static_cast<std::int64_t>(backends_[0]->conns.size());
  stats.max_inflight = options_.max_inflight;
  stats.lines_forwarded = lines_forwarded_.load(std::memory_order_relaxed);
  stats.lines_rejected = lines_rejected_.load(std::memory_order_relaxed);
  stats.backend_failures = backend_failures_.load(std::memory_order_relaxed);
  stats.migrations = migrations_.load(std::memory_order_relaxed);
  return stats;
}

void TenantRouter::PublishMetrics(obs::MetricsRegistry& m) const {
  const TenantRouterStats stats = Stats();
  m.GetCounter("nucleus_router_lines_forwarded_total")
      ->Set(stats.lines_forwarded);
  m.GetCounter("nucleus_router_lines_rejected_total")
      ->Set(stats.lines_rejected);
  m.GetCounter("nucleus_router_backend_failures_total")
      ->Set(stats.backend_failures);
  m.GetCounter("nucleus_router_migrations_total")->Set(stats.migrations);
  m.GetGauge("nucleus_router_backends_up")
      ->Set(static_cast<double>(stats.backends_up));
}

std::string TenantRouter::RouterStatsJson() const {
  const TenantRouterStats stats = Stats();
  std::string json;
  json += "\"backends\": " + std::to_string(stats.backends);
  json += ", \"backends_up\": " + std::to_string(stats.backends_up);
  json += ", \"pool_size\": " + std::to_string(stats.pool_size);
  json += ", \"max_inflight\": " + std::to_string(stats.max_inflight);
  json += ", \"inflight\": " + std::to_string(stats.inflight);
  json += ", \"lines_forwarded\": " + std::to_string(stats.lines_forwarded);
  json += ", \"lines_rejected\": " + std::to_string(stats.lines_rejected);
  json += ", \"backend_failures\": " + std::to_string(stats.backend_failures);
  json += ", \"migrations\": " + std::to_string(stats.migrations);
  return json;
}

std::string TenantRouter::FanOutAdmin(const std::string& raw_line,
                                      const std::string& query_name,
                                      std::int64_t line_no) {
  // Fan the verb to conn 0 of every up backend first (pipelined), then
  // await in order.
  std::vector<std::shared_ptr<Slot>> slots(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& backend = *backends_[i];
    if (!backend.up.load(std::memory_order_acquire)) continue;
    slots[i] = ForwardToConn(backend, *backend.conns[0], raw_line, line_no);
  }
  std::string json = "{\"query\": \"" + query_name + "\"";
  if (query_name == "stats") {
    json += ", \"router\": {" + RouterStatsJson() + "}";
    if (server_ != nullptr) json += ", \"server\": " + server_->StatsJson();
  } else if (query_name == "metrics") {
    // The router's own registry, in the single-process metrics schema,
    // after its owners publish into it.
    PublishMetrics(*metrics_);
    if (server_ != nullptr) server_->PublishMetrics(*metrics_);
    if (raw_line == "metrics text") {
      json += ", \"format\": \"text\", \"exposition\": \"" +
              JsonEscape(metrics_->ToPrometheusText()) + "\"";
    } else {
      json += ", " + metrics_->ToJsonBody();
    }
  }
  json += ", \"backends\": [";
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{\"backend\": \"" + JsonEscape(backends_[i]->address) + "\"";
    json += ", \"up\": ";
    json += slots[i] != nullptr ? "true" : "false";
    if (slots[i] != nullptr) {
      // The backend's whole response object, verbatim.
      json += ", \"response\": " + WaitSlot(*slots[i]);
    }
    json += "}";
  }
  json += "]}";
  return json;
}

std::string TenantRouter::Migrate(const std::string& tenant,
                                  const std::string& target_address,
                                  const std::vector<std::string>& spec_args,
                                  std::int64_t line_no) {
  int target = -1;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i]->address == target_address) {
      target = static_cast<int>(i);
      break;
    }
  }
  if (target < 0) {
    return ErrorLine(
        JsonEscape("migrate: unknown backend '" + target_address +
                   "' (expected one of the configured backend addresses)"),
        line_no);
  }
  const int source = BackendIndexFor(tenant);
  if (source == target) {
    return ErrorLine(JsonEscape("migrate: tenant '" + tenant +
                                "' is already routed to " + target_address),
                     line_no);
  }
  Backend& src = *backends_[static_cast<std::size_t>(source)];
  Backend& dst = *backends_[static_cast<std::size_t>(target)];
  if (!dst.up.load(std::memory_order_acquire)) {
    return ErrorLine(JsonEscape("migrate: target backend " + dst.address +
                                " is down"),
                     line_no);
  }

  // Resolve the spec BEFORE detaching, so a bad spec can never strand a
  // detached tenant.
  std::vector<std::string> args = spec_args;
  if (args.empty()) {
    ReaderLock lock(route_mutex_);
    const auto it = specs_.find(tenant);
    if (it != specs_.end()) args = it->second;
  }
  if (args.empty()) {
    return ErrorLine(
        JsonEscape("migrate: no recorded attach spec for tenant '" + tenant +
                   "' — attach it through the router first, or pass the "
                   "spec inline: migrate <tenant> <backend> snapshot=<path> "
                   "[deltas=<p1,p2>] [graph=<path>]"),
        line_no);
  }
  TenantSpec spec;
  spec.name = tenant;
  if (Status s = ParseTenantSpecArgs(args, "", &spec); !s.ok()) {
    return ErrorLine(JsonEscape("migrate: invalid spec: " + s.message()),
                     line_no);
  }

  const int conn_index = ConnIndexFor(tenant);
  // 1. Detach-persist on the source, through the tenant's pinned conn so
  // it lands behind every in-flight line of this tenant. A dirty live
  // tenant writes its pending delta batches and latest graph to disk and
  // names them in the response.
  auto detach_slot =
      ForwardToConn(src, *src.conns[static_cast<std::size_t>(conn_index)],
                    "detach " + tenant, line_no);
  const std::string detach_resp = WaitSlot(*detach_slot);
  if (IsErrorLine(detach_resp)) {
    std::string escaped;
    if (!ExtractEscapedField(detach_resp, "error", &escaped)) {
      escaped = "backend error";
    }
    return ErrorLine(JsonEscape("migrate " + tenant + ": detach on " +
                                src.address + " failed: ") +
                         escaped,
                     line_no);
  }
  const std::vector<std::string> persisted =
      ParsePersistedArray(detach_resp);

  // 2. Extend the spec with the persisted chain: pending deltas continue
  // the delta list, and the persisted graph replaces the original so the
  // target re-resolves to exactly the detached state.
  for (const std::string& path : persisted) {
    if (EndsWith(path, ".nucdelta")) {
      spec.delta_paths.push_back(path);
    } else {
      spec.graph_path = path;
    }
  }
  std::string attach_line = "attach " + tenant + " snapshot=" +
                            spec.snapshot_path;
  if (!spec.delta_paths.empty()) {
    attach_line += " deltas=";
    for (std::size_t i = 0; i < spec.delta_paths.size(); ++i) {
      if (i > 0) attach_line += ",";
      attach_line += spec.delta_paths[i];
    }
  }
  if (!spec.graph_path.empty()) attach_line += " graph=" + spec.graph_path;

  // 3. Attach on the target through the tenant's pinned conn there.
  auto attach_slot =
      ForwardToConn(dst, *dst.conns[static_cast<std::size_t>(conn_index)],
                    attach_line, line_no);
  const std::string attach_resp = WaitSlot(*attach_slot);
  if (IsErrorLine(attach_resp)) {
    // Best-effort rollback: re-attach the persisted state on the source
    // so the tenant is not stranded detached.
    auto rollback_slot =
        ForwardToConn(src, *src.conns[static_cast<std::size_t>(conn_index)],
                      attach_line, line_no);
    const bool rolled_back = !IsErrorLine(WaitSlot(*rollback_slot));
    std::string escaped;
    if (!ExtractEscapedField(attach_resp, "error", &escaped)) {
      escaped = "backend error";
    }
    return ErrorLine(
        JsonEscape("migrate " + tenant + ": attach on " + dst.address +
                   " failed (" +
                   (rolled_back
                        ? "tenant re-attached on " + src.address
                        : "tenant is now detached; re-attach manually") +
                   "): ") +
            escaped,
        line_no);
  }

  // 4. Flip the route and remember the extended spec for the next move.
  {
    WriterLock lock(route_mutex_);
    overrides_[tenant] = target;
    std::vector<std::string> new_args;
    new_args.push_back("snapshot=" + spec.snapshot_path);
    if (!spec.delta_paths.empty()) {
      std::string deltas = "deltas=";
      for (std::size_t i = 0; i < spec.delta_paths.size(); ++i) {
        if (i > 0) deltas += ",";
        deltas += spec.delta_paths[i];
      }
      new_args.push_back(deltas);
    }
    if (!spec.graph_path.empty()) {
      new_args.push_back("graph=" + spec.graph_path);
    }
    specs_[tenant] = std::move(new_args);
  }
  migrations_.fetch_add(1, std::memory_order_relaxed);
  return "{\"query\": \"migrate\", \"tenant\": \"" + JsonEscape(tenant) +
         "\", \"from\": \"" + JsonEscape(src.address) + "\", \"to\": \"" +
         JsonEscape(dst.address) +
         "\", \"persisted\": " + std::to_string(persisted.size()) +
         ", \"ok\": true}";
}

/// The front-connection protocol driver: parses each line, answers admin
/// verbs (merging backend responses where the verb fans out), forwards
/// routed lines raw to the tenant's pinned backend connection, and emits
/// responses strictly in input order.
class RouterHandler : public ConnectionHandler {
 public:
  RouterHandler(TenantRouter* router, std::ostream& out)
      : router_(router), out_(out) {}

  void ProcessLine(const std::string& line) override {
    ++line_no_;
    if (shutdown_) return;  // acknowledged; session ignores further input
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') return;
    HandleLine(line);
    if (pending_.size() >= kHandlerBatch) DrainPending();
  }

  void RejectLine(const Status& status) override {
    ++line_no_;
    if (shutdown_) return;
    pending_.push_back(TenantRouter::MakeCompletedSlot(
        line_no_, ErrorLine(JsonEscape(status.message()), line_no_)));
    // Same drain discipline as ProcessLine: a burst of back-pressure
    // rejects must not grow pending_ (or delay responses) unboundedly.
    if (pending_.size() >= kHandlerBatch) DrainPending();
  }

  void Flush() override {
    DrainPending();
    out_.flush();
  }

  void Finish() override {
    DrainPending();
    out_.flush();
  }

  bool shutdown_requested() const override { return shutdown_; }

 private:
  void Emit(std::string text) {
    pending_.push_back(TenantRouter::MakeCompletedSlot(line_no_, std::move(text)));
  }

  void DrainPending() {
    for (const std::shared_ptr<TenantRouter::Slot>& slot : pending_) {
      out_ << TenantRouter::WaitSlot(*slot) << "\n";
    }
    pending_.clear();
  }

  void HandleLine(const std::string& line) {
    // `migrate` is a router-only verb: the backends never see it, so it
    // is peeled off before the shared grammar.
    std::istringstream tokens(line);
    std::string head;
    tokens >> head;
    if (head == "migrate") {
      std::string tenant;
      std::string target;
      tokens >> tenant >> target;
      std::vector<std::string> spec_args;
      std::string arg;
      while (tokens >> arg) spec_args.push_back(arg);
      if (tenant.empty() || target.empty()) {
        Emit(ErrorLine(
            JsonEscape("migrate expects: migrate <tenant> <host:port> "
                       "[snapshot=<path> [deltas=<p1,p2>] [graph=<path>]]"),
            line_no_));
        return;
      }
      // A sequencing point like every admin verb: everything already
      // forwarded is answered before the move starts.
      DrainPending();
      Emit(router_->Migrate(tenant, target, spec_args, line_no_));
      return;
    }

    StatusOr<RoutedServeLine> parsed = ParseRoutedServeLine(line);
    if (!parsed.ok()) {
      Emit(ErrorLine(JsonEscape(parsed.status().message()), line_no_));
      return;
    }
    switch (parsed->admin) {
      case RoutedServeLine::Admin::kNone:
        break;
      case RoutedServeLine::Admin::kShutdown:
        // Drains the ROUTER's front; the backends keep serving (they
        // have their own shutdown verbs).
        shutdown_ = true;
        Emit("{\"query\": \"shutdown\", \"ok\": true}");
        return;
      case RoutedServeLine::Admin::kStats:
        DrainPending();
        Emit(router_->FanOutAdmin("stats", "stats", line_no_));
        return;
      case RoutedServeLine::Admin::kTenants:
        DrainPending();
        Emit(router_->FanOutAdmin("tenants", "tenants", line_no_));
        return;
      case RoutedServeLine::Admin::kMetrics: {
        DrainPending();
        const bool text = !parsed->admin_args.empty() &&
                          parsed->admin_args[0] == "text";
        Emit(router_->FanOutAdmin(text ? "metrics text" : "metrics",
                                  "metrics", line_no_));
        return;
      }
      case RoutedServeLine::Admin::kAttach: {
        // The shared parser defers attach validation to the backend,
        // but the tenant name IS the routing key — a bare `attach` has
        // no route, so answer with the backend's own arity error.
        if (parsed->admin_args.empty()) {
          Emit(ErrorLine(
              JsonEscape("'attach' expects: attach <name> snapshot=<path> "
                         "[deltas=<p1,p2>] [graph=<path>]"),
              line_no_));
          return;
        }
        // Synchronous: the spec is recorded only once the home backend
        // confirmed the attach.
        DrainPending();
        const std::string& tenant = parsed->admin_args[0];
        const int index = router_->BackendIndexFor(tenant);
        auto slot = router_->ForwardLine(index, tenant, line, line_no_);
        std::string response = TenantRouter::WaitSlot(*slot);
        if (!IsErrorLine(response)) {
          const std::vector<std::string> spec_args(
              parsed->admin_args.begin() + 1, parsed->admin_args.end());
          WriterLock lock(router_->route_mutex_);
          router_->specs_[tenant] = spec_args;
        }
        Emit(std::move(response));
        return;
      }
      case RoutedServeLine::Admin::kDetach: {
        DrainPending();
        const std::string& tenant = parsed->admin_args[0];
        const int index = router_->BackendIndexFor(tenant);
        auto slot = router_->ForwardLine(index, tenant, line, line_no_);
        std::string response = TenantRouter::WaitSlot(*slot);
        if (!IsErrorLine(response)) {
          // Clean slate: the tenant's next attach goes to its hash home.
          WriterLock lock(router_->route_mutex_);
          router_->specs_.erase(tenant);
          router_->overrides_.erase(tenant);
        }
        Emit(std::move(response));
        return;
      }
    }
    if (parsed->tenant.empty()) {
      Emit(ErrorLine(
          JsonEscape("the router serves routed lines (<tenant>:<verb> ...) "
                     "and admin verbs (attach | detach | tenants | stats | "
                     "metrics | migrate | shutdown); unrouted requests "
                     "need a direct `serve` session"),
          line_no_));
      return;
    }
    // A routed request: forward the RAW line — the backend's response
    // bytes are the client's response bytes.
    pending_.push_back(router_->ForwardLine(
        router_->BackendIndexFor(parsed->tenant), parsed->tenant, line,
        line_no_));
  }

  TenantRouter* const router_;
  std::ostream& out_;
  std::int64_t line_no_ = 0;
  bool shutdown_ = false;
  /// Response slots in input order; DrainPending awaits and emits them.
  std::vector<std::shared_ptr<TenantRouter::Slot>> pending_;
};

ConnectionHandlerFactory TenantRouter::HandlerFactory() {
  return [this](std::ostream& out) -> std::unique_ptr<ConnectionHandler> {
    return std::make_unique<RouterHandler>(this, out);
  };
}

}  // namespace nucleus
