// Line-oriented request/response protocol over a QueryEngine — the
// transport `nucleus_cli serve` speaks on stdin/stdout (or files), designed
// so a snapshot-backed process can be driven by anything that writes lines
// and reads JSON.
//
// Requests, one per line (blank lines and '#' comments are skipped).
// <u> and <v> are K_r ids of the snapshot's family — vertex ids for
// (1,2), EdgeIndex edge ids for (2,3), TriangleIndex triangle ids for
// (3,4); <node> is a hierarchy node id:
//
//   lambda <u>            peeling number of the K_r u
//   nucleus <u> <k>       the k-(r,s) nucleus containing u
//   common <u> <v>        smallest common nucleus of u and v
//   level <u> <v>         largest k with u, v in a common k-nucleus
//   top <k>               the k densest nuclei
//   members <node>        member K_r ids of one hierarchy node's subtree
//   update <u> <v> <+|->  insert (+) or remove (-) the undirected edge
//                         {u, v} and re-serve the edited graph — only on a
//                         (1,2) session started with the graph at hand
//                         (`serve --input`); requires a LiveUpdater
//
// Responses: exactly one JSON object per request line, in request order,
// e.g. {"query": "common", "u": 3, "v": 17, "found": true, "node": 5,
// "k": 4, "size": 128}. Malformed requests produce
// {"error": "<message>", "line": <n>} without stopping the loop.
//
// Requests are batched and answered concurrently over the shared
// ThreadPool; ordering is restored before emission, so output is
// byte-identical for every thread count. An `update` line is a
// sequencing point: the pending batch is flushed (answered against the
// pre-update state), the edit is applied synchronously, and every later
// line sees the edited graph — which keeps sessions with updates
// deterministic at any thread count and batch size too.
//
// ROUTED sessions (`nucleus_cli serve --registry`) extend the grammar to
// many tenants in one process. Every request line is prefixed with the
// tenant it routes to, and three unprefixed ADMIN verbs manage the
// registry itself:
//
//   <tenant>:<verb> <args...>     any verb above, routed — e.g.
//                                 `web:lambda 3`, `social:update 1 2 +`
//   attach <name> snapshot=<path> [deltas=<p1,p2>] [graph=<path>]
//                                 register + load a tenant (same key=value
//                                 grammar as the store/manifest.h format)
//   detach <name> [force]         unregister a tenant; a dirty live
//                                 tenant is persisted first (or the
//                                 detach refuses) unless `force` discards
//   tenants                       list attached tenants with stats
//   stats                         one JSON object: per-tenant TenantStats
//                                 plus registry / server counters
//   metrics [text]                the process-wide metrics registry as one
//                                 JSON tree; `metrics text` embeds the
//                                 Prometheus plain-text exposition instead
//                                 (works on every session shape)
//   shutdown                      acknowledge, then end the session (over
//                                 TCP: drain the whole server)
//
// The single-tenant contract holds PER TENANT: exactly one JSON object
// per request line, in input order, byte-identical at every thread count
// and batch size; successful responses carry no tenant field, so a
// tenant's slice of a routed transcript — its successfully parsed and
// resolved lines — is byte-identical to replaying those lines against a
// dedicated single-tenant session (error objects embed the GLOBAL line
// number of the routed session, so they diagnose the session they
// occurred in rather than matching a replay). Updates and admin verbs
// are global sequencing points. Resolution failures (unknown tenant,
// evicted tenant whose backing file went bad) are structured per-line
// JSON errors; the loop never stops and other tenants never notice.
#ifndef NUCLEUS_SERVE_REQUEST_LOOP_H_
#define NUCLEUS_SERVE_REQUEST_LOOP_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nucleus/core/incremental_core.h"
#include "nucleus/obs/metrics.h"
#include "nucleus/obs/trace.h"
#include "nucleus/parallel/parallel_config.h"
#include "nucleus/parallel/thread_pool.h"
#include "nucleus/serve/live_update.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/util/status.h"

namespace nucleus {

class SnapshotRegistry;
class TcpServer;

struct ServeOptions {
  ParallelConfig parallel;
  /// Lines read before a batch is dispatched to the pool.
  std::int64_t batch_size = 256;
  /// The TCP server running this session (non-owning; null on stdio):
  /// `stats` embeds its StatsJson() as the "server" field, and `metrics`
  /// publishes its counters before rendering.
  const TcpServer* server = nullptr;
  /// Sampled JSON-lines trace sink (parse -> queue-wait -> execute ->
  /// flush per request line); null = no tracing. The TCP tier shares one
  /// log across every connection worker. Traces never touch the response
  /// stream, so transcripts stay byte-identical with tracing on.
  std::shared_ptr<obs::TraceLog> trace_log;
  /// Metrics registry the session's instrumentation writes to; null =
  /// the process-global registry. Tests pass their own for isolation.
  obs::MetricsRegistry* metrics = nullptr;
};

struct ServeStats {
  std::int64_t requests = 0;
  std::int64_t errors = 0;   // parse failures + invalid queries/updates
  std::int64_t batches = 0;
  std::int64_t updates = 0;  // update lines applied
  std::int64_t admin = 0;    // admin verbs executed
};

/// One parsed protocol line: a query, or an edge update.
struct ServeRequest {
  bool is_update = false;
  QueryEngine::Query query;  // when !is_update
  EdgeEdit edit;             // when is_update
};

/// One parsed line of the ROUTED grammar: an admin verb, or a request
/// with its tenant prefix ("" = unrouted).
struct RoutedServeLine {
  enum class Admin : std::int32_t {
    kNone,
    kAttach,
    kDetach,
    kTenants,
    kStats,
    kMetrics,
    kShutdown,
  };
  std::string tenant;                  // empty = unrouted
  Admin admin = Admin::kNone;
  std::vector<std::string> admin_args; // raw tokens after the admin verb
  ServeRequest request;                // when admin == kNone
};

/// Parses one request line (any verb, including `update`). Strict:
/// unknown verbs, wrong arity and non-numeric / trailing-garbage
/// arguments all fail.
StatusOr<ServeRequest> ParseServeLine(const std::string& line);

/// Parses one line of the routed grammar: `tenant:verb args...`, an admin
/// verb, or an unrouted request line (tenant left empty — the session
/// decides whether unrouted lines are legal). Tenant names are validated
/// against the manifest charset; an empty tenant or verb around ':' is an
/// error.
StatusOr<RoutedServeLine> ParseRoutedServeLine(const std::string& line);

/// Parses one QUERY line; the `update` verb is rejected here (callers that
/// serve updates use ParseServeLine).
StatusOr<QueryEngine::Query> ParseRequestLine(const std::string& line);

/// Serializes one answered query as a single-line JSON object.
std::string ResponseToJson(const QueryEngine::Query& query,
                           const QueryEngine::Response& response);

/// Serializes one applied update as a single-line JSON object:
/// {"query": "update", "u": .., "v": .., "op": "+", "applied": true,
///  "touched": .., "max_lambda": ..}. `applied` is false for no-op edits
/// (inserting an existing edge, removing a missing one).
std::string UpdateToJson(const EdgeEdit& edit, const CoreDeltaReport& report);

/// One resolved serving surface: the engine (and optional updater) a
/// request line routes to. `pin` keeps whatever owns the pointers alive —
/// and, for registry tenants, pinned against eviction — for as long as
/// the session object is held; `on_update` (optional) tells the owner an
/// update batch was APPLIED (registry tenants become dirty/unevictable).
struct ServeSession {
  QueryEngine* engine = nullptr;
  LiveUpdater* updater = nullptr;       // null = read-only
  /// Called with each APPLIED batch's durable delta record, so the owner
  /// can both mark the state dirty and queue the record for persistence
  /// (registry tenants: a later Detach writes the queue out).
  std::function<void(const DeltaData&)> on_update;
  std::shared_ptr<void> pin;
};

/// Maps a tenant name ("" = unrouted line) to its serving surface. The
/// serve loop holds every session it resolved only for the duration of
/// one batch (a batch is pinned, a session is not cached across flushes),
/// and turns resolution failures into per-line JSON errors. This is the
/// seam the single-tenant wrappers and the registry loop share: the loop
/// itself no longer hard-binds one engine.
using ServeSessionResolver =
    std::function<StatusOr<ServeSession>(const std::string& tenant)>;

/// Push-driven core of the serve loop: one protocol session whose lines
/// arrive one call at a time instead of from a stream. This is the seam
/// the stream loops AND the TCP tier share — a connection worker feeds
/// socket lines to ProcessLine and the transport-level rejections
/// (admission-queue overflow, oversized line) to RejectLine, and the
/// session stays byte-identical to the same lines served over stdio.
///
/// Lines are numbered in arrival order (ProcessLine and RejectLine both
/// advance the counter, so rejection errors carry the right "line"
/// field). Batching follows options.batch_size exactly like the stream
/// loop; Flush() additionally forces the pending batch out early —
/// content is batch-invariant, so transports flush whenever input runs
/// dry to keep interactive latency bounded. After a `shutdown` verb
/// (shutdown_requested()) further lines are ignored, mirroring the
/// stream loop, which stops reading. Not thread-safe; one processor per
/// session.
class RequestProcessor {
 public:
  RequestProcessor(ServeSessionResolver resolver, SnapshotRegistry* registry,
                   std::ostream& out, const ServeOptions& options = {});
  ~RequestProcessor();

  RequestProcessor(const RequestProcessor&) = delete;
  RequestProcessor& operator=(const RequestProcessor&) = delete;

  /// Feeds one protocol line (without its trailing newline).
  void ProcessLine(const std::string& line);
  /// Counts one line WITHOUT processing its text and answers it with
  /// `status` as a structured error — the back-pressure path.
  void RejectLine(const Status& status);
  /// Runs and emits the pending batch now, and flushes `out`.
  void Flush();
  /// Final Flush at end of session.
  void Finish();

  bool shutdown_requested() const { return shutdown_; }
  const ServeStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One pending request line. `group` indexes the per-tenant batch the
  /// query joined; parse/resolve failures carry the error instead. The
  /// timing fields feed the latency histograms and trace spans; they are
  /// only populated when instrumentation is live (see timing_live()).
  struct Item {
    std::int64_t line_no = 0;
    Status error;
    std::size_t group = 0;
    std::int64_t query_index = -1;
    const char* verb = "";       // metrics/trace label; "" for error lines
    std::int64_t parse_us = 0;
    Clock::time_point ready{};   // parsed and queued, awaiting its batch
  };
  /// One tenant's slice of the pending batch. Holding the session here is
  /// the pin: the engine cannot be evicted (or die under a Detach) while
  /// its slice is waiting to run.
  struct VerbMetrics {
    obs::Counter* requests = nullptr;
    obs::Histogram* latency = nullptr;
  };
  struct TenantMetrics {
    std::array<VerbMetrics, 8> by_verb{};  // indexed by QueryKind
  };
  struct Group {
    ServeSession session;
    std::vector<QueryEngine::Query> queries;
    std::string tenant;
    TenantMetrics* metrics = nullptr;   // owned by tenant_metrics_
    std::int64_t exec_us = 0;           // this slice's RunBatch wall time
    Clock::time_point exec_start{};
  };
  /// True when per-line clocks must run: tracing is on, or metrics are
  /// globally enabled. With both off, ProcessLine takes zero clock reads.
  bool timing_live() const {
    return options_.trace_log != nullptr || obs::MetricsEnabled();
  }

  void EmitError(const Status& status, std::int64_t line);
  void FlushBatch();
  StatusOr<std::size_t> GroupFor(const std::string& tenant);
  Status ApplyUpdate(const std::string& tenant, const EdgeEdit& edit);
  Status RunAdmin(const RoutedServeLine& parsed);
  void PublishScrapeMetrics();
  /// Records one span for a line answered inline (admin / update / the
  /// sequencing-point paths), where exec is the verb body itself.
  void TraceInline(const char* verb, const std::string& tenant, bool error,
                   std::int64_t parse_us, std::int64_t exec_us);

  const ServeSessionResolver resolver_;
  SnapshotRegistry* const registry_;
  std::ostream& out_;
  const ServeOptions options_;
  ThreadPool pool_;
  const std::int64_t batch_size_;
  obs::MetricsRegistry* const metrics_;
  obs::Counter* const parse_errors_;
  obs::Counter* const resolve_errors_;
  obs::Counter* const query_errors_;
  obs::Counter* const update_errors_;
  obs::Counter* const admin_errors_;
  obs::Counter* const reject_errors_;
  ServeStats stats_;
  std::vector<Item> items_;
  std::vector<Group> groups_;
  std::map<std::string, std::size_t> group_of_tenant_;
  std::map<std::string, TenantMetrics> tenant_metrics_;
  std::int64_t line_no_ = 0;
  bool shutdown_ = false;
};

/// The resolver behind single-snapshot sessions: unrouted lines bind to
/// `engine` (+ optional `updater`); routed lines are errors pointing at
/// --registry. Both referents must outlive the resolver. Shared by
/// ServeRequests and the TCP tier's single-snapshot mode.
ServeSessionResolver MakeEngineResolver(QueryEngine& engine,
                                        LiveUpdater* updater);

/// The resolver behind routed multi-tenant sessions: tenant names resolve
/// through SnapshotRegistry::Acquire (the lease is the batch pin; applied
/// updates are marked + queued for persistence on the lease), unrouted
/// lines are errors. `registry` must outlive the resolver. Shared by
/// ServeRegistryRequests and the TCP tier's registry mode.
ServeSessionResolver MakeRegistryResolver(SnapshotRegistry& registry);

/// Core loop: reads request lines from `in` until EOF (or a `shutdown`
/// verb), answers them on `out` (one JSON line each, input order),
/// resolving every line's tenant through `resolver` and batching per
/// tenant over a ThreadPool sized by `options.parallel`. Admin verbs
/// require a non-null `registry`; without one they are answered with
/// error objects.
ServeStats ServeResolvedRequests(const ServeSessionResolver& resolver,
                                 SnapshotRegistry* registry,
                                 std::istream& in, std::ostream& out,
                                 const ServeOptions& options = {});

/// Single-tenant session over one engine (unrouted lines only; routed
/// lines are answered with an error object pointing at --registry). With
/// a non-null `updater` the session is mutable: `update` lines go through
/// the updater and swap the engine's state; with a null `updater` they
/// are answered with an error object.
ServeStats ServeRequests(QueryEngine& engine, LiveUpdater* updater,
                         std::istream& in, std::ostream& out,
                         const ServeOptions& options = {});

/// Read-only session (no update support) over a const engine.
ServeStats ServeRequests(const QueryEngine& engine, std::istream& in,
                         std::ostream& out, const ServeOptions& options = {});

/// Routed multi-tenant session over a registry: `tenant:verb` lines
/// resolve through SnapshotRegistry::Acquire (pinned per batch, lazily
/// re-loaded after eviction), admin verbs mutate the registry, and
/// unrouted request lines are errors.
ServeStats ServeRegistryRequests(SnapshotRegistry& registry,
                                 std::istream& in, std::ostream& out,
                                 const ServeOptions& options = {});

}  // namespace nucleus

#endif  // NUCLEUS_SERVE_REQUEST_LOOP_H_
