#include "nucleus/serve/request_loop.h"

#include <chrono>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "nucleus/io/hierarchy_export.h"
#include "nucleus/serve/net/tcp_server.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/manifest.h"
#include "nucleus/util/mutex.h"
#include "nucleus/util/parse_util.h"

namespace nucleus {
namespace {

using ProcessorClock = std::chrono::steady_clock;

std::int64_t DurationUs(ProcessorClock::time_point from,
                        ProcessorClock::time_point to) {
  const std::int64_t us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us >= 0 ? us : 0;
}

const char* VerbName(QueryEngine::QueryKind kind) {
  switch (kind) {
    case QueryEngine::QueryKind::kLambda: return "lambda";
    case QueryEngine::QueryKind::kNucleus: return "nucleus";
    case QueryEngine::QueryKind::kCommon: return "common";
    case QueryEngine::QueryKind::kLevel: return "level";
    case QueryEngine::QueryKind::kTop: return "top";
    case QueryEngine::QueryKind::kMembers: return "members";
  }
  return "unknown";
}

const char* AdminVerbName(RoutedServeLine::Admin admin) {
  switch (admin) {
    case RoutedServeLine::Admin::kAttach: return "attach";
    case RoutedServeLine::Admin::kDetach: return "detach";
    case RoutedServeLine::Admin::kTenants: return "tenants";
    case RoutedServeLine::Admin::kStats: return "stats";
    case RoutedServeLine::Admin::kMetrics: return "metrics";
    case RoutedServeLine::Admin::kShutdown: return "shutdown";
    case RoutedServeLine::Admin::kNone: break;
  }
  return "none";
}

void AppendRef(std::ostringstream& out, const QueryEngine::NucleusRef& ref) {
  out << "\"node\": " << ref.node << ", \"k\": " << ref.k
      << ", \"size\": " << ref.size;
}

/// Whitespace-split tokens of one request line. NUL and other control
/// bytes are not whitespace, so they stay inside tokens and travel into
/// (JSON-escaped) error messages rather than confusing the tokenizer.
std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> tokens;
  for (std::string token; stream >> token;) tokens.push_back(token);
  return tokens;
}

/// Parses one already-tokenized request (verb + argument tokens). The
/// shared tail of ParseServeLine (unrouted) and ParseRoutedServeLine.
StatusOr<ServeRequest> ParseServeVerb(const std::string& verb,
                                      const std::vector<std::string>& args) {
  ServeRequest request;
  if (verb == "update") {
    if (args.size() != 3 || (args[2] != "+" && args[2] != "-")) {
      return Status::InvalidArgument(
          "'update' expects: update <u> <v> <+|->");
    }
    std::int64_t u = 0;
    std::int64_t v = 0;
    if (!StrictParseInt64(args[0], &u) || !StrictParseInt64(args[1], &v) ||
        u < 0 || v < 0 || u > 2147483647 || v > 2147483647) {
      return Status::InvalidArgument(
          "'update' expects non-negative integer vertex ids");
    }
    request.is_update = true;
    request.edit.u = static_cast<VertexId>(u);
    request.edit.v = static_cast<VertexId>(v);
    request.edit.op =
        args[2] == "+" ? EdgeEditOp::kInsert : EdgeEditOp::kRemove;
    return request;
  }

  QueryEngine::Query query;
  int arity = 0;
  if (verb == "lambda") {
    query.kind = QueryEngine::QueryKind::kLambda;
    arity = 1;
  } else if (verb == "nucleus") {
    query.kind = QueryEngine::QueryKind::kNucleus;
    arity = 2;
  } else if (verb == "common") {
    query.kind = QueryEngine::QueryKind::kCommon;
    arity = 2;
  } else if (verb == "level") {
    query.kind = QueryEngine::QueryKind::kLevel;
    arity = 2;
  } else if (verb == "top") {
    query.kind = QueryEngine::QueryKind::kTop;
    arity = 1;
  } else if (verb == "members") {
    query.kind = QueryEngine::QueryKind::kMembers;
    arity = 1;
  } else {
    return Status::InvalidArgument("unknown request '" + TruncateForEcho(verb) +
                                   "' (lambda | nucleus | common | level | "
                                   "top | members | update)");
  }
  if (static_cast<int>(args.size()) != arity) {
    return Status::InvalidArgument("'" + verb + "' expects " +
                                   std::to_string(arity) + " argument(s)");
  }
  if (!StrictParseInt64(args[0], &query.a) ||
      (arity == 2 && !StrictParseInt64(args[1], &query.b))) {
    return Status::InvalidArgument("'" + verb +
                                   "' expects integer arguments");
  }
  request.query = query;
  return request;
}

}  // namespace

StatusOr<ServeRequest> ParseServeLine(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  return ParseServeVerb(
      tokens[0], std::vector<std::string>(tokens.begin() + 1, tokens.end()));
}

StatusOr<RoutedServeLine> ParseRoutedServeLine(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  RoutedServeLine parsed;
  const std::string& head = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (head == "attach") {
    parsed.admin = RoutedServeLine::Admin::kAttach;
    parsed.admin_args = args;
    return parsed;
  }
  if (head == "detach") {
    if (args.empty() || args.size() > 2 ||
        (args.size() == 2 && args[1] != "force")) {
      return Status::InvalidArgument(
          "'detach' expects: detach <tenant> [force]");
    }
    parsed.admin = RoutedServeLine::Admin::kDetach;
    parsed.admin_args = args;
    return parsed;
  }
  if (head == "tenants") {
    if (!args.empty()) {
      return Status::InvalidArgument("'tenants' takes no arguments");
    }
    parsed.admin = RoutedServeLine::Admin::kTenants;
    return parsed;
  }
  if (head == "stats") {
    if (!args.empty()) {
      return Status::InvalidArgument("'stats' takes no arguments");
    }
    parsed.admin = RoutedServeLine::Admin::kStats;
    return parsed;
  }
  if (head == "metrics") {
    if (!(args.empty() || (args.size() == 1 && args[0] == "text"))) {
      return Status::InvalidArgument("'metrics' expects: metrics [text]");
    }
    parsed.admin = RoutedServeLine::Admin::kMetrics;
    parsed.admin_args = args;
    return parsed;
  }
  if (head == "shutdown") {
    if (!args.empty()) {
      return Status::InvalidArgument("'shutdown' takes no arguments");
    }
    parsed.admin = RoutedServeLine::Admin::kShutdown;
    return parsed;
  }

  std::string verb = head;
  const std::size_t colon = head.find(':');
  if (colon != std::string::npos) {
    parsed.tenant = head.substr(0, colon);
    verb = head.substr(colon + 1);
    if (!ValidTenantName(parsed.tenant)) {
      return Status::InvalidArgument(
          "invalid tenant name '" + TruncateForEcho(parsed.tenant) +
          "' before ':' (1-64 characters from [A-Za-z0-9_.-])");
    }
    if (verb.empty()) {
      return Status::InvalidArgument("missing verb after '" + parsed.tenant +
                                     ":'");
    }
  }
  StatusOr<ServeRequest> request = ParseServeVerb(verb, args);
  if (!request.ok()) return request.status();
  parsed.request = *request;
  return parsed;
}

StatusOr<QueryEngine::Query> ParseRequestLine(const std::string& line) {
  StatusOr<ServeRequest> request = ParseServeLine(line);
  if (!request.ok()) return request.status();
  if (request->is_update) {
    return Status::InvalidArgument(
        "'update' is not a query (serve sessions accept it only with a "
        "live updater)");
  }
  return request->query;
}

std::string ResponseToJson(const QueryEngine::Query& query,
                           const QueryEngine::Response& response) {
  std::ostringstream out;
  if (!response.status.ok()) {
    out << "{\"error\": \"" << JsonEscape(response.status.message())
        << "\"}";
    return out.str();
  }
  switch (query.kind) {
    case QueryEngine::QueryKind::kLambda:
      out << "{\"query\": \"lambda\", \"u\": " << query.a
          << ", \"lambda\": " << response.lambda << "}";
      break;
    case QueryEngine::QueryKind::kNucleus:
      out << "{\"query\": \"nucleus\", \"u\": " << query.a
          << ", \"k\": " << query.b
          << ", \"found\": " << (response.found ? "true" : "false");
      if (response.found) {
        // node_k >= the requested k: the smallest lambda on u's ancestor
        // chain that still clears the bar.
        out << ", \"node\": " << response.nucleus.node
            << ", \"node_k\": " << response.nucleus.k
            << ", \"size\": " << response.nucleus.size;
      }
      out << "}";
      break;
    case QueryEngine::QueryKind::kCommon:
      out << "{\"query\": \"common\", \"u\": " << query.a
          << ", \"v\": " << query.b
          << ", \"found\": " << (response.found ? "true" : "false");
      if (response.found) {
        out << ", ";
        AppendRef(out, response.nucleus);
      }
      out << "}";
      break;
    case QueryEngine::QueryKind::kLevel:
      out << "{\"query\": \"level\", \"u\": " << query.a
          << ", \"v\": " << query.b << ", \"level\": " << response.lambda
          << "}";
      break;
    case QueryEngine::QueryKind::kTop: {
      out << "{\"query\": \"top\", \"count\": " << response.top.size()
          << ", \"nuclei\": [";
      for (std::size_t i = 0; i < response.top.size(); ++i) {
        if (i > 0) out << ", ";
        out << "{";
        AppendRef(out, response.top[i]);
        out << "}";
      }
      out << "]}";
      break;
    }
    case QueryEngine::QueryKind::kMembers: {
      out << "{\"query\": \"members\", ";
      AppendRef(out, response.nucleus);
      out << ", \"members\": [";
      const auto& members = *response.members;
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out << ", ";
        out << members[i];
      }
      out << "]}";
      break;
    }
  }
  return out.str();
}

std::string UpdateToJson(const EdgeEdit& edit,
                         const CoreDeltaReport& report) {
  std::ostringstream out;
  out << "{\"query\": \"update\", \"u\": " << edit.u
      << ", \"v\": " << edit.v << ", \"op\": \""
      << (edit.op == EdgeEditOp::kInsert ? "+" : "-")
      << "\", \"applied\": " << (report.applied > 0 ? "true" : "false")
      << ", \"touched\": " << report.touched.size()
      << ", \"max_lambda\": " << report.max_lambda << "}";
  return out.str();
}

RequestProcessor::RequestProcessor(ServeSessionResolver resolver,
                                   SnapshotRegistry* registry,
                                   std::ostream& out,
                                   const ServeOptions& options)
    : resolver_(std::move(resolver)),
      registry_(registry),
      out_(out),
      options_(options),
      pool_(options.parallel),
      batch_size_(options.batch_size >= 1 ? options.batch_size : 1),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &obs::MetricsRegistry::Global()),
      parse_errors_(
          metrics_->GetCounter("nucleus_serve_errors_total", "", "parse")),
      resolve_errors_(
          metrics_->GetCounter("nucleus_serve_errors_total", "", "resolve")),
      query_errors_(
          metrics_->GetCounter("nucleus_serve_errors_total", "", "query")),
      update_errors_(
          metrics_->GetCounter("nucleus_serve_errors_total", "", "update")),
      admin_errors_(
          metrics_->GetCounter("nucleus_serve_errors_total", "", "admin")),
      reject_errors_(
          metrics_->GetCounter("nucleus_serve_errors_total", "", "reject")) {}

RequestProcessor::~RequestProcessor() = default;

void RequestProcessor::EmitError(const Status& status, std::int64_t line) {
  out_ << "{\"error\": \"" << JsonEscape(status.message())
       << "\", \"line\": " << line << "}\n";
  ++stats_.errors;
}

void RequestProcessor::FlushBatch() {
  if (items_.empty()) return;
  ++stats_.batches;
  const bool timing = timing_live();
  // Per-tenant sub-batches run back to back; each one is parallel over
  // the pool and order-deterministic on its own, and emission below is
  // by input order, so the interleaving is thread-count-invariant.
  std::vector<std::vector<QueryEngine::Response>> responses(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (timing) groups_[g].exec_start = Clock::now();
    responses[g] = groups_[g].session.engine->RunBatch(groups_[g].queries,
                                                       pool_);
    if (timing) {
      groups_[g].exec_us = DurationUs(groups_[g].exec_start, Clock::now());
    }
  }
  const Clock::time_point emit_start =
      timing ? Clock::now() : Clock::time_point{};
  for (const Item& item : items_) {
    if (!item.error.ok()) {
      EmitError(item.error, item.line_no);
      continue;
    }
    const QueryEngine::Response& response =
        responses[item.group][static_cast<std::size_t>(item.query_index)];
    if (!response.status.ok()) {
      ++stats_.errors;
      query_errors_->Increment();
    }
    const QueryEngine::Query& query =
        groups_[item.group]
            .queries[static_cast<std::size_t>(item.query_index)];
    out_ << ResponseToJson(query, response) << "\n";
  }
  // Instrumentation pass, entirely after emission so no clock read or
  // histogram update sits between two response writes. exec/flush are
  // batch-level durations attributed to every line of the batch.
  if (timing) {
    const std::int64_t flush_us = DurationUs(emit_start, Clock::now());
    const bool enabled = obs::MetricsEnabled();
    for (const Item& item : items_) {
      std::int64_t queue_us = 0;
      std::int64_t exec_us = 0;
      bool is_error = !item.error.ok();
      const std::string* tenant = nullptr;
      if (!is_error) {
        Group& group = groups_[item.group];
        tenant = &group.tenant;
        queue_us = DurationUs(item.ready, group.exec_start);
        exec_us = group.exec_us;
        const QueryEngine::Query& query =
            groups_[item.group]
                .queries[static_cast<std::size_t>(item.query_index)];
        is_error = !responses[item.group]
                        [static_cast<std::size_t>(item.query_index)]
                            .status.ok();
        if (enabled) {
          VerbMetrics& vm =
              group.metrics->by_verb[static_cast<int>(query.kind)];
          if (vm.requests == nullptr) {
            vm.requests = metrics_->GetCounter("nucleus_serve_requests_total",
                                               group.tenant, item.verb);
            vm.latency = metrics_->GetHistogram(
                "nucleus_serve_request_latency_us", group.tenant, item.verb);
          }
          vm.requests->Increment();
          vm.latency->Observe(item.parse_us + queue_us + exec_us + flush_us);
        }
      } else {
        queue_us = DurationUs(item.ready, emit_start);
      }
      if (options_.trace_log) {
        obs::TraceSpan span;
        span.line = item.line_no;
        if (tenant != nullptr) span.tenant = *tenant;
        span.verb = item.verb;
        span.error = is_error;
        span.parse_us = item.parse_us;
        span.queue_us = queue_us;
        span.exec_us = exec_us;
        span.flush_us = flush_us;
        options_.trace_log->Record(span);
      }
    }
  }
  items_.clear();
  groups_.clear();  // releases every pin
  group_of_tenant_.clear();
}

StatusOr<std::size_t> RequestProcessor::GroupFor(const std::string& tenant) {
  const auto it = group_of_tenant_.find(tenant);
  if (it != group_of_tenant_.end()) return it->second;
  StatusOr<ServeSession> session = resolver_(tenant);
  if (!session.ok()) return session.status();
  Group group;
  group.session = std::move(*session);
  group.tenant = tenant;
  group.metrics = &tenant_metrics_[tenant];
  groups_.push_back(std::move(group));
  const std::size_t index = groups_.size() - 1;
  group_of_tenant_.emplace(tenant, index);
  return index;
}

// An update is a sequencing point: everything before it answers on the
// pre-update state, everything after on the post-update state, so the
// output is deterministic at any thread count / batch size.
Status RequestProcessor::ApplyUpdate(const std::string& tenant,
                                     const EdgeEdit& edit) {
  StatusOr<ServeSession> session = resolver_(tenant);
  if (!session.ok()) return session.status();
  if (session->updater == nullptr) {
    return Status::InvalidArgument(
        "updates are not enabled on this session (serve with --input "
        "<graph>, or give the tenant graph= in its spec)");
  }
  // One updater can be shared by many sessions (TCP connections on a
  // single-engine server, or concurrent leases of one registry tenant).
  // The whole apply sequence — maintainer mutation, engine swap, dirty
  // marking — runs under the updater's mutex so concurrent updates
  // serialize and the delta chain and the served state advance in the
  // same order everywhere.
  MutexLock apply_lock(session->updater->apply_mutex());
  StatusOr<LiveUpdater::Result> result =
      session->updater->Apply(std::span<const EdgeEdit>(&edit, 1));
  if (!result.ok()) return result.status();
  // A skipped no-op (duplicate insert / missing removal) left the graph
  // untouched: keep serving the current state — no swap, no epoch bump,
  // the member cache stays warm, the tenant stays clean (evictable).
  if (result->changed) {
    if (Status s = session->engine->ApplyUpdate(std::move(result->snapshot));
        !s.ok()) {
      return s;
    }
    if (session->on_update) session->on_update(result->delta);
  }
  ++stats_.updates;
  out_ << UpdateToJson(edit, result->report) << "\n";
  return Status::Ok();
}

void RequestProcessor::PublishScrapeMetrics() {
  if (!obs::MetricsEnabled()) return;
  if (registry_ != nullptr) PublishRegistryMetrics(*registry_, *metrics_);
  if (options_.server != nullptr) options_.server->PublishMetrics(*metrics_);
}

void RequestProcessor::TraceInline(const char* verb,
                                   const std::string& tenant, bool error,
                                   std::int64_t parse_us,
                                   std::int64_t exec_us) {
  if (!options_.trace_log) return;
  obs::TraceSpan span;
  span.line = line_no_;
  span.tenant = tenant;
  span.verb = verb;
  span.error = error;
  span.parse_us = parse_us;
  span.exec_us = exec_us;
  options_.trace_log->Record(span);
}

Status RequestProcessor::RunAdmin(const RoutedServeLine& parsed) {
  // `shutdown` works on every session shape — a single-tenant TCP
  // connection must be able to drain its server too.
  if (parsed.admin == RoutedServeLine::Admin::kShutdown) {
    ++stats_.admin;
    shutdown_ = true;
    out_ << "{\"query\": \"shutdown\", \"ok\": true}\n";
    return Status::Ok();
  }
  // `metrics` reads the process-wide registry, so it too works on every
  // session shape. The counts and gauges whose owners keep them (the
  // snapshot registry's per-tenant state, the TCP server's counters) are
  // published into it first.
  if (parsed.admin == RoutedServeLine::Admin::kMetrics) {
    ++stats_.admin;
    PublishScrapeMetrics();
    if (!parsed.admin_args.empty()) {
      // `metrics text`: the Prometheus exposition, carried inside the
      // one-JSON-object-per-line protocol as an escaped string.
      out_ << "{\"query\": \"metrics\", \"format\": \"text\", "
              "\"exposition\": \""
           << JsonEscape(metrics_->ToPrometheusText()) << "\"}\n";
    } else {
      out_ << "{\"query\": \"metrics\", " << metrics_->ToJsonBody()
           << "}\n";
    }
    return Status::Ok();
  }
  if (registry_ == nullptr) {
    return Status::InvalidArgument(
        "admin verbs (attach | detach | tenants | stats) require a "
        "registry session (serve --registry)");
  }
  switch (parsed.admin) {
    case RoutedServeLine::Admin::kAttach: {
      if (parsed.admin_args.empty()) {
        return Status::InvalidArgument(
            "'attach' expects: attach <name> snapshot=<path> "
            "[deltas=<p1,p2>] [graph=<path>]");
      }
      TenantSpec spec;
      spec.name = parsed.admin_args[0];
      const std::vector<std::string> args(parsed.admin_args.begin() + 1,
                                          parsed.admin_args.end());
      if (Status s = ParseTenantSpecArgs(args, "", &spec); !s.ok()) {
        return s;
      }
      if (Status s = registry_->Attach(spec); !s.ok()) return s;
      ++stats_.admin;
      out_ << "{\"query\": \"attach\", \"tenant\": \""
           << JsonEscape(spec.name) << "\", \"ok\": true}\n";
      return Status::Ok();
    }
    case RoutedServeLine::Admin::kDetach: {
      const bool force =
          parsed.admin_args.size() == 2 && parsed.admin_args[1] == "force";
      std::vector<std::string> persisted;
      if (Status s = registry_->Detach(parsed.admin_args[0], force,
                                       &persisted);
          !s.ok()) {
        return s;
      }
      ++stats_.admin;
      out_ << "{\"query\": \"detach\", \"tenant\": \""
           << JsonEscape(parsed.admin_args[0]) << "\", \"ok\": true";
      if (force) out_ << ", \"forced\": true";
      if (!persisted.empty()) {
        // A dirty tenant's pending state was written out; name the files
        // so the operator can re-attach (or archive) the exact state.
        out_ << ", \"persisted\": [";
        for (std::size_t i = 0; i < persisted.size(); ++i) {
          if (i > 0) out_ << ", ";
          out_ << "\"" << JsonEscape(persisted[i]) << "\"";
        }
        out_ << "]";
      }
      out_ << "}\n";
      return Status::Ok();
    }
    case RoutedServeLine::Admin::kTenants: {
      ++stats_.admin;
      const std::vector<std::string> names = registry_->TenantNames();
      out_ << "{\"query\": \"tenants\", \"count\": " << names.size()
           << ", \"tenants\": [";
      bool first = true;
      for (const std::string& name : names) {
        const StatusOr<TenantStats> tenant_stats = registry_->Stats(name);
        if (!tenant_stats.ok()) continue;  // detached between calls
        if (!first) out_ << ", ";
        first = false;
        out_ << "{\"name\": \"" << JsonEscape(name) << "\", \"resident\": "
             << (tenant_stats->resident ? "true" : "false")
             << ", \"live\": " << (tenant_stats->live ? "true" : "false")
             << ", \"dirty\": " << (tenant_stats->dirty ? "true" : "false")
             << ", \"loads\": " << tenant_stats->loads
             << ", \"evictions\": " << tenant_stats->evictions
             << ", \"hits\": " << tenant_stats->hits
             << ", \"updates\": " << tenant_stats->updates
             << ", \"resident_bytes\": " << tenant_stats->resident_bytes
             << "}";
      }
      out_ << "]}\n";
      return Status::Ok();
    }
    case RoutedServeLine::Admin::kStats: {
      ++stats_.admin;
      const RegistrySummary summary = registry_->Summary();
      out_ << "{\"query\": \"stats\", \"tenants\": [";
      bool first = true;
      for (const std::string& name : registry_->TenantNames()) {
        const StatusOr<TenantStats> tenant_stats = registry_->Stats(name);
        if (!tenant_stats.ok()) continue;  // detached between calls
        if (!first) out_ << ", ";
        first = false;
        out_ << "{\"name\": \"" << JsonEscape(name) << "\", \"resident\": "
             << (tenant_stats->resident ? "true" : "false")
             << ", \"live\": " << (tenant_stats->live ? "true" : "false")
             << ", \"dirty\": " << (tenant_stats->dirty ? "true" : "false")
             << ", \"loads\": " << tenant_stats->loads
             << ", \"evictions\": " << tenant_stats->evictions
             << ", \"hits\": " << tenant_stats->hits
             << ", \"updates\": " << tenant_stats->updates
             << ", \"pins\": " << tenant_stats->pins
             << ", \"resident_bytes\": " << tenant_stats->resident_bytes
             << ", \"heap_bytes\": " << tenant_stats->heap_bytes
             << ", \"mapped_bytes\": " << tenant_stats->mapped_bytes
             << ", \"cache\": {\"hits\": " << tenant_stats->cache.hits
             << ", \"misses\": " << tenant_stats->cache.misses
             << ", \"evictions\": " << tenant_stats->cache.evictions
             << ", \"entries\": " << tenant_stats->cache.entries
             << ", \"bytes\": " << tenant_stats->cache.bytes << "}}";
      }
      out_ << "], \"registry\": {\"tenants\": " << summary.tenants
           << ", \"resident_bytes\": " << summary.resident_bytes
           << ", \"mapped_bytes\": " << summary.mapped_bytes
           << ", \"budget_bytes\": " << summary.budget_bytes
           << ", \"detaches\": " << summary.detaches
           << ", \"detached_cache\": {\"hits\": "
           << summary.detached_cache.hits
           << ", \"misses\": " << summary.detached_cache.misses
           << ", \"evictions\": " << summary.detached_cache.evictions
           << "}}";
      if (options_.server != nullptr) {
        out_ << ", \"server\": " << options_.server->StatsJson();
      }
      out_ << "}\n";
      return Status::Ok();
    }
    case RoutedServeLine::Admin::kMetrics:
    case RoutedServeLine::Admin::kShutdown:
    case RoutedServeLine::Admin::kNone:
      break;
  }
  return Status::Internal("unreachable admin verb");
}

void RequestProcessor::ProcessLine(const std::string& line) {
  ++line_no_;
  // After an acknowledged shutdown the session ignores further input —
  // the stream loop stops reading; a socket worker drains its queue
  // without answering (the client asked the server to go away).
  if (shutdown_) return;
  const std::size_t start = line.find_first_not_of(" \t\r");
  if (start == std::string::npos || line[start] == '#') return;

  ++stats_.requests;
  const bool timing = timing_live();
  const Clock::time_point t0 = timing ? Clock::now() : Clock::time_point{};
  StatusOr<RoutedServeLine> parsed = ParseRoutedServeLine(line);
  Clock::time_point parsed_at{};
  std::int64_t parse_us = 0;
  if (timing) {
    // The parse/queue split is only visible in trace records; with
    // metrics alone the latency histogram needs just the t0->flush
    // total, so parse time folds into queue_us and this path costs one
    // clock read per line instead of two.
    if (options_.trace_log != nullptr) {
      parsed_at = Clock::now();
      parse_us = DurationUs(t0, parsed_at);
    } else {
      parsed_at = t0;
    }
  }
  if (!parsed.ok()) {
    parse_errors_->Increment();
    Item item;
    item.line_no = line_no_;
    item.error = parsed.status();
    item.verb = "error";
    item.parse_us = parse_us;
    item.ready = parsed_at;
    items_.push_back(std::move(item));
    if (static_cast<std::int64_t>(items_.size()) >= batch_size_) FlushBatch();
    return;
  }

  if (parsed->admin != RoutedServeLine::Admin::kNone) {
    // Admin verbs are sequencing points: the pending batch answers on
    // the pre-admin registry, everything later on the post-admin one.
    FlushBatch();
    const Clock::time_point exec_start =
        timing ? Clock::now() : Clock::time_point{};
    Status s = RunAdmin(*parsed);
    if (!s.ok()) {
      admin_errors_->Increment();
      EmitError(s, line_no_);
    }
    if (timing) {
      const char* verb = AdminVerbName(parsed->admin);
      if (obs::MetricsEnabled()) {
        metrics_->GetCounter("nucleus_serve_admin_total", "", verb)
            ->Increment();
      }
      TraceInline(verb, parsed->tenant, !s.ok(), parse_us,
                  DurationUs(exec_start, Clock::now()));
    }
    return;
  }

  if (parsed->request.is_update) {
    FlushBatch();
    const Clock::time_point exec_start =
        timing ? Clock::now() : Clock::time_point{};
    Status s = ApplyUpdate(parsed->tenant, parsed->request.edit);
    if (!s.ok()) {
      update_errors_->Increment();
      EmitError(s, line_no_);
    }
    if (timing) {
      const std::int64_t exec_us = DurationUs(exec_start, Clock::now());
      if (obs::MetricsEnabled()) {
        metrics_->GetCounter("nucleus_serve_updates_total", parsed->tenant)
            ->Increment();
        metrics_->GetHistogram("nucleus_serve_update_us", parsed->tenant)
            ->Observe(exec_us);
      }
      TraceInline("update", parsed->tenant, !s.ok(), parse_us, exec_us);
    }
    return;
  }

  Item item;
  item.line_no = line_no_;
  item.parse_us = parse_us;
  item.ready = parsed_at;
  StatusOr<std::size_t> group = GroupFor(parsed->tenant);
  if (group.ok()) {
    item.group = *group;
    item.verb = VerbName(parsed->request.query.kind);
    item.query_index =
        static_cast<std::int64_t>(groups_[*group].queries.size());
    groups_[*group].queries.push_back(parsed->request.query);
  } else {
    resolve_errors_->Increment();
    item.error = group.status();
    item.verb = "error";
  }
  items_.push_back(std::move(item));
  if (static_cast<std::int64_t>(items_.size()) >= batch_size_) FlushBatch();
}

void RequestProcessor::RejectLine(const Status& status) {
  ++line_no_;
  if (shutdown_) return;
  // The line's text never reached us (back-pressure dropped it), but it
  // still owns one slot of the response stream: count it and answer with
  // the rejection, keeping one-JSON-object-per-line and input order.
  ++stats_.requests;
  reject_errors_->Increment();
  Item item;
  item.line_no = line_no_;
  item.error = status;
  item.verb = "reject";
  if (timing_live()) item.ready = Clock::now();
  items_.push_back(std::move(item));
  if (static_cast<std::int64_t>(items_.size()) >= batch_size_) FlushBatch();
}

void RequestProcessor::Flush() {
  FlushBatch();
  out_.flush();
}

void RequestProcessor::Finish() { Flush(); }

ServeStats ServeResolvedRequests(const ServeSessionResolver& resolver,
                                 SnapshotRegistry* registry,
                                 std::istream& in, std::ostream& out,
                                 const ServeOptions& options) {
  RequestProcessor processor(resolver, registry, out, options);
  std::string line;
  while (std::getline(in, line)) {
    processor.ProcessLine(line);
    if (processor.shutdown_requested()) break;
  }
  processor.Finish();
  return processor.stats();
}

ServeSessionResolver MakeEngineResolver(QueryEngine& engine,
                                        LiveUpdater* updater) {
  return [&engine, updater](const std::string& tenant)
      -> StatusOr<ServeSession> {
    if (!tenant.empty()) {
      return Status::InvalidArgument(
          "this session serves a single snapshot; routed '" + tenant +
          ":' requests require serve --registry");
    }
    ServeSession session;
    session.engine = &engine;
    session.updater = updater;
    return session;
  };
}

ServeStats ServeRequests(QueryEngine& engine, LiveUpdater* updater,
                         std::istream& in, std::ostream& out,
                         const ServeOptions& options) {
  return ServeResolvedRequests(MakeEngineResolver(engine, updater), nullptr,
                               in, out, options);
}

ServeStats ServeRequests(const QueryEngine& engine, std::istream& in,
                         std::ostream& out, const ServeOptions& options) {
  // Without an updater the engine is never mutated (the only mutating path
  // is apply_update, which requires one), so serving a const engine
  // through the mutable entry point is sound.
  return ServeRequests(const_cast<QueryEngine&>(engine), nullptr, in, out,
                       options);
}

ServeSessionResolver MakeRegistryResolver(SnapshotRegistry& registry) {
  return [&registry](const std::string& tenant) -> StatusOr<ServeSession> {
    if (tenant.empty()) {
      return Status::InvalidArgument(
          "registry sessions route by tenant: '<tenant>:<verb> ...' "
          "(admin: attach | detach | tenants)");
    }
    StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire(tenant);
    if (!lease.ok()) return lease.status();
    auto shared = std::make_shared<SnapshotRegistry::Lease>(
        std::move(*lease));
    ServeSession session;
    session.engine = &shared->engine();
    session.updater = shared->updater();
    session.on_update = [shared](const DeltaData& delta) {
      // Dirty + queued for persistence: a later `detach` writes the
      // record out instead of losing the applied batch.
      shared->MarkUpdated(delta);
    };
    session.pin = shared;
    return session;
  };
}

ServeStats ServeRegistryRequests(SnapshotRegistry& registry,
                                 std::istream& in, std::ostream& out,
                                 const ServeOptions& options) {
  return ServeResolvedRequests(MakeRegistryResolver(registry), &registry, in,
                               out, options);
}

}  // namespace nucleus
