#include "nucleus/serve/query_engine.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <string>
#include <utility>

namespace nucleus {
namespace {

Status InvalidClique(const char* what, std::int64_t value,
                     std::int64_t num_cliques) {
  return Status::InvalidArgument(std::string(what) + " id " +
                                 std::to_string(value) +
                                 " out of range [0, " +
                                 std::to_string(num_cliques) + ")");
}

}  // namespace

std::shared_ptr<QueryEngine::State> QueryEngine::BuildState(
    std::shared_ptr<const SnapshotSource> source, std::uint64_t epoch) {
  auto state = std::make_shared<State>();
  state->source = std::move(source);
  state->epoch = epoch;
  return state;
}

QueryEngine::QueryEngine(std::shared_ptr<const SnapshotSource> source,
                         const QueryEngineOptions& options)
    : state_(BuildState(std::move(source), 0)),
      members_cache_(options.cache_entries_per_shard, options.cache_shards,
                     options.cache_bytes_per_shard) {}

std::unique_ptr<QueryEngine> QueryEngine::FromSource(
    std::shared_ptr<const SnapshotSource> source,
    const QueryEngineOptions& options) {
  NUCLEUS_CHECK_MSG(source != nullptr, "FromSource requires a source");
  return std::unique_ptr<QueryEngine>(
      new QueryEngine(std::move(source), options));
}

std::unique_ptr<QueryEngine> QueryEngine::FromSnapshotData(
    SnapshotData snapshot, const QueryEngineOptions& options) {
  return FromSource(SnapshotSource::FromSnapshotData(snapshot), options);
}

std::shared_ptr<const QueryEngine::State> QueryEngine::CurrentState() const {
  ReaderLock lock(state_mutex_);
  return state_;
}

Status QueryEngine::ApplyUpdate(std::shared_ptr<const SnapshotSource> source) {
  if (source == nullptr) {
    return Status::InvalidArgument("update source is null");
  }
  const std::shared_ptr<const State> current = CurrentState();
  const SnapshotMeta& now = current->source->meta();
  if (source->meta().family != now.family) {
    return Status::InvalidArgument(
        "update snapshot family does not match the served snapshot");
  }
  if (source->meta().num_vertices != now.num_vertices ||
      source->meta().num_cliques != now.num_cliques) {
    return Status::InvalidArgument(
        "update snapshot describes a different K_r id space "
        "(vertex or clique count changed)");
  }
  // Build outside the lock: readers keep answering on the old state while
  // the next one comes up. The epoch advances monotonically even across
  // racing writers (each bases its epoch on the state it read and the swap
  // is last-writer-wins, which is the semantics of concurrent updates
  // anyway).
  std::shared_ptr<State> next =
      BuildState(std::move(source), current->epoch + 1);
  {
    WriterLock lock(state_mutex_);
    if (state_->epoch >= next->epoch) {
      // A concurrent writer already published this or a later generation;
      // bump past it so cache keys stay unique per published state.
      next->epoch = state_->epoch + 1;
    }
    state_ = std::move(next);
  }
  return Status::Ok();
}

Status QueryEngine::ApplyUpdate(SnapshotData snapshot) {
  // The section encoding (index tables, member store, ranking) happens
  // here, before the writer lock is ever taken.
  return ApplyUpdate(SnapshotSource::FromSnapshotData(snapshot));
}

std::int64_t QueryEngine::UpdateEpoch() const {
  return static_cast<std::int64_t>(CurrentState()->epoch);
}

QueryEngine::NucleusRef QueryEngine::MakeRef(const State& state,
                                             std::int32_t node) const {
  return {node, state.source->NodeLambdas()[node],
          state.source->SubtreeSize(node)};
}

QueryEngine::Response QueryEngine::RunOnState(const State& state,
                                              const Query& query) const {
  const std::int64_t num_cliques = state.source->meta().num_cliques;
  // Argument validation first (the error strings are part of the serving
  // contract), then the source's lazy verification for the sections this
  // query kind reads; a corrupt section answers as an error Response.
  const auto ensure = [&state](std::uint32_t needs) {
    return state.source->Ensure(needs);
  };
  Response response;
  switch (query.kind) {
    case QueryKind::kLambda: {
      if (query.a < 0 || query.a >= num_cliques) {
        response.status = InvalidClique("clique", query.a, num_cliques);
        return response;
      }
      if (Status s = ensure(kNeedLookup); !s.ok()) {
        response.status = s;
        return response;
      }
      response.lambda =
          state.source->CliqueLambdas()[static_cast<std::size_t>(query.a)];
      return response;
    }
    case QueryKind::kNucleus: {
      if (query.a < 0 || query.a >= num_cliques) {
        response.status = InvalidClique("clique", query.a, num_cliques);
        return response;
      }
      if (query.b < 1 || query.b > state.source->meta().max_lambda) {
        response.status = Status::InvalidArgument(
            "k " + std::to_string(query.b) + " out of range [1, " +
            std::to_string(state.source->meta().max_lambda) + "]");
        return response;
      }
      if (Status s = ensure(kNeedLookup | kNeedIndex | kNeedSizes);
          !s.ok()) {
        response.status = s;
        return response;
      }
      const std::int32_t node =
          ViewNucleusAtLevel(*state.source, static_cast<CliqueId>(query.a),
                             static_cast<Lambda>(query.b));
      if (node != kInvalidId) {
        response.found = true;
        response.nucleus = MakeRef(state, node);
      }
      return response;
    }
    case QueryKind::kCommon:
    case QueryKind::kLevel: {
      if (query.a < 0 || query.a >= num_cliques) {
        response.status = InvalidClique("clique", query.a, num_cliques);
        return response;
      }
      if (query.b < 0 || query.b >= num_cliques) {
        response.status = InvalidClique("clique", query.b, num_cliques);
        return response;
      }
      if (Status s = ensure(kNeedLookup | kNeedIndex | kNeedSizes);
          !s.ok()) {
        response.status = s;
        return response;
      }
      const std::int32_t node = ViewSmallestCommonNucleus(
          *state.source, static_cast<CliqueId>(query.a),
          static_cast<CliqueId>(query.b));
      if (node != kInvalidId) {
        response.found = true;
        response.nucleus = MakeRef(state, node);
        response.lambda = response.nucleus.k;
      }
      return response;
    }
    case QueryKind::kTop: {
      if (query.a < 0) {
        response.status =
            Status::InvalidArgument("top count must be non-negative");
        return response;
      }
      if (Status s = ensure(kNeedRanking | kNeedSizes); !s.ok()) {
        response.status = s;
        return response;
      }
      const std::span<const std::int32_t> ranking =
          state.source->DensityRanking();
      const std::int64_t count =
          std::min(query.a, static_cast<std::int64_t>(ranking.size()));
      response.top.reserve(static_cast<std::size_t>(count));
      for (std::int64_t i = 0; i < count; ++i) {
        response.top.push_back(
            MakeRef(state, ranking[static_cast<std::size_t>(i)]));
      }
      return response;
    }
    case QueryKind::kMembers: {
      if (query.a < 0 || query.a >= state.source->NumNodes()) {
        response.status = Status::InvalidArgument(
            "node id " + std::to_string(query.a) + " out of range [0, " +
            std::to_string(state.source->NumNodes()) + ")");
        return response;
      }
      if (Status s = ensure(kNeedSizes | kNeedMembers); !s.ok()) {
        response.status = s;
        return response;
      }
      response.nucleus = MakeRef(state, static_cast<std::int32_t>(query.a));
      response.members =
          MembersOnState(state, static_cast<std::int32_t>(query.a));
      return response;
    }
  }
  response.status = Status::InvalidArgument("unknown query kind");
  return response;
}

QueryEngine::Response QueryEngine::Run(const Query& query) const {
  const std::shared_ptr<const State> state = CurrentState();
  return RunOnState(*state, query);
}

std::vector<QueryEngine::Response> QueryEngine::RunBatch(
    const std::vector<Query>& queries, ThreadPool& pool) const {
  // One state for the whole batch: answers are mutually consistent and
  // unaffected by updates that land while the batch is in flight.
  const std::shared_ptr<const State> state = CurrentState();
  std::vector<Response> responses(queries.size());
  // Small grain: individual queries are microseconds, but kMembers can be
  // output-sized; 64 balances scheduling overhead against stragglers.
  pool.ParallelFor(static_cast<std::int64_t>(queries.size()), 64,
                   [&](int, std::int64_t begin, std::int64_t end) {
                     for (std::int64_t i = begin; i < end; ++i) {
                       responses[static_cast<std::size_t>(i)] = RunOnState(
                           *state, queries[static_cast<std::size_t>(i)]);
                     }
                   });
  return responses;
}

std::vector<QueryEngine::NucleusRef> QueryEngine::TopKDensest(
    std::int64_t k) const {
  const std::shared_ptr<const State> state = CurrentState();
  if (!state->source->Ensure(kNeedRanking | kNeedSizes).ok()) return {};
  const std::span<const std::int32_t> ranking =
      state->source->DensityRanking();
  const std::int64_t count =
      std::min(k, static_cast<std::int64_t>(ranking.size()));
  std::vector<NucleusRef> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    out.push_back(MakeRef(*state, ranking[static_cast<std::size_t>(i)]));
  }
  return out;
}

std::shared_ptr<const std::vector<CliqueId>> QueryEngine::MembersOnState(
    const State& state, std::int32_t node) const {
  const std::uint64_t key =
      (state.epoch << 32) | static_cast<std::uint32_t>(node);
  return members_cache_.GetOrCompute(key, [&state, node] {
    return state.source->MaterializeMembers(node);
  });
}

std::shared_ptr<const std::vector<CliqueId>> QueryEngine::Members(
    std::int32_t node) const {
  const std::shared_ptr<const State> state = CurrentState();
  if (node < 0 || node >= state->source->NumNodes() ||
      !state->source->Ensure(kNeedSizes | kNeedMembers).ok()) {
    return nullptr;
  }
  return MembersOnState(*state, node);
}

}  // namespace nucleus
