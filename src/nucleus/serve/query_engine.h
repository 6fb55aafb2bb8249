// QueryEngine: a long-lived, concurrent community-query server over a
// loaded snapshot — the downstream payoff the paper promises ("community
// search becomes a tree lookup") turned into a service component.
//
// The engine answers the community-search vocabulary over a
// SnapshotSource (store/snapshot_source.h):
//
//   * lambda(u)                     — peeling number of the K_r u;
//   * nucleus(u, k)                 — the k-(r,s) nucleus containing u
//                                     (binary lifting over the source's
//                                     jump tables);
//   * common(u, v) / level(u, v)    — smallest common nucleus / its k;
//   * top(k)                        — the k densest nuclei (max lambda
//                                     first, precomputed ranking);
//   * members(node)                 — full member materialization of one
//                                     nucleus subtree, memoized in a
//                                     sharded, byte-budgeted LRU cache.
//
// Construction goes through factories: FromSource serves a SnapshotSource
// whether its v2 sections are owned (everything resident, verified up
// front) or mapped (zero-copy spans over a v2 file; sections verify lazily
// on the first query that needs them, members page in through the LRU
// cache, which is then the engine's only heap-resident hot set).
// FromSnapshotData encodes the data into an owned source — the tests' and
// LiveUpdater's path.
//
// Since PR 4 the engine is UPDATABLE: ApplyUpdate swaps in the state of an
// edited graph (produced by serve/live_update.h from the incremental
// k-core maintainer) without a restart. The hot path stays lock-light: all
// query state lives in one immutable State object behind a shared_ptr;
// readers take a shared lock only long enough to copy the pointer, so an
// in-flight Run/RunBatch keeps its state alive and is never torn by a
// concurrent swap — a batch answers every query against the single state
// it captured on entry. Member-cache invalidation is by epoch: every state
// carries a generation number that prefixes the cache key, so entries of a
// replaced state simply stop being referenced and age out of the LRU
// shards (no full flush, no stop-the-world).
//
// Unlike the core-layer HierarchyIndex (which NUCLEUS_CHECKs its inputs),
// the engine treats queries as untrusted network input: out-of-range ids
// and invalid parameters come back as error Responses, never aborts — and
// a lazily detected corrupt section of an mmap source surfaces the same
// way, as an error Response on the queries that need that section.
#ifndef NUCLEUS_SERVE_QUERY_ENGINE_H_
#define NUCLEUS_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nucleus/parallel/thread_pool.h"
#include "nucleus/serve/lru_cache.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_source.h"
#include "nucleus/util/mutex.h"
#include "nucleus/util/status.h"

namespace nucleus {

struct QueryEngineOptions {
  /// Member-materialization cache: total entry capacity is
  /// cache_shards * cache_entries_per_shard subtree member lists.
  std::size_t cache_shards = 8;
  std::size_t cache_entries_per_shard = 64;
  /// Byte budget per cache shard (0 = entry-capacity only). For mmap
  /// sources the member cache is the only heap-resident hot set, so this
  /// is the knob that bounds a tenant's RSS.
  std::size_t cache_bytes_per_shard = 0;
};

class QueryEngine {
 public:
  enum class QueryKind : std::int32_t {
    kLambda,   // a = clique id
    kNucleus,  // a = clique id, b = k
    kCommon,   // a, b = clique ids
    kLevel,    // a, b = clique ids
    kTop,      // a = k (number of nuclei to report)
    kMembers,  // a = hierarchy node id
  };

  struct Query {
    QueryKind kind = QueryKind::kLambda;
    std::int64_t a = 0;
    std::int64_t b = 0;
  };

  /// One nucleus in an answer: its hierarchy node, its k and its size
  /// (number of member K_r's in the subtree).
  struct NucleusRef {
    std::int32_t node = kInvalidId;
    Lambda k = 0;
    std::int64_t size = 0;
  };

  struct Response {
    Status status;                  // non-OK: invalid query, others unset
    Lambda lambda = 0;              // kLambda / kLevel
    bool found = false;             // kNucleus / kCommon
    NucleusRef nucleus;             // kNucleus / kCommon (when found)
    std::vector<NucleusRef> top;    // kTop
    /// kMembers: shared view of the cached member list.
    std::shared_ptr<const std::vector<CliqueId>> members;
  };

  /// Serves an already-open source (owned or mapped). The engine shares
  /// ownership; a source may back several engines.
  static std::unique_ptr<QueryEngine> FromSource(
      std::shared_ptr<const SnapshotSource> source,
      const QueryEngineOptions& options = {});

  /// Encodes `snapshot` into an owned source (SnapshotSource::
  /// FromSnapshotData: index tables adopted or built here once) — the path
  /// tests and the live update pipeline use.
  static std::unique_ptr<QueryEngine> FromSnapshotData(
      SnapshotData snapshot, const QueryEngineOptions& options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Metadata of the CURRENT state. Stays valid until the next
  /// ApplyUpdate; callers racing updates should query via Run/RunBatch,
  /// which pin the state they answer from.
  const SnapshotMeta& meta() const { return CurrentState()->source->meta(); }
  std::int64_t NumCliques() const {
    return CurrentState()->source->meta().num_cliques;
  }
  std::int32_t NumNodes() const {
    return CurrentState()->source->NumNodes();
  }
  std::int64_t NumNuclei() const {
    return CurrentState()->source->NumNuclei();
  }
  /// Current source's memory split (registry accounting / stats verb).
  std::int64_t HeapBytes() const {
    return CurrentState()->source->HeapBytes();
  }
  std::int64_t MappedBytes() const {
    return CurrentState()->source->MappedBytes();
  }

  /// Swaps in a new source. The source must describe the same family and
  /// K_r id space layout as the current state (for (1,2): the same vertex
  /// count) — anything else is a pairing error and returns InvalidArgument
  /// without touching the served state. The swap itself is a pointer
  /// assignment, so readers are stalled for nanoseconds. In-flight readers
  /// finish on the state they captured; their member-cache entries age out
  /// by epoch.
  Status ApplyUpdate(std::shared_ptr<const SnapshotSource> source);

  /// Convenience overload: encodes the post-state of an edit batch (the
  /// LiveUpdater product) into an owned source. Index tables, member store
  /// and density ranking are built OUTSIDE the writer lock.
  Status ApplyUpdate(SnapshotData snapshot);

  /// Number of state swaps applied so far (telemetry; initial state is 0).
  std::int64_t UpdateEpoch() const;

  /// Answers one query against the current state. Thread-safe, including
  /// against concurrent ApplyUpdate; invalid input yields an error Status
  /// in the Response.
  Response Run(const Query& query) const;

  /// Answers a batch concurrently over `pool`, preserving input order.
  /// The whole batch is answered against ONE state (captured on entry),
  /// so responses are identical to sequential Run() calls on that state
  /// and mutually consistent even if an update lands mid-batch.
  std::vector<Response> RunBatch(const std::vector<Query>& queries,
                                 ThreadPool& pool) const;

  /// The `k` densest nuclei: all lambda >= 1 nodes ordered by lambda
  /// descending, node id ascending as the tiebreak (deterministic).
  std::vector<NucleusRef> TopKDensest(std::int64_t k) const;

  /// Member list of one node's subtree, via the sharded LRU cache.
  std::shared_ptr<const std::vector<CliqueId>> Members(
      std::int32_t node) const;

  LruCacheStats CacheStats() const { return members_cache_.Stats(); }

 private:
  /// Everything a query touches, immutable once published.
  struct State {
    std::shared_ptr<const SnapshotSource> source;
    /// Cache-key prefix: entries of retired states become unreachable.
    std::uint64_t epoch = 0;
  };

  QueryEngine(std::shared_ptr<const SnapshotSource> source,
              const QueryEngineOptions& options);

  static std::shared_ptr<State> BuildState(
      std::shared_ptr<const SnapshotSource> source, std::uint64_t epoch);
  std::shared_ptr<const State> CurrentState() const;

  Response RunOnState(const State& state, const Query& query) const;
  NucleusRef MakeRef(const State& state, std::int32_t node) const;
  std::shared_ptr<const std::vector<CliqueId>> MembersOnState(
      const State& state, std::int32_t node) const;

  mutable SharedMutex state_mutex_;  // guards state_ (swap only)
  std::shared_ptr<const State> state_ GUARDED_BY(state_mutex_);
  mutable ShardedLruCache<std::uint64_t, std::vector<CliqueId>>
      members_cache_;  // key = epoch << 32 | node
};

}  // namespace nucleus

#endif  // NUCLEUS_SERVE_QUERY_ENGINE_H_
