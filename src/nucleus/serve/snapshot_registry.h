// SnapshotRegistry: one process, many graphs — the multi-tenant layer of
// the serving stack.
//
// PR 3/4 made a single snapshot loadable, servable and live-updatable;
// this module lifts that to the operating mode production serving assumes
// (and the ROADMAP names as the next serving step): a registry of named
// TENANTS, each a (snapshot [+ delta chain] [+ graph for live updates])
// triple resolved through the existing fingerprint pairing. The routed
// request loop (`<tenant>:<verb> ...`, request_loop.h) resolves every
// line through this registry.
//
// Residency and eviction. Attach loads a tenant eagerly, so a corrupt or
// mismatched backing file surfaces as a per-tenant Status at attach time
// while every other tenant keeps serving. Loaded engines are accounted
// against an optional byte budget; when the budget is exceeded the
// registry evicts least-recently-used IDLE engines. Three states are
// never evicted:
//
//   * pinned    — a Lease is alive (a batch is in flight). RunBatch never
//                 loses its state mid-batch; the budget is best-effort
//                 while everything is pinned, and the overshoot is
//                 reclaimed as soon as a lease releases (not just at the
//                 next attach/acquire).
//   * dirty     — updates were applied that exist nowhere on disk;
//                 evicting would silently roll the tenant back.
//   * detached-but-leased — Detach drops the registry's reference, but a
//                 live Lease keeps the engine alive until it is released.
//
// An evicted tenant stays attached: the next Acquire lazily re-loads it
// from its backing files, and (for clean tenants) the re-loaded state
// answers byte-identically to the never-evicted one — the property
// tests/snapshot_registry_test.cc pins. A re-load failure (file corrupted
// since attach) is again a per-tenant Status; the tenant remains attached
// and recovers on the next Acquire once the file does.
//
// Locking. One mutex guards the tenant table — the ADMIN plane
// (attach/detach/acquire/stats). Query execution happens on leased
// engines outside that lock, and so does the lazy re-load itself: an
// Acquire that finds its tenant evicted plants a per-tenant loading
// latch, drops the mutex, loads from disk, and re-takes the mutex only
// to install the result. Concurrent Acquires of the same tenant coalesce
// onto that latch; Acquires of OTHER tenants (and all admin calls) run
// in the meantime, so one tenant's slow disk never head-of-line-blocks
// the rest of the registry. Per-engine concurrency is the QueryEngine's
// own affair.
#ifndef NUCLEUS_SERVE_SNAPSHOT_REGISTRY_H_
#define NUCLEUS_SERVE_SNAPSHOT_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nucleus/serve/live_update.h"
#include "nucleus/serve/lru_cache.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/store/manifest.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_source.h"
#include "nucleus/util/mutex.h"
#include "nucleus/util/status.h"

namespace nucleus {

struct RegistryOptions {
  /// Total resident-engine HEAP budget in bytes; 0 = unlimited. Enforced
  /// by LRU eviction of idle engines (see file comment for what "idle"
  /// excludes), so the actual footprint can exceed the budget while every
  /// resident engine is pinned or dirty. Mapped bytes (mmap tenants) are
  /// tracked separately and do NOT count against this budget — the kernel
  /// reclaims mapped pages under pressure on its own; evicting an mmap
  /// tenant just unmaps the file.
  std::int64_t memory_budget_bytes = 0;
  /// How read-only tenants hold their snapshot: kHeap reads the file
  /// into an owned buffer and verifies every section at load, so a corrupt
  /// file fails the attach; kMmap serves it zero-copy from a private
  /// read-only mapping and verifies each section on first use (a v1 file
  /// is upgraded in memory in either mode). Live tenants (a graph is
  /// paired) always load heap — chain resolution and the incremental
  /// maintainer need materialized state.
  SnapshotMemoryMode memory_mode = SnapshotMemoryMode::kHeap;
  /// Per-engine member-cache shape (each tenant gets its own cache).
  QueryEngineOptions engine;
  /// Test seam: invoked (with the tenant name) at the start of every
  /// engine load — eager attach loads AND lazy re-loads — from the
  /// loading thread. Lazy re-loads run it OUTSIDE the registry mutex, so
  /// a hook that blocks lets tests hold one tenant's load open while
  /// proving other tenants keep serving. Must not call back into the
  /// registry for attach loads (those still hold the mutex).
  std::function<void(const std::string&)> load_hook;
};

/// Telemetry for one tenant, cumulative across evictions and re-loads.
struct TenantStats {
  bool resident = false;
  bool live = false;   // graph paired: the update verb is enabled
  bool dirty = false;  // unpersisted updates applied (never evicted)
  std::int64_t loads = 0;      // attach + lazy re-loads
  std::int64_t evictions = 0;  // budget-driven engine drops
  std::int64_t hits = 0;       // Acquires served from a resident engine
  std::int64_t updates = 0;    // applied update batches
  std::int64_t pins = 0;       // currently live Leases
  /// Bytes charged against the registry budget (heap + live state);
  /// 0 when evicted.
  std::int64_t resident_bytes = 0;
  /// The budget charge split by residency kind: `heap_bytes` is malloc'd
  /// state (everything for a heap tenant; the engine shell + live state
  /// for an mmap tenant — the member cache's share is in `cache.bytes`),
  /// `mapped_bytes` is the mmap'd snapshot file (kernel-reclaimable,
  /// outside the budget). Both 0 when evicted.
  std::int64_t heap_bytes = 0;
  std::int64_t mapped_bytes = 0;
  /// Per-tenant member-cache telemetry: the resident engine's counters
  /// plus everything accumulated from engines this tenant already
  /// retired — the per-tenant dimension of LruCacheStats.
  LruCacheStats cache;
};

/// Registry-wide telemetry: the cross-tenant dimension the `stats` admin
/// verb exports next to the per-tenant TenantStats rows.
struct RegistrySummary {
  std::int64_t tenants = 0;
  std::int64_t resident_bytes = 0;
  /// Sum of resident tenants' mapped snapshot bytes (mmap tenants only;
  /// not charged against the budget — see RegistryOptions).
  std::int64_t mapped_bytes = 0;
  std::int64_t budget_bytes = 0;
  std::int64_t detaches = 0;  // completed Detach calls
  /// Cache counters folded out of detached tenants (their engines AND
  /// whatever those tenants had already retired via eviction) — detaching
  /// moves a tenant's counters here instead of dropping them.
  LruCacheStats detached_cache;
};

/// Resident footprint of a heap-loaded snapshot — the HeapBytes() of its
/// owned v2 encoding — used for budget accounting. Exposed so tests and
/// benches can size eviction budgets relative to real tenants.
std::int64_t EstimateResidentBytes(const SnapshotData& snapshot);

class SnapshotRegistry;

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Publishes the registry's point-in-time per-tenant gauges into `m`:
/// nucleus_registry_resident_bytes{tenant}, _mapped_bytes{tenant},
/// nucleus_cache_hit_ratio{tenant}, plus the registry-wide tenant count
/// and budget. Called at scrape time (the `metrics` verb and the
/// --metrics-port exposition), not on the serving hot path.
void PublishRegistryMetrics(const SnapshotRegistry& registry,
                            obs::MetricsRegistry& m);

class SnapshotRegistry {
 public:
  class Lease;

  explicit SnapshotRegistry(const RegistryOptions& options = {});

  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// Registers and eagerly loads a tenant. Any failure — invalid spec,
  /// unreadable/corrupt snapshot, delta-chain or fingerprint mismatch,
  /// live pairing rejected — returns a Status prefixed with the tenant
  /// name and registers nothing. Duplicate names are errors.
  Status Attach(const TenantSpec& spec) EXCLUDES(mutex_);

  /// Attaches every tenant of a manifest ATOMICALLY: on the first failure
  /// the tenants this call already attached are rolled back (detached),
  /// and the returned Status names the failing tenant. A failed
  /// `--registry` startup therefore leaves the registry exactly as it
  /// found it.
  Status AttachManifest(const RegistryManifest& manifest) EXCLUDES(mutex_);

  /// Unregisters a tenant. Its engine is dropped from the budget
  /// immediately; a Lease still holding it keeps the state alive (and
  /// answering) until released. A DIRTY live tenant (updates applied that
  /// exist nowhere on disk) is persisted first — every pending delta
  /// record goes next to the snapshot and the current graph next to the
  /// tenant's graph file (paths reported via `persisted`) — so detach
  /// never silently discards applied updates. If persistence is
  /// impossible (IO failure, or dirty state with no recorded delta
  /// batches) the detach is REFUSED and the tenant stays attached, unless
  /// `force` is set, which discards the unpersisted state deliberately.
  /// The detached tenant's cache counters (resident engine + already
  /// retired) fold into Summary().detached_cache instead of vanishing.
  Status Detach(const std::string& name, bool force = false,
                std::vector<std::string>* persisted = nullptr)
      EXCLUDES(mutex_);

  /// Acquires a pinned lease on a tenant's engine, lazily re-loading it
  /// if it was evicted. The tenant cannot be evicted while the lease is
  /// alive. Re-load failures are per-tenant Statuses; the tenant stays
  /// attached for a later retry.
  ///
  /// The re-load itself runs OUTSIDE the registry mutex behind a
  /// per-tenant loading latch: resident tenants keep serving while one
  /// tenant loads, two tenants load concurrently, and concurrent Acquires
  /// of the SAME loading tenant coalesce onto the one in-flight load
  /// (each still reporting a failure individually, leaving the tenant
  /// retryable).
  StatusOr<Lease> Acquire(const std::string& name) EXCLUDES(mutex_);

  /// Attached tenant names, sorted.
  std::vector<std::string> TenantNames() const EXCLUDES(mutex_);

  StatusOr<TenantStats> Stats(const std::string& name) const
      EXCLUDES(mutex_);

  /// Registry-wide counters (see RegistrySummary).
  RegistrySummary Summary() const EXCLUDES(mutex_);

  /// Sum of resident engine estimates currently accounted to the budget.
  std::int64_t ResidentBytes() const EXCLUDES(mutex_);

  const RegistryOptions& options() const { return options_; }

 private:
  /// Everything resident for one loaded tenant. Held by shared_ptr so an
  /// in-flight Lease outlives Detach; never mutated structurally after
  /// construction (the engine handles its own update swaps).
  struct Resident {
    Resident(const SnapshotRegistry* owner_in,
             std::unique_ptr<QueryEngine> engine_in,
             std::int64_t heap_bytes_in, std::int64_t mapped_bytes_in)
        : owner(owner_in),
          engine(std::move(engine_in)),
          heap_bytes(heap_bytes_in),
          mapped_bytes(mapped_bytes_in) {}
    /// The owning registry — referenced only by the lock-order
    /// annotation on pending_mutex below (the registry that loaded a
    /// resident is the one whose mutex_ sits above it).
    const SnapshotRegistry* const owner;
    std::unique_ptr<QueryEngine> engine;  // never null
    std::unique_ptr<LiveUpdater> updater;  // null for read-only tenants
    /// Heap bytes charged against the budget (engine estimate + live
    /// state for live tenants).
    const std::int64_t heap_bytes;
    /// Mapped snapshot bytes (mmap tenants; 0 for heap). Dropping the
    /// resident unmaps the file — eviction of an mmap tenant IS munmap.
    const std::int64_t mapped_bytes;
    std::atomic<std::int64_t> pins{0};
    std::atomic<bool> dirty{false};
    /// Applied update batches. Lives on the resident (not the Tenant row)
    /// so MarkUpdated needs no registry lock — which keeps the lock order
    /// mutex_ -> apply_mutex -> pending_mutex acyclic (see
    /// PersistDirtyLocked). Updates always dirty a resident and dirty
    /// residents are never evicted, so the count survives as long as it
    /// is nonzero.
    std::atomic<std::int64_t> updates{0};
    /// Applied-but-unpersisted delta records, in application order — what
    /// Detach writes out for a dirty tenant. The mutex also guards the
    /// dirty flag's transitions (updates happen on leased engines outside
    /// the registry lock), so a persist's clear and a concurrent mark
    /// never interleave into a dirty=false state with deltas queued.
    ///
    /// Bottom of the registry's lock order: the ACQUIRED_AFTER edges
    /// state mutex_ -> apply_mutex -> pending_mutex in the type system
    /// (checked under -Wthread-safety-beta; see PersistDirtyLocked for
    /// the one path that holds all three).
    Mutex pending_mutex ACQUIRED_AFTER(owner->mutex_,
                                       updater->apply_mutex());
    std::vector<DeltaData> pending_deltas GUARDED_BY(pending_mutex);
  };

  /// One in-flight lazy re-load. `done`/`status` are guarded by the
  /// registry mutex and signalled through load_cv_; every Acquire that
  /// coalesced onto this load reads its own copy of the outcome.
  struct LoadState {
    bool done = false;
    Status status = Status::Ok();
  };

  struct Tenant {
    TenantSpec spec;
    std::shared_ptr<Resident> resident;  // null = evicted
    std::shared_ptr<LoadState> loading;  // non-null = re-load in flight
    std::int64_t loads = 0;
    std::int64_t evictions = 0;
    std::int64_t hits = 0;
    std::uint64_t last_used = 0;
    /// Cache counters of engines already evicted (gauges excluded).
    LruCacheStats retired_cache;
  };

  /// LoadResident wraps LoadResidentImpl (the actual disk work) with the
  /// nucleus_registry_load_us{tenant} histogram + load/failure counters.
  static StatusOr<std::shared_ptr<Resident>> LoadResident(
      const SnapshotRegistry* self, const TenantSpec& spec,
      const RegistryOptions& options);
  static StatusOr<std::shared_ptr<Resident>> LoadResidentImpl(
      const SnapshotRegistry* self, const TenantSpec& spec,
      const RegistryOptions& options);

  /// Drops LRU idle engines until the budget holds (or nothing idle is
  /// left).
  void EvictLocked() REQUIRES(mutex_);
  /// Takes mutex_ and evicts; run by a releasing Lease so an overshoot
  /// tolerated while pinned is reclaimed as soon as the pin drops, not
  /// only at the next Attach/Acquire.
  void EnforceBudget() EXCLUDES(mutex_);
  static void MarkUpdated(const std::shared_ptr<Resident>& resident,
                          const DeltaData* delta);
  /// Writes a dirty tenant's pending deltas + current graph next to its
  /// backing files; clears the dirty state on success. Runs under mutex_
  /// (detach is an admin-plane operation; the IO cost mirrors the eager
  /// load Attach already performs under the lock). Holds the updater's
  /// apply mutex for the duration, so no update batch can land between
  /// the drain and the clear and be lost.
  Status PersistDirtyLocked(Tenant& tenant,
                            std::vector<std::string>* persisted)
      REQUIRES(mutex_);

  const RegistryOptions options_;
  mutable Mutex mutex_;
  /// Wakes Acquires that coalesced onto an in-flight lazy re-load.
  std::condition_variable load_cv_;
  std::map<std::string, Tenant> tenants_ GUARDED_BY(mutex_);
  // Charged (heap) bytes.
  std::int64_t resident_bytes_ GUARDED_BY(mutex_) = 0;
  // Resident mmap tenants' file bytes.
  std::int64_t mapped_bytes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t tick_ GUARDED_BY(mutex_) = 0;  // deterministic LRU clock
  std::int64_t detaches_ GUARDED_BY(mutex_) = 0;
  LruCacheStats detached_cache_ GUARDED_BY(mutex_);

  friend class Lease;
};

/// A pinned reference to one tenant's serving surface. Movable, not
/// copyable; releasing (destruction) unpins. The engine and updater
/// pointers stay valid for the lease's lifetime even across a concurrent
/// Detach or (impossible while pinned, but for clarity) eviction.
class SnapshotRegistry::Lease {
 public:
  Lease(Lease&& other) noexcept;
  Lease& operator=(Lease&& other) noexcept;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease();

  QueryEngine& engine() { return *resident_->engine; }
  const QueryEngine& engine() const { return *resident_->engine; }
  /// Null for read-only tenants.
  LiveUpdater* updater() { return resident_->updater.get(); }

  /// Marks the leased state dirty after an APPLIED update batch: the
  /// tenant becomes unevictable (its in-memory state is now ahead of its
  /// backing files) and the per-tenant update counter advances. The
  /// overload taking the batch's delta record also queues it for
  /// persistence, which is what lets Detach write the dirty state out
  /// instead of refusing; the zero-argument form only marks dirty (such a
  /// tenant can only be force-detached).
  void MarkUpdated();
  void MarkUpdated(const DeltaData& delta);

 private:
  Lease(SnapshotRegistry* registry, std::string name,
        std::shared_ptr<Resident> resident)
      : registry_(registry),
        name_(std::move(name)),
        resident_(std::move(resident)) {}

  void Release();

  SnapshotRegistry* registry_ = nullptr;
  std::string name_;
  std::shared_ptr<Resident> resident_;

  friend class SnapshotRegistry;
};

}  // namespace nucleus

#endif  // NUCLEUS_SERVE_SNAPSHOT_REGISTRY_H_
