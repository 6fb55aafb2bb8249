#include "nucleus/serve/snapshot_registry.h"

#include <chrono>
#include <cstddef>
#include <optional>
#include <utility>

#include "nucleus/graph/edge_list_io.h"
#include "nucleus/obs/metrics.h"
#include "nucleus/store/delta.h"
#include "nucleus/store/snapshot_source.h"

namespace nucleus {
namespace {

/// Status with the same code, message prefixed by the tenant name — every
/// per-tenant failure names its tenant so a multi-tenant operator log
/// stays attributable.
Status TenantError(const std::string& name, const Status& status) {
  return Status(status.code(), "tenant '" + name + "': " + status.message());
}

/// Rough live footprint of the incremental maintainer (adjacency sets +
/// lambda array) a live tenant keeps next to its engine.
std::int64_t EstimateLiveBytes(const Graph& g) {
  // Adjacency as hash sets costs well over the CSR's 4 bytes per
  // directed edge; 16 is a defensible average across load factors.
  return 16 * 2 * g.NumEdges() + 8 * static_cast<std::int64_t>(g.NumVertices());
}

}  // namespace

std::int64_t EstimateResidentBytes(const SnapshotData& snapshot) {
  return SnapshotSource::FromSnapshotData(snapshot)->HeapBytes();
}

SnapshotRegistry::SnapshotRegistry(const RegistryOptions& options)
    : options_(options) {}

StatusOr<std::shared_ptr<SnapshotRegistry::Resident>>
SnapshotRegistry::LoadResident(const SnapshotRegistry* self,
                               const TenantSpec& spec,
                               const RegistryOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  StatusOr<std::shared_ptr<Resident>> result =
      LoadResidentImpl(self, spec, options);
  if (obs::MetricsEnabled()) {
    const std::int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    obs::MetricsRegistry& m = obs::MetricsRegistry::Global();
    m.GetHistogram("nucleus_registry_load_us", spec.name)->Observe(us);
    if (!result.ok()) {  // successes: TenantStats::loads owns them
      m.GetCounter("nucleus_registry_load_failures_total", spec.name)
          ->Increment();
    }
  }
  return result;
}

StatusOr<std::shared_ptr<SnapshotRegistry::Resident>>
SnapshotRegistry::LoadResidentImpl(const SnapshotRegistry* self,
                                   const TenantSpec& spec,
                                   const RegistryOptions& options) {
  if (options.load_hook) options.load_hook(spec.name);
  if (spec.graph_path.empty()) {
    // Read-only tenant: honor the registry's memory mode. kMmap maps a
    // v2 file zero-copy; kHeap reads it and verifies every section, so a
    // corrupt file fails the attach here (a v1 file is upgraded in memory
    // in either mode). The engine reports its own heap/mapped split,
    // which is what the budget charges.
    StatusOr<std::shared_ptr<const SnapshotSource>> source =
        OpenSnapshotSource(spec.snapshot_path, options.memory_mode);
    if (!source.ok()) return source.status();
    std::unique_ptr<QueryEngine> engine =
        QueryEngine::FromSource(std::move(*source), options.engine);
    const std::int64_t heap = engine->HeapBytes();
    const std::int64_t mapped = engine->MappedBytes();
    return std::make_shared<Resident>(self, std::move(engine), heap, mapped);
  }
  // Live tenant: the graph is loaded next to the snapshot (or delta
  // chain), paired through the fingerprint check inside
  // LiveUpdater::Create / ResolveChain, and kept — as the maintainer's
  // adjacency — so the update verb can serve.
  StatusOr<Graph> graph = ReadEdgeList(spec.graph_path);
  if (!graph.ok()) return graph.status();
  std::optional<ChainLink> link;
  StatusOr<SnapshotData> snapshot = Status::Internal("unset");
  if (spec.delta_paths.empty()) {
    snapshot = LoadSnapshot(spec.snapshot_path);
  } else {
    std::vector<std::string> paths{spec.snapshot_path};
    paths.insert(paths.end(), spec.delta_paths.begin(),
                 spec.delta_paths.end());
    ChainLink resolved;
    snapshot = ResolveChain(paths, *graph, &resolved);
    if (snapshot.ok()) link = resolved;
  }
  if (!snapshot.ok()) return snapshot.status();
  StatusOr<std::unique_ptr<LiveUpdater>> updater =
      LiveUpdater::Create(*graph, *snapshot, link);
  if (!updater.ok()) return updater.status();
  const std::int64_t live_bytes = EstimateLiveBytes(*graph);
  std::unique_ptr<QueryEngine> engine =
      QueryEngine::FromSnapshotData(std::move(*snapshot), options.engine);
  const std::int64_t heap = engine->HeapBytes() + live_bytes;
  auto resident =
      std::make_shared<Resident>(self, std::move(engine), heap, /*mapped=*/0);
  resident->updater = std::move(*updater);
  return resident;
}

Status SnapshotRegistry::Attach(const TenantSpec& spec) {
  if (Status s = ValidateTenantSpec(spec); !s.ok()) return s;
  MutexLock lock(mutex_);
  if (tenants_.count(spec.name) != 0) {
    return Status::InvalidArgument("tenant '" + spec.name +
                                   "' is already attached");
  }
  // Eager load: a broken tenant fails HERE, attributable and atomic —
  // nothing is registered on failure and the other tenants never notice.
  StatusOr<std::shared_ptr<Resident>> resident =
      LoadResident(this, spec, options_);
  if (!resident.ok()) return TenantError(spec.name, resident.status());
  Tenant tenant;
  tenant.spec = spec;
  tenant.resident = std::move(*resident);
  tenant.loads = 1;
  tenant.last_used = ++tick_;
  resident_bytes_ += tenant.resident->heap_bytes;
  mapped_bytes_ += tenant.resident->mapped_bytes;
  tenants_.emplace(spec.name, std::move(tenant));
  EvictLocked();
  return Status::Ok();
}

Status SnapshotRegistry::AttachManifest(const RegistryManifest& manifest) {
  // Atomic: a manifest either attaches whole or not at all. On the first
  // failure every tenant this call already attached is rolled back — a
  // fresh attach is clean by construction, so the rollback detaches
  // without persistence concerns. Attach itself prefixes the failing
  // tenant's name.
  std::vector<std::string> attached;
  attached.reserve(manifest.tenants.size());
  for (const TenantSpec& spec : manifest.tenants) {
    if (Status s = Attach(spec); !s.ok()) {
      for (auto it = attached.rbegin(); it != attached.rend(); ++it) {
        // Best-effort rollback: the original attach failure is the error
        // the caller needs; a forced detach of a just-attached (clean)
        // tenant cannot lose data.
        (void)Detach(*it, /*force=*/true);
      }
      return s;
    }
    attached.push_back(spec.name);
  }
  return Status::Ok();
}

Status SnapshotRegistry::PersistDirtyLocked(
    Tenant& tenant, std::vector<std::string>* persisted) {
  Resident& resident = *tenant.resident;
  if (resident.updater == nullptr) {
    return Status::Internal("dirty tenant has no live updater");
  }
  // The apply mutex is held by every in-flight update across Apply +
  // engine swap + MarkUpdated, so holding it here freezes one consistent
  // state for the whole persist: the pending queue cannot grow between
  // the copy below and the clear at the end (a delta landing in that
  // window would be cleared without ever being written), and the graph
  // serialized below matches the drained deltas exactly. Lock order is
  // mutex_ -> apply_mutex -> pending_mutex; MarkUpdated takes only the
  // tail of the chain, so the orders compose without a cycle.
  MutexLock apply_lock(resident.updater->apply_mutex());
  std::vector<DeltaData> pending;
  {
    MutexLock pending_lock(resident.pending_mutex);
    pending = resident.pending_deltas;
  }
  if (pending.empty()) {
    return Status::InvalidArgument(
        "tenant has unpersisted updates but no recorded delta batches; "
        "'detach " + tenant.spec.name + " force' discards them");
  }
  // Non-destructive layout: pending deltas continue the spec's chain next
  // to the snapshot, the current graph lands next to the original graph
  // file. Re-attaching with snapshot=<orig> deltas=<orig,+pending>
  // graph=<graph>.latest resolves to exactly the detached state.
  std::vector<std::string> written;
  std::size_t chain_index = tenant.spec.delta_paths.size();
  for (const DeltaData& delta : pending) {
    const std::string path = tenant.spec.snapshot_path + ".pending" +
                             std::to_string(++chain_index) + ".nucdelta";
    if (Status s = SaveDelta(delta, path); !s.ok()) return s;
    written.push_back(path);
  }
  const std::string graph_path = tenant.spec.graph_path + ".latest";
  const Graph g = resident.updater->maintainer().ToGraph();
  if (Status s = WriteEdgeList(g, graph_path); !s.ok()) return s;
  written.push_back(graph_path);
  {
    // Erase exactly what was copied (not clear()): even if a caller ever
    // ran this without the apply lock excluding new updates, a delta that
    // arrived mid-persist would survive for the next persist instead of
    // being dropped unwritten, and the tenant would stay dirty.
    MutexLock pending_lock(resident.pending_mutex);
    resident.pending_deltas.erase(
        resident.pending_deltas.begin(),
        resident.pending_deltas.begin() +
            static_cast<std::ptrdiff_t>(pending.size()));
    if (resident.pending_deltas.empty()) {
      resident.dirty.store(false, std::memory_order_relaxed);
    }
  }
  if (persisted != nullptr) *persisted = std::move(written);
  return Status::Ok();
}

Status SnapshotRegistry::Detach(const std::string& name, bool force,
                                std::vector<std::string>* persisted) {
  MutexLock lock(mutex_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + name + "'");
  }
  Tenant& tenant = it->second;
  if (tenant.resident != nullptr &&
      tenant.resident->dirty.load(std::memory_order_relaxed) && !force) {
    // Unpersisted updates never vanish silently: write them out, or (on
    // failure) refuse and leave the tenant attached and retryable.
    if (Status s = PersistDirtyLocked(tenant, persisted); !s.ok()) {
      return TenantError(name, s);
    }
  }
  if (tenant.resident != nullptr) {
    // Budget accounting drops now; a live Lease keeps the state itself
    // alive (shared_ptr) until the in-flight batch finishes — including
    // an mmap tenant's mapping, which unmaps when the last lease goes.
    resident_bytes_ -= tenant.resident->heap_bytes;
    mapped_bytes_ -= tenant.resident->mapped_bytes;
    LruCacheStats cache = tenant.resident->engine->CacheStats();
    cache.bytes = 0;  // counters only: the detached engine's bytes free
    cache.entries = 0;
    detached_cache_.Add(cache);
  }
  // The tenant's whole counter lineage (engines it retired via eviction
  // included) folds into the registry aggregate — mirror of the eviction
  // path's retired_cache.Add, one level up.
  detached_cache_.Add(tenant.retired_cache);
  ++detaches_;
  tenants_.erase(it);
  return Status::Ok();
}

StatusOr<SnapshotRegistry::Lease> SnapshotRegistry::Acquire(
    const std::string& name) {
  MutexLock lock(mutex_);
  for (;;) {
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return Status::NotFound("unknown tenant '" + name +
                              "' (attach it first)");
    }
    Tenant& tenant = it->second;
    if (tenant.resident != nullptr) {
      ++tenant.hits;
      tenant.last_used = ++tick_;
      tenant.resident->pins.fetch_add(1, std::memory_order_relaxed);
      std::shared_ptr<Resident> resident = tenant.resident;
      EvictLocked();  // the just-pinned tenant is exempt; others may go
      return Lease(this, name, std::move(resident));
    }

    if (tenant.loading != nullptr) {
      // Another Acquire is already re-loading this tenant: coalesce onto
      // its latch instead of loading twice. Each waiter reports the
      // outcome individually; on success the loop re-finds the installed
      // resident (or whatever detach/attach did meanwhile).
      std::shared_ptr<LoadState> state = tenant.loading;
      while (!state->done) load_cv_.wait(lock.native());
      if (!state->status.ok()) return TenantError(name, state->status);
      continue;
    }

    // Become the loader. The latch keeps this tenant's re-load exclusive
    // while the mutex is DROPPED for the disk work, so resident tenants
    // keep serving and other evicted tenants load concurrently.
    auto state = std::make_shared<LoadState>();
    tenant.loading = state;
    const TenantSpec spec = tenant.spec;
    lock.Unlock();
    StatusOr<std::shared_ptr<Resident>> loaded =
        LoadResident(this, spec, options_);
    lock.Lock();
    state->status = loaded.ok() ? Status::Ok() : loaded.status();
    state->done = true;
    auto it2 = tenants_.find(name);
    if (it2 != tenants_.end() && it2->second.loading == state) {
      it2->second.loading.reset();
    }
    load_cv_.notify_all();
    if (!loaded.ok()) {
      // Reported per-Acquire; the latch is cleared, so the tenant stays
      // attached and the next Acquire retries the load.
      return TenantError(name, loaded.status());
    }
    if (it2 == tenants_.end()) {
      return Status::NotFound("tenant '" + name +
                              "' was detached during re-load");
    }
    Tenant& current = it2->second;
    if (current.resident == nullptr) {
      current.resident = std::move(*loaded);
      ++current.loads;
      resident_bytes_ += current.resident->heap_bytes;
      mapped_bytes_ += current.resident->mapped_bytes;
    } else {
      // Detached and re-attached while we were loading: serve the fresh
      // attach's state and drop ours.
      ++current.hits;
    }
    current.last_used = ++tick_;
    current.resident->pins.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<Resident> resident = current.resident;
    EvictLocked();
    return Lease(this, name, std::move(resident));
  }
}

void SnapshotRegistry::EvictLocked() {
  if (options_.memory_budget_bytes <= 0) return;
  while (resident_bytes_ > options_.memory_budget_bytes) {
    Tenant* victim = nullptr;
    const std::string* victim_name = nullptr;
    for (auto& [name, tenant] : tenants_) {
      if (tenant.resident == nullptr) continue;
      if (tenant.resident->pins.load(std::memory_order_relaxed) > 0) {
        continue;  // a batch is in flight: never pull its state
      }
      if (tenant.resident->dirty.load(std::memory_order_relaxed)) {
        continue;  // unpersisted updates: eviction would roll back
      }
      if (victim == nullptr || tenant.last_used < victim->last_used) {
        victim = &tenant;
        victim_name = &name;
      }
    }
    if (victim == nullptr) return;  // budget is best-effort under pinning
    const auto evict_start = std::chrono::steady_clock::now();
    LruCacheStats cache = victim->resident->engine->CacheStats();
    // The evicted engine's cached bytes are freed with it: fold only the
    // counter lineage, not the (now meaningless) byte gauge.
    cache.bytes = 0;
    cache.entries = 0;
    victim->retired_cache.Add(cache);
    resident_bytes_ -= victim->resident->heap_bytes;
    mapped_bytes_ -= victim->resident->mapped_bytes;
    // For an mmap tenant this reset IS the munmap (absent leases): the
    // mapping goes with the source, and the file pages become ordinary
    // page-cache entries the kernel may keep or drop.
    victim->resident.reset();
    ++victim->evictions;
    if (obs::MetricsEnabled()) {
      const std::int64_t us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - evict_start)
              .count();
      obs::MetricsRegistry::Global()
          .GetHistogram("nucleus_registry_evict_us", *victim_name)
          ->Observe(us);
    }
  }
}

void SnapshotRegistry::MarkUpdated(const std::shared_ptr<Resident>& resident,
                                   const DeltaData* delta) {
  // Deliberately touches no registry state (the update counter lives on
  // the resident): callers arrive holding the updater's apply mutex, and
  // taking mutex_ here would deadlock against PersistDirtyLocked, which
  // acquires the two in the opposite order. Queue, flag and counter move
  // under pending_mutex so a persist's drain sees them as one unit.
  MutexLock pending_lock(resident->pending_mutex);
  if (delta != nullptr) resident->pending_deltas.push_back(*delta);
  resident->dirty.store(true, std::memory_order_relaxed);
  resident->updates.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::string> SnapshotRegistry::TenantNames() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;  // std::map iteration order is already sorted
}

StatusOr<TenantStats> SnapshotRegistry::Stats(const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + name + "'");
  }
  const Tenant& tenant = it->second;
  TenantStats stats;
  stats.resident = tenant.resident != nullptr;
  stats.live = !tenant.spec.graph_path.empty();
  stats.loads = tenant.loads;
  stats.evictions = tenant.evictions;
  stats.hits = tenant.hits;
  stats.cache = tenant.retired_cache;
  if (tenant.resident != nullptr) {
    // The counter lives on the resident; an EVICTED tenant's count is
    // always 0 (updates dirty a resident and dirty residents are never
    // evicted), so reading it only while resident loses nothing.
    stats.updates = tenant.resident->updates.load(std::memory_order_relaxed);
    stats.dirty = tenant.resident->dirty.load(std::memory_order_relaxed);
    stats.pins = tenant.resident->pins.load(std::memory_order_relaxed);
    stats.resident_bytes = tenant.resident->heap_bytes;
    stats.heap_bytes = tenant.resident->heap_bytes;
    stats.mapped_bytes = tenant.resident->mapped_bytes;
    const LruCacheStats resident_cache =
        tenant.resident->engine->CacheStats();
    stats.cache.Add(resident_cache);
    stats.cache.entries = resident_cache.entries;  // gauges: resident only
    stats.cache.bytes = resident_cache.bytes;
  }
  return stats;
}

RegistrySummary SnapshotRegistry::Summary() const {
  MutexLock lock(mutex_);
  RegistrySummary summary;
  summary.tenants = static_cast<std::int64_t>(tenants_.size());
  summary.resident_bytes = resident_bytes_;
  summary.mapped_bytes = mapped_bytes_;
  summary.budget_bytes = options_.memory_budget_bytes;
  summary.detaches = detaches_;
  summary.detached_cache = detached_cache_;
  return summary;
}

std::int64_t SnapshotRegistry::ResidentBytes() const {
  MutexLock lock(mutex_);
  return resident_bytes_;
}

SnapshotRegistry::Lease::Lease(Lease&& other) noexcept
    : registry_(other.registry_),
      name_(std::move(other.name_)),
      resident_(std::move(other.resident_)) {
  other.registry_ = nullptr;
}

SnapshotRegistry::Lease& SnapshotRegistry::Lease::operator=(
    Lease&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    name_ = std::move(other.name_);
    resident_ = std::move(other.resident_);
    other.registry_ = nullptr;
  }
  return *this;
}

SnapshotRegistry::Lease::~Lease() { Release(); }

void SnapshotRegistry::Lease::Release() {
  if (resident_ != nullptr) {
    resident_->pins.fetch_sub(1, std::memory_order_relaxed);
    resident_.reset();
    // The drop may have turned an over-budget overshoot (tolerated while
    // pinned) into evictable idleness; re-enforce now rather than waiting
    // for the next Acquire, which may never come on an idle registry.
    if (registry_ != nullptr) registry_->EnforceBudget();
  }
  registry_ = nullptr;
}

void SnapshotRegistry::EnforceBudget() {
  MutexLock lock(mutex_);
  EvictLocked();
}

void SnapshotRegistry::Lease::MarkUpdated() {
  if (resident_ != nullptr) SnapshotRegistry::MarkUpdated(resident_, nullptr);
}

void SnapshotRegistry::Lease::MarkUpdated(const DeltaData& delta) {
  if (resident_ != nullptr) SnapshotRegistry::MarkUpdated(resident_, &delta);
}

void PublishRegistryMetrics(const SnapshotRegistry& registry,
                            obs::MetricsRegistry& m) {
  const RegistrySummary summary = registry.Summary();
  // Unlabeled children are the registry-wide aggregates; the per-tenant
  // values join the same families under their tenant label.
  m.GetGauge("nucleus_registry_tenants")
      ->Set(static_cast<double>(summary.tenants));
  m.GetGauge("nucleus_registry_resident_bytes")
      ->Set(static_cast<double>(summary.resident_bytes));
  m.GetGauge("nucleus_registry_mapped_bytes")
      ->Set(static_cast<double>(summary.mapped_bytes));
  m.GetGauge("nucleus_registry_budget_bytes")
      ->Set(static_cast<double>(summary.budget_bytes));
  for (const std::string& name : registry.TenantNames()) {
    const StatusOr<TenantStats> stats = registry.Stats(name);
    if (!stats.ok()) continue;  // detached between calls
    m.GetCounter("nucleus_registry_loads_total", name)->Set(stats->loads);
    m.GetCounter("nucleus_registry_evictions_total", name)
        ->Set(stats->evictions);
    m.GetGauge("nucleus_registry_resident_bytes", name)
        ->Set(static_cast<double>(stats->resident_bytes));
    m.GetGauge("nucleus_registry_mapped_bytes", name)
        ->Set(static_cast<double>(stats->mapped_bytes));
    m.GetGauge("nucleus_cache_hit_ratio", name)
        ->Set(stats->cache.HitRatio());
    m.GetGauge("nucleus_cache_bytes", name)
        ->Set(static_cast<double>(stats->cache.bytes));
  }
}

}  // namespace nucleus
