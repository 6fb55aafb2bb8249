// SnapshotSource: the store→serve boundary.
//
// A SnapshotSource is one loaded snapshot in the .nucsnap v2 section
// layout (snapshot_v2.h): the parsed header plus flat, read-only spans
// over the sections — per-clique lambdas, the hierarchy tree arrays, the
// binary-lifting jump tables, the subtree member store and the density
// ranking. The spans are captured once, when the source is built, so the
// query hot path reads them directly. The bytes behind them have one of
// two owners:
//
//   * a read-only MAPPING of a v2 file (SnapshotMemoryMode::kMmap). Zero
//     copy; per-section digests and structural invariants are verified
//     lazily, on the first query that needs them, in dependency groups.
//     Eviction is an munmap, and resident bytes are whatever the kernel
//     chose to keep paged in — not the snapshot size.
//   * an OWNED buffer: a v2 file read into memory (kHeap, every group
//     verified before the open returns), or the in-memory v2 encoding of
//     a SnapshotData (FromSnapshotData: the live-update and test path,
//     and how a v1 file is upgraded at open).
//
// The only heap-resident hot set beyond an owned buffer is the engine's
// byte-budgeted member cache.
#ifndef NUCLEUS_STORE_SNAPSHOT_SOURCE_H_
#define NUCLEUS_STORE_SNAPSHOT_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/mutex.h"
#include "nucleus/util/status.h"

namespace nucleus {

/// How a serving path should hold a snapshot file in memory.
enum class SnapshotMemoryMode {
  kHeap,  // read into an owned buffer, every section verified at open
  kMmap,  // map the file, verify lazily, serve zero-copy
};

/// Verification demands a query kind can place on a source, OR-able. Each
/// maps onto the per-section digest + structural checks of the sections
/// that query reads, run once.
inline constexpr std::uint32_t kNeedLookup = 1u << 0;   // lambda / assignment
inline constexpr std::uint32_t kNeedIndex = 1u << 1;    // depth + jump tables
inline constexpr std::uint32_t kNeedSizes = 1u << 2;    // subtree intervals
inline constexpr std::uint32_t kNeedMembers = 1u << 3;  // member store
inline constexpr std::uint32_t kNeedRanking = 1u << 4;  // density ranking
inline constexpr std::uint32_t kNeedAll =
    kNeedLookup | kNeedIndex | kNeedSizes | kNeedMembers | kNeedRanking;

class SnapshotSource final {
 public:
  /// Encodes `snapshot` into an owned v2 image, byte-identical to the file
  /// SaveSnapshotV2 writes (index tables built when absent, member store
  /// and ranking derived). The input is a validated load or a fresh build,
  /// so every section counts as verified.
  static std::shared_ptr<const SnapshotSource> FromSnapshotData(
      const SnapshotData& snapshot);

  /// Opens a v2 file — no v1 dispatch, see OpenSnapshotSource. kMmap maps
  /// it and verifies lazily; kHeap reads it into an owned buffer and runs
  /// Ensure(kNeedAll) before returning, so a corrupt section fails here.
  static StatusOr<std::shared_ptr<const SnapshotSource>> OpenV2(
      const std::string& path, SnapshotMemoryMode mode);

  SnapshotSource(const SnapshotSource&) = delete;
  SnapshotSource& operator=(const SnapshotSource&) = delete;
  ~SnapshotSource();

  const SnapshotMeta& meta() const { return header_.meta; }
  std::int32_t NumNodes() const { return header_.num_nodes; }
  /// Nodes with lambda >= 1 (= density ranking length).
  std::int64_t NumNuclei() const { return header_.num_ranked; }

  // Section views. Valid for the lifetime of the source; a view whose
  // section has not passed Ensure() may hold corrupt bytes, so callers
  // must Ensure() the matching need bits before trusting the contents.
  std::span<const Lambda> CliqueLambdas() const { return lambda_; }
  std::span<const Lambda> NodeLambdas() const { return node_lambda_; }
  std::span<const std::int32_t> NodeParents() const { return node_parent_; }
  std::span<const std::int32_t> NodeOfCliques() const {
    return node_of_clique_;
  }
  std::span<const std::int32_t> Depths() const { return depth_; }
  /// Row-major levels x nodes jump table (row j = 2^j-th ancestors).
  std::span<const std::int32_t> UpTable() const { return up_; }
  std::int32_t IndexLevels() const { return header_.levels; }
  /// The 2^level-th ancestor of `node` (kInvalidId above the root).
  std::int32_t Up(std::int32_t level, std::int32_t node) const {
    return up_[static_cast<std::size_t>(level) * node_lambda_.size() +
               static_cast<std::size_t>(node)];
  }
  /// lambda >= 1 node ids, ordered (lambda desc, id asc).
  std::span<const std::int32_t> DensityRanking() const { return ranking_; }

  /// Number of cliques in `node`'s subtree (== MaterializeMembers size).
  std::int64_t SubtreeSize(std::int32_t node) const {
    return sub_end_[node] - sub_begin_[node];
  }
  /// Sorted member clique ids of `node`'s subtree.
  std::vector<CliqueId> MaterializeMembers(std::int32_t node) const;

  /// Verifies every section group in `needs` (idempotent, thread-safe; a
  /// failure is sticky and returned to every later caller).
  Status Ensure(std::uint32_t needs) const;

  /// The heap form consumers that edit or chain a snapshot need: hierarchy
  /// rebuilt, index tables attached. Requires Ensure(kNeedAll) to have
  /// succeeded.
  SnapshotData ToSnapshotData() const;

  /// Heap bytes this source holds: the owned image (0 for a mapping) plus
  /// its own bookkeeping — NOT the engine's member cache.
  std::int64_t HeapBytes() const;
  /// Bytes of file mapped into the address space (0 for owned sources).
  std::int64_t MappedBytes() const { return mapping_ != nullptr ? size_ : 0; }

 private:
  SnapshotSource() = default;

  /// Parses the header of the `size_` bytes at `base_` and captures the
  /// section spans.
  Status Adopt();
  template <typename T>
  std::span<const T> Section(SnapshotSection id) const;
  Status VerifyDigests(std::initializer_list<SnapshotSection> sections) const;
  Status VerifyGroup(std::uint32_t group) const;

  // Exactly one of mapping_ / owned_ holds the bytes at base_.
  void* mapping_ = nullptr;
  std::unique_ptr<std::uint64_t[]> owned_;
  const unsigned char* base_ = nullptr;
  std::int64_t size_ = 0;
  std::string path_;
  store_v2_internal::V2Header header_;

  std::span<const Lambda> lambda_;
  std::span<const Lambda> node_lambda_;
  std::span<const std::int32_t> node_parent_;
  std::span<const std::int32_t> node_of_clique_;
  std::span<const std::int32_t> depth_;
  std::span<const std::int32_t> up_;
  std::span<const std::int64_t> sub_begin_;
  std::span<const std::int64_t> sub_end_;
  std::span<const std::int32_t> cliques_pre_;
  std::span<const std::int32_t> ranking_;

  mutable std::atomic<std::uint32_t> verified_{0};
  mutable Mutex verify_mutex_;
  // Sticky first verification failure.
  mutable Status error_ GUARDED_BY(verify_mutex_);
};

/// Opens any snapshot file. v2 files go through SnapshotSource::OpenV2 in
/// `mode`. A v1 file has no section layout to map, so in either mode it is
/// loaded eagerly and upgraded in memory (FromSnapshotData).
StatusOr<std::shared_ptr<const SnapshotSource>> OpenSnapshotSource(
    const std::string& path, SnapshotMemoryMode mode);

// Query primitives over a source's spans, answer-identical to
// HierarchyIndex::{NucleusAtLevel, SmallestCommonNucleus} (which the
// query_engine tests use as the reference).
std::int32_t ViewNucleusAtLevel(const SnapshotSource& source, CliqueId u,
                                Lambda k);
std::int32_t ViewSmallestCommonNucleus(const SnapshotSource& source,
                                       CliqueId u, CliqueId v);

}  // namespace nucleus

#endif  // NUCLEUS_STORE_SNAPSHOT_SOURCE_H_
