// .nucsnap format v2: THE snapshot format, on disk and in memory.
//
// Every snapshot this repo writes is v2, and every served snapshot is held
// in the v2 section layout (store/snapshot_source.h), whether mapped from
// a file or encoded into an owned buffer. The older v1 layout (snapshot.h)
// is only read, to upgrade it. What the layout buys:
//
//   * fixed-width little-endian sections at 8-byte-aligned offsets, so a
//     mapping of the file IS the serving representation (zero-copy spans,
//     no FromParts rebuild);
//   * a section DIRECTORY in the header with one FNV-1a digest per
//     section, so integrity and structural validation run lazily, per
//     section, on first access — opening a v2 snapshot validates only the
//     header + directory (O(sections), not O(bytes));
//   * a paged MEMBER STORE: cliques grouped by hierarchy node in DFS
//     preorder (children in ascending id order, each node's direct group
//     sorted ascending) plus per-node [sub_begin, sub_end) ranges, so any
//     node's full subtree member list is ONE contiguous slice of the
//     `cliques_pre` section — materialization is copy + sort, and
//     `subtree_members` is just `sub_end - sub_begin`;
//   * a precomputed density ranking (lambda >= 1 nodes by lambda
//     descending, id ascending), so `top` queries never scan the tree.
//
// v2 always embeds the binary-lifting index tables (the writer builds them
// if the source snapshot lacks them). On-disk layout (all integers
// little-endian; see README.md in this directory for the full spec):
//
//   preamble (72 bytes, fixed):
//     bytes  0..7   magic "NUCSNAP2"
//     bytes  8..11  format version (uint32, 2)
//     bytes 12..15  flags (uint32, must be 0)
//     bytes 16..19  family (int32)          bytes 20..23  algorithm (int32)
//     bytes 24..27  |V| (int32)             bytes 28..35  |E| (int64)
//     bytes 36..43  graph fingerprint       bytes 44..51  |K_r| (int64)
//     bytes 52..55  max lambda (int32)      bytes 56..59  node count (int32)
//     bytes 60..63  index levels (int32)    bytes 64..67  ranked nodes (int32)
//     bytes 68..71  section count (uint32, kSnapshotV2SectionCount)
//   directory (section count x 32 bytes):
//     {section id (uint32), reserved (uint32, 0), offset (int64),
//      length (int64), FNV-1a digest (uint64)} per section, in id order
//   header digest (8 bytes): FNV-1a over preamble + directory
//   sections: each at an 8-byte-aligned offset, zero-padded up to the next
//     alignment boundary; lengths are fully determined by the preamble
//     counts, and the digest covers exactly `length` bytes.
#ifndef NUCLEUS_STORE_SNAPSHOT_V2_H_
#define NUCLEUS_STORE_SNAPSHOT_V2_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nucleus/store/snapshot.h"
#include "nucleus/util/status.h"

namespace nucleus {

inline constexpr char kSnapshotV2Magic[8] = {'N', 'U', 'C', 'S',
                                             'N', 'A', 'P', '2'};
inline constexpr std::uint32_t kSnapshotV2Version = 2;

/// Section ids, in file order. Every v2 snapshot carries all of them.
enum class SnapshotSection : std::uint32_t {
  kLambda = 1,          // |K_r| x int32   peeling numbers per clique
  kNodeLambda = 2,      // nodes x int32   per hierarchy node
  kNodeParent = 3,      // nodes x int32   kInvalidId for the root
  kNodeOfClique = 4,    // |K_r| x int32   deepest node per clique
  kDepth = 5,           // nodes x int32   root = 0
  kUp = 6,              // levels*nodes x int32, row-major jump tables
  kSubBegin = 7,        // nodes x int64   member-store range start
  kSubEnd = 8,          // nodes x int64   member-store range end
  kCliquesPre = 9,      // |K_r| x int32   cliques in DFS preorder groups
  kDensityRanking = 10  // ranked x int32  lambda>=1 nodes, densest first
};

inline constexpr std::uint32_t kSnapshotV2SectionCount = 10;
inline constexpr std::int64_t kSnapshotV2PreambleBytes = 72;
inline constexpr std::int64_t kSnapshotV2DirEntryBytes = 32;
inline constexpr std::int64_t kSnapshotV2HeaderBytes =
    kSnapshotV2PreambleBytes +
    kSnapshotV2SectionCount * kSnapshotV2DirEntryBytes + 8;

/// One parsed directory entry: where a section lives and what its bytes
/// must hash to. Offsets/lengths are validated against the file size at
/// open; the digest is checked on first access (SnapshotSource::Ensure).
struct SnapshotSectionEntry {
  std::int64_t offset = 0;
  std::int64_t length = 0;
  std::uint64_t digest = 0;
};

/// Writes `snapshot` to `path` in the v2 layout, atomically (temp file +
/// fsync + rename), streaming each section straight from memory. Builds
/// the index tables when the snapshot lacks them and derives the member
/// store + density ranking from the hierarchy; the input is not required
/// to carry has_index.
Status SaveSnapshotV2(const SnapshotData& snapshot, const std::string& path);

/// Loads a v2 file EAGERLY into a heap SnapshotData (hierarchy rebuilt,
/// index tables attached) — what chains, live updates and tooling consume.
/// Every section is digest-checked and structurally validated first.
StatusOr<SnapshotData> LoadSnapshotV2(const std::string& path);

/// Peeks at the magic/version prefix: 1 for v1 files, 2 for v2 files, a
/// Status for anything else (missing file, foreign magic, truncation).
StatusOr<std::uint32_t> ReadSnapshotVersion(const std::string& path);

/// Rewrites a snapshot (either version) as v2 at `out_path`. Lossless: the
/// upgraded file loads to a state that answers every query byte-
/// identically to the original (pinned in tests/snapshot_v2_test.cc).
Status UpgradeSnapshot(const std::string& in_path,
                       const std::string& out_path);

// Shared by the writer, SnapshotSource (store/snapshot_source.cc) and the
// v1 reader (store/snapshot.cc). Not part of the public store API.
namespace store_v2_internal {

/// Parsed preamble + directory of one v2 file.
struct V2Header {
  SnapshotMeta meta;
  std::int32_t num_nodes = 0;
  std::int32_t levels = 0;
  std::int32_t num_ranked = 0;
  SnapshotSectionEntry sections[kSnapshotV2SectionCount];
};

const char* SectionName(SnapshotSection section);
std::int64_t ExpectedSectionLength(SnapshotSection section,
                                   const V2Header& header);

/// The v2 digest: FNV-1a folded over 8-byte little-endian words (classic
/// byte-wise FNV-1a over the < 8-byte tail). One multiply per word instead
/// of per byte keeps cold-start section validation at memory bandwidth —
/// this is what mmap time-to-first-answer pays, so it matters. v2-only;
/// v1 files and delta records keep the byte-wise record_io checksum.
std::uint64_t SectionDigest(const void* data, std::size_t size);

/// Validates magic/version/flags/counts, the header digest, and every
/// directory entry (expected length, aligned in-bounds offset, no overlap,
/// exact file size). O(header); section BYTES are not touched.
Status ParseV2Header(const unsigned char* data, std::int64_t file_size,
                     const std::string& path, V2Header* header);

/// FNV-1a over exactly `entry.length` bytes vs. the directory digest.
Status VerifySectionDigest(const unsigned char* base,
                           const SnapshotSectionEntry& entry,
                           SnapshotSection section, const std::string& path);

// Structural validators, grouped by the sections they read. Dependencies
// (callers must have validated, in order): tree ← nothing; assign/index ←
// tree; sub ← tree+assign; pre ← sub; ranking ← tree.
Status ValidateTreeSections(const std::string& path, const V2Header& h,
                            const Lambda* node_lambda,
                            const std::int32_t* node_parent);
Status ValidateAssignSections(const std::string& path, const V2Header& h,
                              const Lambda* lambda, const Lambda* node_lambda,
                              const std::int32_t* node_of_clique);
Status ValidateIndexSections(const std::string& path, const V2Header& h,
                             const std::int32_t* node_parent,
                             const std::int32_t* depth,
                             const std::int32_t* up);
Status ValidateSubSections(const std::string& path, const V2Header& h,
                           const std::int32_t* node_parent,
                           const std::int32_t* node_of_clique,
                           const std::int64_t* sub_begin,
                           const std::int64_t* sub_end);
Status ValidateCliquesPre(const std::string& path, const V2Header& h,
                          const std::int32_t* node_of_clique,
                          const std::int64_t* sub_begin,
                          const std::int64_t* sub_end,
                          const std::int32_t* cliques_pre);
Status ValidateRankingSection(const std::string& path, const V2Header& h,
                              const Lambda* node_lambda,
                              const std::int32_t* ranking);

/// One snapshot's v2 encoding, planned but not materialized: the header
/// bytes and, per section, the bytes to emit at which offset. Sections
/// point into the derived arrays below or straight into the SnapshotData
/// the plan was built from, which must outlive it. SaveSnapshotV2 streams
/// a plan to disk; SnapshotSource::FromSnapshotData copies it into memory.
struct V2Image {
  struct Section {
    const void* data = nullptr;
    std::int64_t offset = 0;
    std::int64_t length = 0;
  };
  std::vector<unsigned char> header;  // preamble + directory + digest
  Section sections[kSnapshotV2SectionCount];
  std::int64_t size = 0;  // whole file: header + 8-byte-padded sections

  std::vector<Lambda> node_lambda;
  std::vector<std::int32_t> node_parent;
  HierarchyIndexTables built_tables;  // only when the snapshot has none
  std::vector<std::int64_t> sub_begin;
  std::vector<std::int64_t> sub_end;
  std::vector<std::int32_t> cliques_pre;
  std::vector<std::int32_t> ranking;
};

/// Derives every v2 section of `snapshot` (which must carry a built
/// hierarchy) and lays them out. `image` must be freshly constructed.
void PlanV2Image(const SnapshotData& snapshot, V2Image* image);

}  // namespace store_v2_internal

}  // namespace nucleus

#endif  // NUCLEUS_STORE_SNAPSHOT_V2_H_
