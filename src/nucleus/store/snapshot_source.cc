#include "nucleus/store/snapshot_source.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace nucleus {

namespace {

namespace v2 = store_v2_internal;

// Lazy verification groups. Each bit covers the digests + structural
// invariants of the sections one query family touches; dependencies are
// verified first so a validator can trust the arrays it reads.
constexpr std::uint32_t kGroupTree = 1u << 0;     // node_lambda, node_parent
constexpr std::uint32_t kGroupAssign = 1u << 1;   // lambda, node_of_clique
constexpr std::uint32_t kGroupIndex = 1u << 2;    // depth, up
constexpr std::uint32_t kGroupSub = 1u << 3;      // sub_begin, sub_end
constexpr std::uint32_t kGroupPre = 1u << 4;      // cliques_pre
constexpr std::uint32_t kGroupRanking = 1u << 5;  // density_ranking

std::uint32_t GroupsForNeeds(std::uint32_t needs) {
  std::uint32_t groups = 0;
  if (needs & kNeedLookup) groups |= kGroupTree | kGroupAssign;
  if (needs & kNeedIndex) groups |= kGroupTree | kGroupAssign | kGroupIndex;
  if (needs & kNeedSizes) groups |= kGroupTree | kGroupAssign | kGroupSub;
  if (needs & kNeedMembers) {
    groups |= kGroupTree | kGroupAssign | kGroupSub | kGroupPre;
  }
  if (needs & kNeedRanking) groups |= kGroupTree | kGroupRanking;
  return groups;
}

/// Reads exactly `size` bytes from `fd` into `data`.
Status ReadFully(int fd, unsigned char* data, std::int64_t size,
                 const std::string& path) {
  std::int64_t got = 0;
  while (got < size) {
    const ssize_t n =
        ::read(fd, data + got, static_cast<std::size_t>(size - got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::Internal(path + ": read failed: " +
                              std::strerror(errno));
    }
    if (n == 0) {
      return Status::OutOfRange(path + ": file: truncated while reading");
    }
    got += n;
  }
  return Status::Ok();
}

}  // namespace

SnapshotSource::~SnapshotSource() {
  if (mapping_ != nullptr) ::munmap(mapping_, static_cast<std::size_t>(size_));
}

std::shared_ptr<const SnapshotSource> SnapshotSource::FromSnapshotData(
    const SnapshotData& snapshot) {
  v2::V2Image image;
  v2::PlanV2Image(snapshot, &image);
  std::shared_ptr<SnapshotSource> source(new SnapshotSource());
  source->path_ = "in-memory snapshot";
  source->size_ = image.size;
  // Value-initialized, so the alignment padding between sections is zero
  // exactly as in a written file.
  source->owned_.reset(
      new std::uint64_t[static_cast<std::size_t>(image.size / 8)]());
  auto* bytes = reinterpret_cast<unsigned char*>(source->owned_.get());
  std::memcpy(bytes, image.header.data(), image.header.size());
  for (const auto& section : image.sections) {
    if (section.length > 0) {
      std::memcpy(bytes + section.offset, section.data,
                  static_cast<std::size_t>(section.length));
    }
  }
  source->base_ = bytes;
  const Status adopted = source->Adopt();
  NUCLEUS_CHECK(adopted.ok());
  source->verified_.store(GroupsForNeeds(kNeedAll),
                          std::memory_order_relaxed);
  return source;
}

StatusOr<std::shared_ptr<const SnapshotSource>> SnapshotSource::OpenV2(
    const std::string& path, SnapshotMemoryMode mode) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path);
  }
  std::shared_ptr<SnapshotSource> source(new SnapshotSource());
  source->path_ = path;
  const Status loaded = [&]() -> Status {
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      return Status::Internal(path + ": fstat failed: " +
                              std::strerror(errno));
    }
    source->size_ = static_cast<std::int64_t>(st.st_size);
    if (source->size_ < kSnapshotV2HeaderBytes) {
      return Status::OutOfRange(path + ": header: truncated snapshot");
    }
    if (mode == SnapshotMemoryMode::kHeap) {
      source->owned_.reset(new std::uint64_t[static_cast<std::size_t>(
          (source->size_ + 7) / 8)]);
      auto* bytes = reinterpret_cast<unsigned char*>(source->owned_.get());
      source->base_ = bytes;
      return ReadFully(fd, bytes, source->size_, path);
    }
    void* base = ::mmap(nullptr, static_cast<std::size_t>(source->size_),
                        PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      return Status::Internal(path + ": mmap failed: " +
                              std::strerror(errno));
    }
    source->mapping_ = base;
    source->base_ = static_cast<const unsigned char*>(base);
    return Status::Ok();
  }();
  // A mapping keeps its own reference to the file; the descriptor is only
  // needed to create it (or to read the owned copy).
  ::close(fd);
  if (!loaded.ok()) return loaded;
  if (Status s = source->Adopt(); !s.ok()) return s;
  if (mode == SnapshotMemoryMode::kHeap) {
    if (Status s = source->Ensure(kNeedAll); !s.ok()) return s;
  }
  return std::shared_ptr<const SnapshotSource>(std::move(source));
}

Status SnapshotSource::Adopt() {
  if (Status s = v2::ParseV2Header(base_, size_, path_, &header_); !s.ok()) {
    return s;
  }
  lambda_ = Section<Lambda>(SnapshotSection::kLambda);
  node_lambda_ = Section<Lambda>(SnapshotSection::kNodeLambda);
  node_parent_ = Section<std::int32_t>(SnapshotSection::kNodeParent);
  node_of_clique_ = Section<std::int32_t>(SnapshotSection::kNodeOfClique);
  depth_ = Section<std::int32_t>(SnapshotSection::kDepth);
  up_ = Section<std::int32_t>(SnapshotSection::kUp);
  sub_begin_ = Section<std::int64_t>(SnapshotSection::kSubBegin);
  sub_end_ = Section<std::int64_t>(SnapshotSection::kSubEnd);
  cliques_pre_ = Section<std::int32_t>(SnapshotSection::kCliquesPre);
  ranking_ = Section<std::int32_t>(SnapshotSection::kDensityRanking);
  return Status::Ok();
}

template <typename T>
std::span<const T> SnapshotSource::Section(SnapshotSection id) const {
  const SnapshotSectionEntry& entry =
      header_.sections[static_cast<std::uint32_t>(id) - 1];
  return {reinterpret_cast<const T*>(base_ + entry.offset),
          static_cast<std::size_t>(entry.length) / sizeof(T)};
}

std::vector<CliqueId> SnapshotSource::MaterializeMembers(
    std::int32_t node) const {
  // One contiguous slice of the member store, re-sorted ascending.
  std::vector<CliqueId> members(cliques_pre_.begin() + sub_begin_[node],
                                cliques_pre_.begin() + sub_end_[node]);
  std::sort(members.begin(), members.end());
  return members;
}

Status SnapshotSource::Ensure(std::uint32_t needs) const {
  const std::uint32_t groups = GroupsForNeeds(needs);
  if ((verified_.load(std::memory_order_acquire) & groups) == groups) {
    return Status::Ok();
  }
  MutexLock lock(verify_mutex_);
  // A sticky failure: one corrupt section poisons the source, every later
  // query gets the original diagnosis instead of a re-scan.
  if (!error_.ok()) return error_;
  // Fixed order = dependency order (tree before everything, sub before
  // pre), regardless of which bits the caller asked for first.
  const std::uint32_t todo =
      groups & ~verified_.load(std::memory_order_relaxed);
  for (const std::uint32_t group :
       {kGroupTree, kGroupAssign, kGroupIndex, kGroupSub, kGroupPre,
        kGroupRanking}) {
    if ((todo & group) == 0) continue;
    if (Status s = VerifyGroup(group); !s.ok()) {
      error_ = s;
      return error_;
    }
    verified_.fetch_or(group, std::memory_order_release);
  }
  return Status::Ok();
}

Status SnapshotSource::VerifyDigests(
    std::initializer_list<SnapshotSection> sections) const {
  for (const SnapshotSection id : sections) {
    const SnapshotSectionEntry& entry =
        header_.sections[static_cast<std::uint32_t>(id) - 1];
    if (Status s = v2::VerifySectionDigest(base_, entry, id, path_);
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status SnapshotSource::VerifyGroup(std::uint32_t group) const {
  switch (group) {
    case kGroupTree:
      if (Status s = VerifyDigests(
              {SnapshotSection::kNodeLambda, SnapshotSection::kNodeParent});
          !s.ok()) {
        return s;
      }
      return v2::ValidateTreeSections(path_, header_, node_lambda_.data(),
                                      node_parent_.data());
    case kGroupAssign:
      if (Status s = VerifyDigests(
              {SnapshotSection::kLambda, SnapshotSection::kNodeOfClique});
          !s.ok()) {
        return s;
      }
      return v2::ValidateAssignSections(path_, header_, lambda_.data(),
                                        node_lambda_.data(),
                                        node_of_clique_.data());
    case kGroupIndex:
      if (Status s =
              VerifyDigests({SnapshotSection::kDepth, SnapshotSection::kUp});
          !s.ok()) {
        return s;
      }
      return v2::ValidateIndexSections(path_, header_, node_parent_.data(),
                                       depth_.data(), up_.data());
    case kGroupSub:
      if (Status s = VerifyDigests(
              {SnapshotSection::kSubBegin, SnapshotSection::kSubEnd});
          !s.ok()) {
        return s;
      }
      return v2::ValidateSubSections(path_, header_, node_parent_.data(),
                                     node_of_clique_.data(),
                                     sub_begin_.data(), sub_end_.data());
    case kGroupPre:
      if (Status s = VerifyDigests({SnapshotSection::kCliquesPre}); !s.ok()) {
        return s;
      }
      return v2::ValidateCliquesPre(path_, header_, node_of_clique_.data(),
                                    sub_begin_.data(), sub_end_.data(),
                                    cliques_pre_.data());
    case kGroupRanking:
      if (Status s = VerifyDigests({SnapshotSection::kDensityRanking});
          !s.ok()) {
        return s;
      }
      return v2::ValidateRankingSection(path_, header_, node_lambda_.data(),
                                        ranking_.data());
    default:
      return Status::Internal("unknown verification group");
  }
}

SnapshotData SnapshotSource::ToSnapshotData() const {
  SnapshotData snapshot;
  snapshot.meta = header_.meta;
  snapshot.peel.lambda.assign(lambda_.begin(), lambda_.end());
  snapshot.peel.max_lambda = header_.meta.max_lambda;
  snapshot.has_index = true;
  snapshot.index_tables.depth.assign(depth_.begin(), depth_.end());
  snapshot.index_tables.up.assign(up_.begin(), up_.end());
  snapshot.index_tables.levels = header_.levels;
  snapshot.hierarchy = NucleusHierarchy::FromParts(
      std::vector<Lambda>(node_lambda_.begin(), node_lambda_.end()),
      std::vector<std::int32_t>(node_parent_.begin(), node_parent_.end()),
      std::vector<std::int32_t>(node_of_clique_.begin(),
                                node_of_clique_.end()));
  return snapshot;
}

std::int64_t SnapshotSource::HeapBytes() const {
  return static_cast<std::int64_t>(sizeof(SnapshotSource)) +
         (owned_ != nullptr ? size_ : 0);
}

StatusOr<std::shared_ptr<const SnapshotSource>> OpenSnapshotSource(
    const std::string& path, SnapshotMemoryMode mode) {
  StatusOr<std::uint32_t> version = ReadSnapshotVersion(path);
  if (!version.ok()) return version.status();
  if (*version == 2) return SnapshotSource::OpenV2(path, mode);
  StatusOr<SnapshotData> snapshot = LoadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  return SnapshotSource::FromSnapshotData(*snapshot);
}

namespace {

std::int32_t Lca(const SnapshotSource& source, std::int32_t a,
                 std::int32_t b) {
  const std::span<const std::int32_t> depth = source.Depths();
  if (depth[a] < depth[b]) std::swap(a, b);
  std::int32_t diff = depth[a] - depth[b];
  for (std::int32_t j = 0; diff != 0; ++j, diff >>= 1) {
    if (diff & 1) a = source.Up(j, a);
  }
  if (a == b) return a;
  for (std::int32_t j = source.IndexLevels() - 1; j >= 0; --j) {
    if (source.Up(j, a) != source.Up(j, b)) {
      a = source.Up(j, a);
      b = source.Up(j, b);
    }
  }
  return source.Up(0, a);
}

}  // namespace

std::int32_t ViewNucleusAtLevel(const SnapshotSource& source, CliqueId u,
                                Lambda k) {
  const std::span<const Lambda> node_lambda = source.NodeLambdas();
  std::int32_t x = source.NodeOfCliques()[u];
  if (node_lambda[x] < k) return kInvalidId;
  // Lift to the highest ancestor still at lambda >= k: the k-nucleus is
  // the top of the chain segment whose lambda has not dropped below k.
  for (std::int32_t j = source.IndexLevels() - 1; j >= 0; --j) {
    const std::int32_t anc = source.Up(j, x);
    if (anc != kInvalidId && node_lambda[anc] >= k) x = anc;
  }
  return x;
}

std::int32_t ViewSmallestCommonNucleus(const SnapshotSource& source,
                                       CliqueId u, CliqueId v) {
  const std::span<const std::int32_t> node_of_clique = source.NodeOfCliques();
  const std::int32_t lca = Lca(source, node_of_clique[u], node_of_clique[v]);
  return source.NodeLambdas()[lca] < 1 ? kInvalidId : lca;
}

}  // namespace nucleus
