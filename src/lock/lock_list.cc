#include "src/lock/lock_list.h"

#include <algorithm>

namespace locus {

const char* LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kUnix:
      return "unix";
    case LockMode::kShared:
      return "shared";
    case LockMode::kExclusive:
      return "exclusive";
  }
  return "?";
}

AccessAllowed CompatibleAccess(LockMode held, LockMode acting) {
  switch (held) {
    case LockMode::kUnix:
      // No lock held by the other party: conventional Unix sharing.
      return AccessAllowed::kReadWrite;
    case LockMode::kShared:
      // Figure 1: Shared row — Unix and Shared accessors may read only.
      return acting == LockMode::kExclusive ? AccessAllowed::kNone : AccessAllowed::kReadOnly;
    case LockMode::kExclusive:
      return AccessAllowed::kNone;
  }
  return AccessAllowed::kNone;
}

bool LocksCompatible(LockMode held, LockMode requested) {
  return held == LockMode::kShared && requested == LockMode::kShared;
}

std::string ToString(const LockOwner& o) {
  if (o.txn.valid()) {
    return ToString(o.txn);
  }
  return "pid:" + std::to_string(o.pid);
}

size_t LockList::FirstCandidate(const Bucket& b, const ByteRange& r) {
  size_t i = std::lower_bound(b.begin(), b.end(), r.start,
                              [](const Entry& e, int64_t s) { return e.range.start < s; }) -
             b.begin();
  // At most one non-empty entry starting before `r` can cross into it
  // (entries are disjoint), but zero-length entries may sit between it and
  // the lower bound; walk back over them.
  while (i > 0 && (b[i - 1].range.Overlaps(r) || b[i - 1].range.empty())) {
    --i;
  }
  return i;
}

bool LockList::CanGrant(const ByteRange& range, const LockOwner& owner, LockMode mode) const {
  for (const auto& [key, bucket] : buckets_) {
    if (OwnerOf(key).SameAs(owner)) {
      continue;
    }
    // Retained locks are still held for synchronization purposes (section
    // 3.1: unlocked resources stay unavailable outside the transaction).
    for (size_t i = FirstCandidate(bucket, range);
         i < bucket.size() && bucket[i].range.start < range.end(); ++i) {
      if (bucket[i].range.Overlaps(range) && !LocksCompatible(bucket[i].mode, mode)) {
        return false;
      }
    }
  }
  return true;
}

void LockList::Carve(Bucket& bucket, const ByteRange& range, bool* inherits_dirty,
                     bool retain_unlocked) {
  size_t i = FirstCandidate(bucket, range);
  size_t j = i;
  bool overlaps = false;
  while (j < bucket.size() && bucket[j].range.start < range.end()) {
    overlaps = overlaps || bucket[j].range.Overlaps(range);
    ++j;
  }
  if (!overlaps) {
    return;
  }
  Bucket replaced;
  bool changed = false;
  for (size_t k = i; k < j; ++k) {
    const Entry& e = bucket[k];
    if (!e.range.Overlaps(range)) {
      replaced.push_back(e);
      continue;
    }
    changed = true;
    if (inherits_dirty != nullptr && e.covers_dirty) {
      *inherits_dirty = true;
    }
    ByteRange cut = e.range.Intersect(range);
    // Emit the pieces in offset order so the bucket stays sorted: the piece
    // before the cut, the (possibly retained) cut itself, the piece after.
    if (e.range.start < cut.start) {
      Entry rest = e;
      rest.range = ByteRange{e.range.start, cut.start - e.range.start};
      replaced.push_back(rest);
    }
    if (retain_unlocked) {
      // Unlock rules: rule 2 keeps dirty-covering locks, rule 1 keeps
      // transaction locks; non-transaction owners and non-transaction locks
      // are dropped outright.
      if (e.covers_dirty || (e.owner.txn.valid() && !e.non_transaction)) {
        Entry unlocked = e;
        unlocked.range = cut;
        unlocked.retained = true;
        replaced.push_back(unlocked);
      }
    }
    if (cut.end() < e.range.end()) {
      Entry rest = e;
      rest.range = ByteRange{cut.end(), e.range.end() - cut.end()};
      replaced.push_back(rest);
    }
  }
  if (!changed) {
    return;
  }
  // Pieces of a split entry can extend past the start of a later zero-length
  // window entry (which rode through uncut), so restore offset order.
  std::stable_sort(replaced.begin(), replaced.end(), [](const Entry& a, const Entry& b) {
    return a.range.start < b.range.start;
  });
  entry_count_ += static_cast<int64_t>(replaced.size()) - static_cast<int64_t>(j - i);
  bucket.erase(bucket.begin() + i, bucket.begin() + j);
  bucket.insert(bucket.begin() + i, replaced.begin(), replaced.end());
}

void LockList::Grant(const ByteRange& range, const LockOwner& owner, LockMode mode,
                     bool non_transaction) {
  bool inherits_dirty = false;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    if (OwnerOf(it->first).SameAs(owner)) {
      // Carve the new range out of the owner's previous entries; this is
      // what implements upgrade, downgrade, extension and contraction.
      Carve(it->second, range, &inherits_dirty, /*retain_unlocked=*/false);
      if (it->second.empty()) {
        it = EraseBucket(it);
        continue;
      }
    }
    ++it;
  }
  Entry granted;
  granted.range = range;
  granted.owner = owner;
  granted.mode = mode;
  granted.retained = false;
  granted.non_transaction = non_transaction;
  granted.covers_dirty = inherits_dirty && !non_transaction;
  Bucket& bucket = BucketOf(owner);
  bucket.insert(std::upper_bound(bucket.begin(), bucket.end(), granted,
                                 [](const Entry& a, const Entry& b) {
                                   return a.range.start < b.range.start;
                                 }),
                granted);
  ++entry_count_;
}

void LockList::Unlock(const ByteRange& range, const LockOwner& owner) {
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    if (OwnerOf(it->first).SameAs(owner)) {
      Carve(it->second, range, nullptr, /*retain_unlocked=*/true);
      if (it->second.empty()) {
        it = EraseBucket(it);
        continue;
      }
    }
    ++it;
  }
}

void LockList::MarkDirtyCovered(const ByteRange& range, const LockOwner& owner) {
  for (auto& [key, bucket] : buckets_) {
    if (!key.txn.valid() || !OwnerOf(key).SameAs(owner)) {
      continue;
    }
    for (size_t i = FirstCandidate(bucket, range);
         i < bucket.size() && bucket[i].range.start < range.end(); ++i) {
      if (bucket[i].range.Overlaps(range) && !bucket[i].non_transaction) {
        bucket[i].covers_dirty = true;
      }
    }
  }
}

void LockList::ReleaseTransaction(const TxnId& txn) {
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    if (it->first.txn == txn) {
      entry_count_ -= static_cast<int64_t>(it->second.size());
      it = EraseBucket(it);
    } else {
      ++it;
    }
  }
}

void LockList::ReleaseProcess(Pid pid) {
  auto it = buckets_.find(OwnerKey{pid, kNoTxn});
  if (it != buckets_.end()) {
    entry_count_ -= static_cast<int64_t>(it->second.size());
    EraseBucket(it);
  }
}

LockList::Bucket& LockList::BucketOf(const LockOwner& owner) {
  auto [it, inserted] = buckets_.try_emplace(KeyOf(owner));
  if (inserted && !spare_.empty()) {
    it->second = std::move(spare_.back());
    spare_.pop_back();
  }
  return it->second;
}

FlatMap<LockList::OwnerKey, LockList::Bucket>::iterator LockList::EraseBucket(
    FlatMap<OwnerKey, Bucket>::iterator it) {
  it->second.clear();
  spare_.push_back(std::move(it->second));
  return buckets_.erase(it);
}

void LockList::Reset() {
  while (!buckets_.empty()) {
    EraseBucket(buckets_.begin());
  }
  entry_count_ = 0;
}

LockMode LockList::ActingModeOver(const ByteRange& piece, const LockOwner& owner) const {
  // The accessor acts in the strongest mode it holds over the contested
  // bytes; with no covering lock it acts in Unix mode. Within one bucket at
  // most one (disjoint) entry can contain `piece`: the last one starting at
  // or before it.
  LockMode acting = LockMode::kUnix;
  for (const auto& [key, bucket] : buckets_) {
    if (!OwnerOf(key).SameAs(owner)) {
      continue;
    }
    auto it = std::upper_bound(bucket.begin(), bucket.end(), piece.start,
                               [](int64_t s, const Entry& e) { return s < e.range.start; });
    while (it != bucket.begin()) {
      --it;
      if (it->range.Contains(piece)) {
        if (it->mode == LockMode::kExclusive) {
          return LockMode::kExclusive;
        }
        if (it->mode == LockMode::kShared && acting == LockMode::kUnix) {
          acting = LockMode::kShared;
        }
        break;
      }
      if (!it->range.empty()) {
        break;  // A non-empty non-containing entry ends the walk (disjoint).
      }
    }
  }
  return acting;
}

bool LockList::AccessPermitted(const ByteRange& range, const LockOwner& owner,
                               bool write) const {
  for (const auto& [key, bucket] : buckets_) {
    if (OwnerOf(key).SameAs(owner)) {
      continue;
    }
    for (size_t i = FirstCandidate(bucket, range);
         i < bucket.size() && bucket[i].range.start < range.end(); ++i) {
      const Entry& e = bucket[i];
      ByteRange overlap = e.range.Intersect(range);
      if (overlap.empty()) {
        continue;
      }
      AccessAllowed allowed = CompatibleAccess(e.mode, ActingModeOver(overlap, owner));
      if (write && allowed != AccessAllowed::kReadWrite) {
        return false;
      }
      if (!write && allowed == AccessAllowed::kNone) {
        return false;
      }
    }
  }
  return true;
}

bool LockList::MayRead(const ByteRange& range, const LockOwner& owner) const {
  return AccessPermitted(range, owner, /*write=*/false);
}

bool LockList::MayWrite(const ByteRange& range, const LockOwner& owner) const {
  return AccessPermitted(range, owner, /*write=*/true);
}

std::vector<LockOwner> LockList::ConflictingOwners(const ByteRange& range,
                                                   const LockOwner& owner,
                                                   LockMode mode) const {
  std::vector<LockOwner> out;
  ForEachConflictingOwner(range, owner, mode,
                          [&](const LockOwner& holder) { out.push_back(holder); });
  return out;
}

namespace {

// Total bytes of `range` covered by the union of `pieces` (each already
// clipped to `range`); pieces from different buckets may overlap.
int64_t UnionBytes(std::vector<ByteRange>& pieces) {
  std::sort(pieces.begin(), pieces.end(),
            [](const ByteRange& a, const ByteRange& b) { return a.start < b.start; });
  int64_t bytes = 0;
  int64_t covered_to = INT64_MIN;
  for (const ByteRange& p : pieces) {
    int64_t s = std::max(p.start, covered_to);
    if (p.end() > s) {
      bytes += p.end() - s;
      covered_to = p.end();
    }
  }
  return bytes;
}

}  // namespace

bool LockList::Holds(const ByteRange& range, const LockOwner& owner, LockMode mode) const {
  std::vector<ByteRange> pieces;
  for (const auto& [key, bucket] : buckets_) {
    if (!OwnerOf(key).SameAs(owner)) {
      continue;
    }
    for (size_t i = FirstCandidate(bucket, range);
         i < bucket.size() && bucket[i].range.start < range.end(); ++i) {
      const Entry& e = bucket[i];
      if (e.retained) {
        continue;
      }
      bool strong_enough =
          e.mode == LockMode::kExclusive || (e.mode == mode && mode == LockMode::kShared);
      if (!strong_enough) {
        continue;
      }
      if (e.range.Contains(range)) {
        return true;  // One entry covers it all: the union is the range.
      }
      ByteRange piece = e.range.Intersect(range);
      if (!piece.empty()) {
        pieces.push_back(piece);
      }
    }
  }
  return UnionBytes(pieces) == range.length;
}

bool LockList::HoldsNonTransaction(const ByteRange& range, const LockOwner& owner) const {
  std::vector<ByteRange> pieces;
  for (const auto& [key, bucket] : buckets_) {
    if (!OwnerOf(key).SameAs(owner)) {
      continue;
    }
    for (size_t i = FirstCandidate(bucket, range);
         i < bucket.size() && bucket[i].range.start < range.end(); ++i) {
      const Entry& e = bucket[i];
      if (e.retained || !e.non_transaction) {
        continue;
      }
      if (e.range.Contains(range)) {
        return true;
      }
      ByteRange piece = e.range.Intersect(range);
      if (!piece.empty()) {
        pieces.push_back(piece);
      }
    }
  }
  return UnionBytes(pieces) == range.length;
}

std::vector<LockList::Entry> LockList::entries() const {
  std::vector<Entry> out;
  out.reserve(static_cast<size_t>(entry_count_));
  for (const auto& [key, bucket] : buckets_) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  return out;
}

}  // namespace locus
