// Per-file lock list kept at the file's storage site (Figure 3 of the paper).
//
// Each entry records the holding process, its transaction (if any), the mode,
// the byte range, and the retained / non-transaction flags. Figure 1 gives
// the compatibility rules between the three modes; "Unix" is the implicit
// mode of an access made with no lock held, and the enforced-locking policy
// constrains it like any other mode.
//
// Ownership is transaction-wide: all processes of one transaction share its
// locks (section 3.1 — a child created inside a transaction may acquire the
// parent's exclusive records and vice versa).
//
// Representation: entries are bucketed by exact holder identity (pid, txn)
// and each bucket is kept sorted by range offset with pairwise-disjoint
// ranges (Grant carves the holder's previous entries before inserting).
// Conflict checks therefore touch one bucket per *other* holder and binary
// search within it, instead of scanning a flat list of every entry on the
// file. `NaiveLockList` (tests/naive_lock_list.h) retains the flat-vector
// implementation as the differential-testing reference. Buckets sit in a
// sorted vector (holder order, as a std::map would iterate them), and an
// emptied bucket's storage is kept for the next holder, so a list that sees
// one transaction after another stops allocating.

#ifndef SRC_LOCK_LOCK_LIST_H_
#define SRC_LOCK_LOCK_LIST_H_

#include <string>
#include <vector>

#include "src/base/flat_map.h"
#include "src/base/ids.h"
#include "src/lock/range.h"

namespace locus {

enum class LockMode {
  kUnix,       // No lock held: conventional Unix access.
  kShared,     // Shared read lock.
  kExclusive,  // Exclusive read/write lock.
};

const char* LockModeName(LockMode mode);

// The access kinds a holder of `held` permits a *different* owner performing
// an access governed by `acting` (Figure 1). kNone = no access, kReadOnly =
// read only, kReadWrite = full conventional sharing.
enum class AccessAllowed { kNone, kReadOnly, kReadWrite };
AccessAllowed CompatibleAccess(LockMode held, LockMode acting);

// True if a lock request in `requested` can be granted while a different
// owner holds `held` over an overlapping range.
bool LocksCompatible(LockMode held, LockMode requested);

// Lock owner identity. Processes of one transaction are interchangeable
// (section 3.1), and a process never conflicts with itself: locks it acquired
// before entering a transaction (owned by its pid alone, section 3.4) do not
// block its in-transaction accesses.
struct LockOwner {
  Pid pid = kNoPid;
  TxnId txn = kNoTxn;

  bool SameAs(const LockOwner& o) const {
    if (txn.valid() && o.txn.valid()) {
      return txn == o.txn;
    }
    return pid != kNoPid && pid == o.pid;
  }

  // Strict writer identity for the commit mechanism: modifications made by a
  // process outside a transaction and modifications made by the same process
  // inside one are distinct writers — the former commit at close, the latter
  // with the transaction. (Lock conflict checks use the looser SameAs.)
  bool SameWriterAs(const LockOwner& o) const {
    if (txn.valid() || o.txn.valid()) {
      return txn == o.txn;
    }
    return pid != kNoPid && pid == o.pid;
  }
};

std::string ToString(const LockOwner& o);

class LockList {
 public:
  struct Entry {
    ByteRange range;
    LockOwner owner;
    LockMode mode = LockMode::kShared;
    // Unlocked by a transaction but held until commit/abort (section 3.1);
    // any process of the transaction may reacquire it.
    bool retained = false;
    // Section 3.4: obeys Figure 1 but escapes the two-phase discipline.
    bool non_transaction = false;
    // Section 3.3 rule 2: covers a modified-uncommitted record, so it is
    // sticky until the transaction resolves even if explicitly unlocked.
    bool covers_dirty = false;
  };

  // True if `owner` may be granted `mode` over `range` right now.
  bool CanGrant(const ByteRange& range, const LockOwner& owner, LockMode mode) const;

  // Grants (or upgrades/downgrades/extends/contracts): the owner's previous
  // entries are carved out of `range` and one new active entry is added.
  // Callers must have checked CanGrant.
  void Grant(const ByteRange& range, const LockOwner& owner, LockMode mode,
             bool non_transaction);

  // Explicit unlock over `range`. Transaction locks become retained unless
  // they are non-transaction locks; non-transaction owners' and
  // non-transaction locks' entries are dropped outright — except entries
  // covering dirty records, which stay retained (rule 2).
  void Unlock(const ByteRange& range, const LockOwner& owner);

  // Marks entries overlapping `range` as covering a modified-uncommitted
  // record, making them sticky.
  void MarkDirtyCovered(const ByteRange& range, const LockOwner& owner);

  // Commit/abort: drops every entry of the transaction.
  void ReleaseTransaction(const TxnId& txn);
  // Process exit (non-transaction process): drops its entries.
  void ReleaseProcess(Pid pid);

  // Enforced-access checks for an access by `owner` whose own locks permit it
  // wherever they cover; elsewhere the access acts in Unix mode against
  // other owners' locks.
  bool MayRead(const ByteRange& range, const LockOwner& owner) const;
  bool MayWrite(const ByteRange& range, const LockOwner& owner) const;

  // Owners whose active entries block `owner` from acquiring `mode` over
  // `range` (for the wait-for graph). One element per blocking entry, so an
  // owner appears once per conflicting lock it holds.
  std::vector<LockOwner> ConflictingOwners(const ByteRange& range, const LockOwner& owner,
                                           LockMode mode) const;
  // Calls fn(blocking owner) for each of those entries, in the same order,
  // without building the vector.
  template <typename Fn>
  void ForEachConflictingOwner(const ByteRange& range, const LockOwner& owner, LockMode mode,
                               Fn&& fn) const {
    for (const auto& [key, bucket] : buckets_) {
      if (OwnerOf(key).SameAs(owner)) {
        continue;
      }
      for (size_t i = FirstCandidate(bucket, range);
           i < bucket.size() && bucket[i].range.start < range.end(); ++i) {
        if (bucket[i].range.Overlaps(range) && !LocksCompatible(bucket[i].mode, mode)) {
          fn(bucket[i].owner);
        }
      }
    }
  }

  // True if `owner` holds an active (non-retained) entry covering all of
  // `range` with at least `mode` strength.
  bool Holds(const ByteRange& range, const LockOwner& owner, LockMode mode) const;

  // True if `range` is fully covered by the owner's active NON-TRANSACTION
  // entries (section 3.4). The kernel uses this to route writes made under
  // such locks outside the transaction envelope.
  bool HoldsNonTransaction(const ByteRange& range, const LockOwner& owner) const;

  // Materialized flat view for diagnostics and tests (holder-bucket order,
  // offset-sorted within each holder).
  std::vector<Entry> entries() const;
  bool empty() const { return entry_count_ == 0; }

  // Drops every entry and keeps the storage for reuse.
  void Reset();

 private:
  // Exact holder identity. Distinct from LockOwner::SameAs: SameAs is not an
  // equivalence relation ({pid,T} matches both {pid,-} and {pid2,T}, which do
  // not match each other), so entries are bucketed by the exact identity they
  // were granted under and SameAs is evaluated per bucket.
  struct OwnerKey {
    Pid pid = kNoPid;
    TxnId txn = kNoTxn;
    friend auto operator<=>(const OwnerKey&, const OwnerKey&) = default;
  };
  // Offset-sorted, pairwise-disjoint entries of one exact identity.
  using Bucket = std::vector<Entry>;

  static OwnerKey KeyOf(const LockOwner& o) { return OwnerKey{o.pid, o.txn}; }
  static LockOwner OwnerOf(const OwnerKey& k) { return LockOwner{k.pid, k.txn}; }

  // Index of the first entry in `b` that can overlap `r` (candidates run
  // from there while entry.start < r.end()).
  static size_t FirstCandidate(const Bucket& b, const ByteRange& r);

  // Removes the parts of `range` from `bucket`, splitting partially covered
  // entries. Sets *inherits_dirty if any removed part covered dirty records.
  // When `retain_unlocked` is set, the removed parts are re-inserted as
  // retained entries per the Unlock rules instead of being dropped.
  void Carve(Bucket& bucket, const ByteRange& range, bool* inherits_dirty,
             bool retain_unlocked);

  bool AccessPermitted(const ByteRange& range, const LockOwner& owner, bool write) const;
  // Strongest mode the owner's own entries hold over all of `piece`
  // (kUnix when uncovered).
  LockMode ActingModeOver(const ByteRange& piece, const LockOwner& owner) const;

  // The bucket of `owner`'s exact identity, created (from spare storage when
  // there is some) if absent.
  Bucket& BucketOf(const LockOwner& owner);
  // Erases the bucket at `it`, keeping its storage; returns the next one.
  FlatMap<OwnerKey, Bucket>::iterator EraseBucket(FlatMap<OwnerKey, Bucket>::iterator it);

  FlatMap<OwnerKey, Bucket> buckets_;
  std::vector<Bucket> spare_;  // Emptied buckets' storage.
  int64_t entry_count_ = 0;
};

}  // namespace locus

#endif  // SRC_LOCK_LOCK_LIST_H_
