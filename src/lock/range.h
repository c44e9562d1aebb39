// Byte-range arithmetic for record locks (section 3.2: ranges of bytes may be
// locked, extended, contracted, upgraded and downgraded).

#ifndef SRC_LOCK_RANGE_H_
#define SRC_LOCK_RANGE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace locus {

// Half-open byte range [start, start + length).
struct ByteRange {
  int64_t start = 0;
  int64_t length = 0;

  int64_t end() const { return start + length; }
  bool empty() const { return length <= 0; }

  bool Overlaps(const ByteRange& o) const {
    return start < o.end() && o.start < end();
  }
  bool Contains(const ByteRange& o) const {
    return start <= o.start && o.end() <= end();
  }
  ByteRange Intersect(const ByteRange& o) const {
    int64_t s = std::max(start, o.start);
    int64_t e = std::min(end(), o.end());
    return ByteRange{s, std::max<int64_t>(0, e - s)};
  }
  // The up-to-two pieces of this range not covered by `o`.
  std::vector<ByteRange> Subtract(const ByteRange& o) const {
    std::vector<ByteRange> out;
    if (!Overlaps(o)) {
      out.push_back(*this);
      return out;
    }
    if (start < o.start) {
      out.push_back(ByteRange{start, o.start - start});
    }
    if (o.end() < end()) {
      out.push_back(ByteRange{o.end(), end() - o.end()});
    }
    return out;
  }

  friend auto operator<=>(const ByteRange&, const ByteRange&) = default;
};

inline std::string ToString(const ByteRange& r) {
  return "[" + std::to_string(r.start) + "," + std::to_string(r.end()) + ")";
}

// Maintains a set of disjoint ranges under union and subtraction. Used for
// dirty-record tracking and for commit-range bookkeeping.
class RangeSet {
 public:
  void Add(ByteRange r);
  void Remove(const ByteRange& r);
  bool Intersects(const ByteRange& r) const;
  // The portions of `r` present in the set.
  std::vector<ByteRange> IntersectionsWith(const ByteRange& r) const;
  // Calls fn(piece) for each of those portions, in offset order, without
  // building the vector.
  template <typename Fn>
  void ForEachIntersection(const ByteRange& r, Fn&& fn) const {
    for (const ByteRange& existing : ranges_) {
      ByteRange piece = existing.Intersect(r);
      if (!piece.empty()) {
        fn(piece);
      }
    }
  }
  bool empty() const { return ranges_.empty(); }
  // Drops every range and keeps the storage.
  void clear() { ranges_.clear(); }
  const std::vector<ByteRange>& ranges() const { return ranges_; }
  // Total bytes covered.
  int64_t TotalBytes() const;

 private:
  std::vector<ByteRange> ranges_;  // Sorted, disjoint, non-adjacent.
};

}  // namespace locus

#endif  // SRC_LOCK_RANGE_H_
