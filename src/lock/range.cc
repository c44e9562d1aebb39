#include "src/lock/range.h"

namespace locus {

void RangeSet::Add(ByteRange r) {
  if (r.empty()) {
    return;
  }
  // In place: the run of ranges overlapping or exactly adjacent to `r`
  // collapses into one, so a set that keeps its storage never allocates.
  auto lo = std::lower_bound(ranges_.begin(), ranges_.end(), r.start,
                             [](const ByteRange& e, int64_t s) { return e.end() < s; });
  auto hi = lo;
  while (hi != ranges_.end() && hi->start <= r.end()) {
    ++hi;
  }
  if (lo == hi) {
    ranges_.insert(lo, r);
    return;
  }
  int64_t new_end = std::max(r.end(), (hi - 1)->end());
  lo->start = std::min(r.start, lo->start);
  lo->length = new_end - lo->start;
  ranges_.erase(lo + 1, hi);
}

void RangeSet::Remove(const ByteRange& r) {
  if (r.empty()) {
    return;
  }
  auto lo = std::lower_bound(ranges_.begin(), ranges_.end(), r.start,
                             [](const ByteRange& e, int64_t s) { return e.end() <= s; });
  auto hi = lo;
  while (hi != ranges_.end() && hi->start < r.end()) {
    ++hi;
  }
  if (lo == hi) {
    return;
  }
  // What survives of the run: a piece before `r` and a piece after it.
  ByteRange before{lo->start, r.start - lo->start};
  ByteRange after{r.end(), (hi - 1)->end() - r.end()};
  auto at = ranges_.erase(lo, hi);
  if (!after.empty()) {
    at = ranges_.insert(at, after);
  }
  if (!before.empty()) {
    ranges_.insert(at, before);
  }
}

bool RangeSet::Intersects(const ByteRange& r) const {
  for (const ByteRange& existing : ranges_) {
    if (existing.Overlaps(r)) {
      return true;
    }
  }
  return false;
}

std::vector<ByteRange> RangeSet::IntersectionsWith(const ByteRange& r) const {
  std::vector<ByteRange> out;
  ForEachIntersection(r, [&](const ByteRange& piece) { out.push_back(piece); });
  return out;
}

int64_t RangeSet::TotalBytes() const {
  int64_t total = 0;
  for (const ByteRange& r : ranges_) {
    total += r.length;
  }
  return total;
}

}  // namespace locus
