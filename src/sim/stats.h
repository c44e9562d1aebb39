// Named counters and simple latency accumulators for experiment reporting.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/time.h"

namespace locus {

// Accumulates samples of a virtual-time quantity (latency, service time).
class LatencyStat {
 public:
  void Add(SimTime sample) {
    sum_ += sample;
    ++count_;
    if (count_ == 1 || sample < min_) {
      min_ = sample;
    }
    if (count_ == 1 || sample > max_) {
      max_ = sample;
    }
  }

  int64_t count() const { return count_; }
  SimTime min() const { return min_; }
  SimTime max() const { return max_; }
  double MeanMs() const {
    return count_ == 0 ? 0.0 : ToMilliseconds(sum_) / static_cast<double>(count_);
  }

 private:
  SimTime sum_ = 0;
  SimTime min_ = 0;
  SimTime max_ = 0;
  int64_t count_ = 0;
};

// A registry of named monotonic counters, used for I/O accounting (the
// Figure 5 experiment is an operation-count experiment).
//
// Names are interned to dense integer ids: hot paths call Intern() once at
// setup and bump by id, which is a single vector indexed add — no string
// construction or map lookup per event. The string-keyed overloads remain
// for cold paths, tests, and reporting. Ids stay valid across Reset().
class StatRegistry {
 public:
  using StatId = int32_t;

  // Returns the stable id for `name`, creating it (at zero) if new.
  StatId Intern(const std::string& name) {
    auto [it, inserted] = ids_.try_emplace(name, static_cast<StatId>(values_.size()));
    if (inserted) {
      values_.push_back(0);
      names_.push_back(name);
    }
    return it->second;
  }

  void Add(StatId id, int64_t delta = 1) { values_[static_cast<size_t>(id)] += delta; }
  int64_t Get(StatId id) const { return values_[static_cast<size_t>(id)]; }

  void Add(const std::string& name, int64_t delta = 1) { Add(Intern(name), delta); }
  int64_t Get(const std::string& name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? 0 : values_[static_cast<size_t>(it->second)];
  }

  // Zeroes every counter; interned ids remain valid.
  void Reset() { std::fill(values_.begin(), values_.end(), 0); }

  // Dense snapshot access for cheap deltas (index == StatId).
  const std::vector<int64_t>& values() const { return values_; }
  const std::string& name(StatId id) const { return names_[static_cast<size_t>(id)]; }

  // Materialized name -> value view for reporting (includes zero counters).
  std::map<std::string, int64_t> counters() const {
    std::map<std::string, int64_t> out;
    for (size_t i = 0; i < values_.size(); ++i) {
      out.emplace(names_[i], values_[i]);
    }
    return out;
  }

 private:
  std::unordered_map<std::string, StatId> ids_;
  std::vector<std::string> names_;
  std::vector<int64_t> values_;
};

}  // namespace locus

#endif  // SRC_SIM_STATS_H_
