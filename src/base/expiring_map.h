// A map whose entries are forgotten a fixed virtual time after they were
// last set: the per-transaction and per-process memory a site keeps for
// messages that may still arrive after the transaction or process has left
// (abort tombstones, forwarding pointers). Expired entries are dropped
// lazily, when a later entry is set, so the map holds at most what was set
// within one lifetime.

#ifndef SRC_BASE_EXPIRING_MAP_H_
#define SRC_BASE_EXPIRING_MAP_H_

#include <cstddef>
#include <deque>
#include <map>
#include <utility>

#include "src/sim/time.h"

namespace locus {

template <typename K, typename V>
class ExpiringMap {
 public:
  explicit ExpiringMap(SimTime lifetime) : lifetime_(lifetime) {}

  // Sets `key` to `value` at virtual time `now`, restarting its lifetime,
  // and forgets the entries whose lifetime has run out.
  void Set(const K& key, V value, SimTime now) {
    while (!order_.empty() && order_.front().first + lifetime_ <= now) {
      auto it = entries_.find(order_.front().second);
      if (it != entries_.end() && it->second.second == order_.front().first) {
        entries_.erase(it);  // Not set again since: its lifetime is over.
      }
      order_.pop_front();
    }
    entries_.insert_or_assign(key, std::pair<V, SimTime>{std::move(value), now});
    order_.emplace_back(now, key);
  }

  // The value of `key`, or nullptr if it was never set, erased or forgotten.
  const V* Find(const K& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second.first;
  }
  bool Contains(const K& key) const { return entries_.count(key) != 0; }
  void Erase(const K& key) { entries_.erase(key); }
  void Clear() {
    entries_.clear();
    order_.clear();
  }
  size_t size() const { return entries_.size(); }

 private:
  SimTime lifetime_;
  std::map<K, std::pair<V, SimTime>> entries_;  // Value and the time it was set.
  std::deque<std::pair<SimTime, K>> order_;      // Set times, oldest first.
};

}  // namespace locus

#endif  // SRC_BASE_EXPIRING_MAP_H_
