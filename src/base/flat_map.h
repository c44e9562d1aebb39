// Sorted-vector map and set for the small per-transaction tables (a
// transaction's page slots, a process's descriptors and cached lock lists,
// the few transactions a site is resolving, a volume's unresolved log
// records). They iterate in key order like
// std::map/std::set, but hold their elements in one vector, so a table that
// is filled and emptied once per transaction keeps its storage and stops
// allocating after the first. Insert and erase shift the elements behind the
// key: meant for tables of a few keys, not for large ones.

#ifndef SRC_BASE_FLAT_MAP_H_
#define SRC_BASE_FLAT_MAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

namespace locus {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  // Drops every element and keeps the storage.
  void clear() { items_.clear(); }

  iterator find(const K& key) {
    iterator it = LowerBound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  const_iterator find(const K& key) const {
    const_iterator it = LowerBound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }
  // The value of `key`, which must be present.
  const V& at(const K& key) const {
    const_iterator it = find(key);
    assert(it != items_.end());
    return it->second;
  }

  // Inserts (key, V(args...)) unless `key` is present; returns the element
  // and whether it was inserted, like std::map::try_emplace.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    iterator it = LowerBound(key);
    if (it != items_.end() && it->first == key) {
      return {it, false};
    }
    it = items_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }
  V& operator[](const K& key) { return try_emplace(key).first->second; }

  iterator erase(iterator it) { return items_.erase(it); }
  size_t erase(const K& key) {
    iterator it = find(key);
    if (it == items_.end()) {
      return 0;
    }
    items_.erase(it);
    return 1;
  }

 private:
  iterator LowerBound(const K& key) {
    return std::lower_bound(items_.begin(), items_.end(), key,
                            [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator LowerBound(const K& key) const {
    return std::lower_bound(items_.begin(), items_.end(), key,
                            [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> items_;
};

template <typename K>
class FlatSet {
 public:
  void clear() { items_.clear(); }
  size_t count(const K& key) const {
    return std::binary_search(items_.begin(), items_.end(), key) ? 1 : 0;
  }
  // Returns whether `key` was inserted, like std::set::insert(...).second.
  bool insert(const K& key) {
    auto it = std::lower_bound(items_.begin(), items_.end(), key);
    if (it != items_.end() && *it == key) {
      return false;
    }
    items_.insert(it, key);
    return true;
  }
  size_t erase(const K& key) {
    auto it = std::lower_bound(items_.begin(), items_.end(), key);
    if (it == items_.end() || !(*it == key)) {
      return 0;
    }
    items_.erase(it);
    return 1;
  }

 private:
  std::vector<K> items_;
};

}  // namespace locus

#endif  // SRC_BASE_FLAT_MAP_H_
