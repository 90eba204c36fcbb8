// Sorted-vector map for small per-node protocol state.
//
// Each overlay node keeps a few dozen entries per table (physical
// neighbors, candidates, relay soft state), read far more often than
// written. FlatMap stores them as (key, value) pairs in one vector kept
// sorted by key: lookups are binary searches over contiguous memory, and
// iteration runs in ascending key order, which the protocol's tie-breaks
// rely on.
//
// Unlike std::map, an insert or erase shifts the tail of the vector and so
// invalidates every reference, pointer and iterator into the map. Never hold
// one across a call that may insert into the same map.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace gdvr {

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
  std::size_t size() const { return items_.size(); }

  iterator find(const K& key) {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  const_iterator find(const K& key) const {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  std::size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }

  const V& at(const K& key) const {
    const auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: absent key");
    return it->second;
  }

  // The value under `key`, value-initialized in place if absent.
  V& operator[](const K& key) {
    auto it = lower_bound(key);
    if (it == items_.end() || it->first != key) it = items_.emplace(it, key, V{});
    return it->second;
  }

  // Inserts (key, value) unless key is present; like std::map::emplace.
  std::pair<iterator, bool> emplace(const K& key, V value) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return {it, false};
    return {items_.emplace(it, key, std::move(value)), true};
  }

  // Moves the entries of `batch`, whose keys must be strictly ascending and
  // absent from the map, into it in one backward pass: every entry moves at
  // most once, where one emplace per key would shift the tail once per key.
  void insert_sorted(std::span<value_type> batch) {
    if (batch.empty()) return;
    const std::size_t old_size = items_.size();
    // Grow by doubling, as one emplace per key would, so a batch leaves the
    // same capacity, and the same heap footprint, as the inserts it replaces.
    std::size_t capacity = std::max<std::size_t>(items_.capacity(), 1);
    while (capacity < old_size + batch.size()) capacity *= 2;
    items_.reserve(capacity);
    items_.resize(old_size + batch.size());
    auto old = items_.begin() + static_cast<std::ptrdiff_t>(old_size);
    auto out = items_.end();
    for (auto in = batch.end(); in != batch.begin();) {
      --in;
      GDVR_ASSERT_MSG(in == batch.begin() || std::prev(in)->first < in->first,
                      "FlatMap::insert_sorted: batch keys not strictly ascending");
      while (old != items_.begin() && in->first < std::prev(old)->first)
        *--out = std::move(*--old);
      GDVR_ASSERT_MSG(old == items_.begin() || std::prev(old)->first < in->first,
                      "FlatMap::insert_sorted: batch key already present");
      *--out = std::move(*in);
    }
  }

  iterator erase(const_iterator pos) { return items_.erase(pos); }
  std::size_t erase(const K& key) {
    const auto it = find(key);
    if (it == end()) return 0;
    items_.erase(it);
    return 1;
  }

  // Removes every entry for which pred(entry) holds, in one pass: pred runs
  // exactly once per entry, in ascending key order, so it may walk cursors
  // over other key-sorted tables alongside. Returns the number removed.
  template <typename Pred>
  friend std::size_t erase_if(FlatMap& m, Pred pred) {
    auto out = m.items_.begin();
    for (auto it = m.items_.begin(); it != m.items_.end(); ++it) {
      if (pred(std::as_const(*it))) continue;
      if (out != it) *out = std::move(*it);
      ++out;
    }
    const auto removed = static_cast<std::size_t>(m.items_.end() - out);
    m.items_.erase(out, m.items_.end());
    return removed;
  }

 private:
  iterator lower_bound(const K& key) {
    return std::lower_bound(items_.begin(), items_.end(), key,
                            [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(items_.begin(), items_.end(), key,
                            [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> items_;
};

}  // namespace gdvr
