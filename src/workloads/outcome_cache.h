#pragma once

// A process-wide, content-addressed, byte-budgeted LRU cache of
// immutable map outcomes.
//
// Experiment sweeps run every input point in several modes (and
// trials, and SweepRunner threads), each with a fresh workload object,
// and every run maps the same splits of the same deterministic input.
// A workload's map output is a pure function of the parameters that
// generate its input and of the split, so the cache keys each value by
// exactly those parameters: two workload instances that would compute
// the same value share one copy, and no instance state is part of the
// key. Values are immutable once cached; readers share them through
// shared_ptr, so an evicted value lives on for as long as a run still
// holds it.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace mrapid::wl {

// Keeps keys of different kinds apart even when their fields coincide.
enum class OutcomeKind : std::uint8_t {
  kWordCountSplit,      // (seed, vocabulary, zipf_s, file, bytes_per_file, offset, length)
  kTeraSortRun,         // (seed, rows, offset, length)
  kTeraSortBoundaries,  // (seed, rows, reducers)
  kPiHaltonRange,       // (begin, evaluated)
};

// The exact identity of a cached value. Doubles enter by bit pattern.
// Keys are compared field by field, never only by hash.
struct OutcomeKey {
  OutcomeKind kind;
  std::array<std::uint64_t, 7> fields{};

  friend bool operator==(const OutcomeKey&, const OutcomeKey&) = default;
};

class OutcomeCache {
 public:
  // Budget of the shared cache: sized to hold every map outcome of the
  // largest registered Fig. 7 point, 16 files of 10 MB, one split each.
  // One such split holds ~79k distinct words at ~72 bytes each (node
  // plus bucket), about 5.7 MB, so the point needs about 92 MB.
  static constexpr std::size_t kBudgetBytes = std::size_t{128} << 20;

  struct Value {
    std::shared_ptr<const void> data;
    std::size_t bytes = 0;  // heap the value holds, as estimated by its producer
  };

  // Heap the cache itself spends on each entry (its recency-list and
  // map nodes, bucket slot and the value's shared_ptr control block),
  // charged on top of the producer's estimate so that a budget cannot
  // admit millions of 8-byte values.
  static const std::size_t kEntryBytes;

  explicit OutcomeCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

  // The process-wide cache every workload uses, with kBudgetBytes.
  static OutcomeCache& shared();

  // Returns the value cached under `key`, or computes it with
  // `compute`, caches it and returns it. A caller asking for a key that
  // another thread is computing waits for that result instead of
  // computing it again. A value larger than the whole budget is
  // returned but not retained; otherwise least recently used values
  // are evicted until resident bytes fit the budget. A value is charged
  // its producer's estimate plus kEntryBytes. `compute` runs
  // without the cache's lock held; if it throws, nothing is cached and
  // every caller waiting on it sees the exception.
  std::shared_ptr<const void> get_or_compute(const OutcomeKey& key,
                                             const std::function<Value()>& compute);

  std::size_t resident_bytes() const;
  std::size_t size() const;

 private:
  struct KeyHash {
    std::size_t operator()(const OutcomeKey& key) const;
  };
  struct Entry {
    Value value;
    std::list<OutcomeKey>::iterator recency;
  };

  void retain(const OutcomeKey& key, Value value);  // needs mu_

  const std::size_t budget_;
  mutable std::mutex mu_;
  std::size_t resident_ = 0;
  std::list<OutcomeKey> recency_;  // most recently used first
  std::unordered_map<OutcomeKey, Entry, KeyHash> entries_;
  std::unordered_map<OutcomeKey, std::shared_future<Value>, KeyHash> computing_;
};

}  // namespace mrapid::wl
