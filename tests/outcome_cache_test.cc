// Tests for the process-wide map-outcome cache (src/workloads/
// outcome_cache.h): hits share the first call's value, keys that differ
// in any field never share an entry, resident bytes respect the budget,
// concurrent callers compute each key once and agree on the result, and
// workloads reading through the cache get the values a direct
// computation gives.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <stdexcept>
#include <thread>
#include <vector>

#include "workloads/outcome_cache.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

namespace mrapid::wl {
namespace {

OutcomeKey key_of(std::uint64_t id) { return OutcomeKey{OutcomeKind::kTeraSortRun, {id}}; }

// A compute function that counts its calls and yields `bytes`-sized ints.
auto counting(std::atomic<int>& calls, std::size_t bytes, int value = 0) {
  return [&calls, bytes, value] {
    ++calls;
    return OutcomeCache::Value{std::make_shared<const int>(value), bytes};
  };
}

// ---- the cache itself ------------------------------------------------

TEST(OutcomeCache, HitReturnsTheFirstCallsPointer) {
  OutcomeCache cache(1024);
  std::atomic<int> calls{0};
  const auto first = cache.get_or_compute(key_of(1), counting(calls, 100));
  const auto second = cache.get_or_compute(key_of(1), counting(calls, 100));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 100u + OutcomeCache::kEntryBytes);
}

TEST(OutcomeCache, KeysDifferingInAnyFieldOrKindNeverShare) {
  OutcomeCache cache(std::size_t{1} << 20);
  std::atomic<int> calls{0};
  const OutcomeKey base{OutcomeKind::kWordCountSplit, {1, 2, 3, 4, 5, 6, 7}};
  std::vector<OutcomeKey> keys{base};
  for (std::size_t field = 0; field < base.fields.size(); ++field) {
    OutcomeKey changed = base;
    changed.fields[field] += 1;
    keys.push_back(changed);
  }
  for (const OutcomeKind kind : {OutcomeKind::kTeraSortRun, OutcomeKind::kTeraSortBoundaries}) {
    OutcomeKey changed = base;
    changed.kind = kind;
    keys.push_back(changed);
  }
  std::vector<const void*> values;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    values.push_back(cache.get_or_compute(keys[i], counting(calls, 8, static_cast<int>(i))).get());
  }
  EXPECT_EQ(calls.load(), static_cast<int>(keys.size()));
  EXPECT_EQ(cache.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) EXPECT_NE(values[i], values[j]);
  }
}

TEST(OutcomeCache, ResidentBytesStayWithinTheBudget) {
  // Room for three 300-byte values and their bookkeeping, not four.
  const std::size_t budget = 3 * (300 + OutcomeCache::kEntryBytes) + 100;
  OutcomeCache cache(budget);
  std::atomic<int> calls{0};
  for (std::uint64_t id = 0; id < 10; ++id) {
    cache.get_or_compute(key_of(id), counting(calls, 300));
    EXPECT_LE(cache.resident_bytes(), budget);
  }
  EXPECT_EQ(cache.size(), 3u);  // the three most recent: 7, 8, 9

  // Least recently used goes first: touch 7, then insert 10 -> 8 is evicted.
  cache.get_or_compute(key_of(7), counting(calls, 300));
  cache.get_or_compute(key_of(10), counting(calls, 300));
  const int before = calls.load();
  cache.get_or_compute(key_of(7), counting(calls, 300));
  cache.get_or_compute(key_of(9), counting(calls, 300));
  EXPECT_EQ(calls.load(), before);
  cache.get_or_compute(key_of(8), counting(calls, 300));
  EXPECT_EQ(calls.load(), before + 1);
  EXPECT_LE(cache.resident_bytes(), budget);
}

TEST(OutcomeCache, OverBudgetValueIsReturnedButNotRetained) {
  // 1001 bytes plus bookkeeping is one byte more than the whole budget.
  OutcomeCache cache(1000 + OutcomeCache::kEntryBytes);
  std::atomic<int> calls{0};
  cache.get_or_compute(key_of(1), counting(calls, 400));
  const auto big = cache.get_or_compute(key_of(2), counting(calls, 1001, 42));
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(*static_cast<const int*>(big.get()), 42);
  EXPECT_EQ(cache.size(), 1u);  // the small value was not evicted for it
  EXPECT_EQ(cache.resident_bytes(), 400u + OutcomeCache::kEntryBytes);
  cache.get_or_compute(key_of(2), counting(calls, 1001, 42));
  EXPECT_EQ(calls.load(), 3);
}

TEST(OutcomeCache, TinyValuesAreChargedTheirBookkeeping) {
  // Each entry holds two copies of the key besides its value.
  EXPECT_GE(OutcomeCache::kEntryBytes, 2 * sizeof(OutcomeKey));
  // An 8-byte value charged only its own size would let all 10,000 fit.
  constexpr std::size_t kBudget = 64 * 1024;
  OutcomeCache cache(kBudget);
  std::atomic<int> calls{0};
  for (std::uint64_t id = 0; id < 10000; ++id) cache.get_or_compute(key_of(id), counting(calls, 8));
  EXPECT_LE(cache.size(), kBudget / OutcomeCache::kEntryBytes);
  EXPECT_EQ(cache.size(), kBudget / (8 + OutcomeCache::kEntryBytes));
  EXPECT_EQ(cache.resident_bytes(), cache.size() * (8 + OutcomeCache::kEntryBytes));
}

TEST(OutcomeCache, ThrowingComputeCachesNothing) {
  OutcomeCache cache(1000);
  EXPECT_THROW(cache.get_or_compute(key_of(1),
                                    []() -> OutcomeCache::Value {
                                      throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  std::atomic<int> calls{0};
  cache.get_or_compute(key_of(1), counting(calls, 10));
  EXPECT_EQ(calls.load(), 1);
}

TEST(OutcomeCache, ConcurrentCallersComputeEachKeyOnceAndAgree) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 8;
  OutcomeCache cache(std::size_t{1} << 20);
  std::vector<std::atomic<int>> calls(kKeys);
  std::vector<std::vector<const void*>> seen(kThreads, std::vector<const void*>(kKeys));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      // Every thread wants every key; half walk the keys backwards, so
      // threads meet both on the same key and on different ones.
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        const std::uint64_t id = t % 2 == 0 ? i : kKeys - 1 - i;
        seen[t][id] = cache
                          .get_or_compute(key_of(id),
                                          [&calls, id] {
                                            ++calls[id];
                                            std::this_thread::sleep_for(
                                                std::chrono::milliseconds(2));
                                            return OutcomeCache::Value{
                                                std::make_shared<const std::uint64_t>(id), 8};
                                          })
                          .get();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    EXPECT_EQ(calls[id].load(), 1) << "key " << id;
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][id], seen[0][id]) << "key " << id;
    EXPECT_EQ(*static_cast<const std::uint64_t*>(seen[0][id]), id);
  }
}

// ---- through the workloads ---------------------------------------------

mr::InputSplit wordcount_split(const WordCountParams& params, std::size_t file, Bytes offset,
                               Bytes length) {
  char path[96];
  std::snprintf(path, sizeof(path), "/input/wordcount-%zux%lld-%llu/part-%05zu",
                params.num_files, static_cast<long long>(params.bytes_per_file),
                static_cast<unsigned long long>(params.seed), file);
  mr::InputSplit split;
  split.path = path;
  split.offset = offset;
  split.length = length;
  return split;
}

TEST(OutcomeCacheWorkloads, WordCountInstancesShareOneSplitOutcome) {
  WordCountParams params;
  params.num_files = 2;
  params.bytes_per_file = 16_KB;
  params.seed = 0xCAC4E1;
  const WordCount a(params), b(params);
  const auto split = wordcount_split(params, 1, 0, params.bytes_per_file);
  const mr::MapOutcome first = a.execute_map(split);
  const mr::MapOutcome second = b.execute_map(split);
  EXPECT_EQ(first.data.get(), second.data.get());
  EXPECT_EQ(first.output_bytes, second.output_bytes);
  EXPECT_EQ(first.output_records, second.output_records);

  // Sizes and core-seconds still come from each instance's params.
  WordCountParams raw = params;
  raw.use_combiner = false;
  raw.map_throughput = Rate::mb_per_sec(1);
  const mr::MapOutcome uncombined = WordCount(raw).execute_map(split);
  EXPECT_EQ(uncombined.data.get(), first.data.get());
  EXPECT_GT(uncombined.output_records, first.output_records);
  EXPECT_GT(uncombined.output_bytes, first.output_bytes);
  EXPECT_GT(uncombined.core_seconds, first.core_seconds);
}

TEST(OutcomeCacheWorkloads, WordCountParamsDifferingInAnyKeyFieldNeverShare) {
  WordCountParams base;
  base.num_files = 2;
  base.bytes_per_file = 16_KB;
  base.seed = 0xCAC4E2;
  base.vocabulary = 1000;
  const void* base_data = WordCount(base).execute_map(wordcount_split(base, 0, 0, 8_KB)).data.get();

  // Each variant gets its own entry, holding the counts of its own bytes.
  auto differs = [&](const WordCountParams& params, std::size_t file, Bytes offset,
                     Bytes length) {
    const mr::MapOutcome outcome =
        WordCount(params).execute_map(wordcount_split(params, file, offset, length));
    EXPECT_NE(outcome.data.get(), base_data);
    const std::string text = TextGenerator(params.seed, params.vocabulary, params.zipf_s)
                                 .generate(params.bytes_per_file, file);
    WordCounts expected;
    tokenize_into(std::string_view(text).substr(static_cast<std::size_t>(offset),
                                                static_cast<std::size_t>(length)),
                  expected);
    EXPECT_EQ(*std::static_pointer_cast<const WordCounts>(outcome.data), expected);
  };
  WordCountParams p = base;
  p.seed += 1;
  differs(p, 0, 0, 8_KB);
  p = base;
  p.vocabulary = 999;
  differs(p, 0, 0, 8_KB);
  p = base;
  p.zipf_s = 1.2;
  differs(p, 0, 0, 8_KB);
  differs(base, 1, 0, 8_KB);  // file index
  p = base;
  p.bytes_per_file = 20_KB;
  differs(p, 0, 0, 8_KB);
  differs(base, 0, 4_KB, 8_KB);  // offset
  differs(base, 0, 0, 4_KB);     // length
}

TEST(OutcomeCacheWorkloads, WordCountSizesOnAHitMatchTheCounts) {
  WordCountParams params;
  params.num_files = 1;
  params.bytes_per_file = 24_KB;
  params.seed = 0xCAC4E3;
  const auto split = wordcount_split(params, 0, 0, params.bytes_per_file);
  const void* first = WordCount(params).execute_map(split).data.get();
  for (const bool combiner : {true, false}) {
    WordCountParams p = params;
    p.use_combiner = combiner;
    const mr::MapOutcome hit = WordCount(p).execute_map(split);
    ASSERT_EQ(hit.data.get(), first);
    // Recomputed from the counts: (word, count) pairs with the combiner,
    // one (word, 1) pair per token without; word bytes + 9 per pair.
    Bytes bytes = 0;
    std::int64_t records = 0;
    for (const auto& [word, count] : *std::static_pointer_cast<const WordCounts>(hit.data)) {
      const std::int64_t pairs = combiner ? 1 : count;
      bytes += pairs * (static_cast<Bytes>(word.size()) + 9);
      records += pairs;
    }
    EXPECT_EQ(hit.output_bytes, bytes) << "combiner " << combiner;
    EXPECT_EQ(hit.output_records, records) << "combiner " << combiner;
  }
}

// The inside count and total a map of `params` must report, from an
// independent Halton loop over the map's range.
PiResult direct_halton(const PiParams& params, std::int64_t map) {
  const auto radical_inverse = [](std::int64_t index, int base) {
    double value = 0.0;
    for (double f = 1.0 / base; index > 0; index /= base, f /= base) {
      value += f * static_cast<double>(index % base);
    }
    return value;
  };
  const std::int64_t per_map = (params.total_samples + params.num_maps - 1) / params.num_maps;
  const std::int64_t begin = map * per_map;
  const std::int64_t samples = std::min(per_map, params.total_samples - begin);
  const std::int64_t evaluated = std::min(samples, params.fidelity_cap);
  std::int64_t inside = 0;
  for (std::int64_t i = begin; i < begin + evaluated; ++i) {
    const double x = radical_inverse(i, 2) - 0.5;
    const double y = radical_inverse(i, 3) - 0.5;
    if (x * x + y * y <= 0.25) ++inside;
  }
  PiResult result;
  result.total = samples;
  result.inside = evaluated == samples ? inside : (inside * samples + evaluated / 2) / evaluated;
  return result;
}

mr::InputSplit pi_split(std::int64_t map) {
  mr::InputSplit split;
  split.index_in_job = static_cast<std::size_t>(map);
  return split;
}

TEST(OutcomeCacheWorkloads, PiCountsMatchADirectHaltonLoop) {
  struct Shape {
    std::int64_t total_samples;
    int num_maps;
    std::int64_t fidelity_cap;
  };
  // Each of cap hit (with a shorter last map), cap not hit and shorter
  // last map, at ranges above and below Pi::kMinCachedPoints.
  for (const Shape shape : {Shape{30001, 3, 5000}, Shape{6000, 4, 5000}, Shape{6001, 4, 5000},
                            Shape{10001, 3, 1000}, Shape{2000, 4, 1000}, Shape{1001, 4, 1000}}) {
    PiParams params;
    params.total_samples = shape.total_samples;
    params.num_maps = shape.num_maps;
    params.fidelity_cap = shape.fidelity_cap;
    // Above the cut-off the first instance misses and the second hits;
    // below it both count the points themselves.
    const Pi a(params), b(params);
    for (std::int64_t m = 0; m < shape.num_maps; ++m) {
      const PiResult expected = direct_halton(params, m);
      for (const Pi* pi : {&a, &b}) {
        const mr::MapOutcome outcome = pi->execute_map(pi_split(m));
        const auto& got = *std::static_pointer_cast<const PiResult>(outcome.data);
        EXPECT_EQ(got.inside, expected.inside) << shape.total_samples << " map " << m;
        EXPECT_EQ(got.total, expected.total) << shape.total_samples << " map " << m;
        EXPECT_DOUBLE_EQ(outcome.core_seconds,
                         static_cast<double>(expected.total) / params.samples_per_core_second);
      }
    }
  }
}

TEST(OutcomeCacheWorkloads, PiShapesSharingARangeComputeItOnce) {
  // 3 and 4 maps of 7919 samples: map 1 of each covers [7919, 15838).
  static_assert(5000 >= Pi::kMinCachedPoints, "every range below must be cacheable");
  PiParams three;
  three.total_samples = 3 * 7919;
  three.num_maps = 3;
  PiParams four = three;
  four.total_samples = 4 * 7919;
  four.num_maps = 4;
  OutcomeCache& cache = OutcomeCache::shared();
  const std::size_t before = cache.size();
  const mr::MapOutcome first = Pi(three).execute_map(pi_split(1));
  EXPECT_EQ(cache.size(), before + 1);
  const mr::MapOutcome shared = Pi(four).execute_map(pi_split(1));
  EXPECT_EQ(cache.size(), before + 1);
  EXPECT_EQ(std::static_pointer_cast<const PiResult>(shared.data)->inside,
            std::static_pointer_cast<const PiResult>(first.data)->inside);

  // A cap that shortens the evaluated range is a different range.
  PiParams capped = three;
  capped.fidelity_cap = 5000;
  Pi(capped).execute_map(pi_split(1));
  EXPECT_EQ(cache.size(), before + 2);
}

TEST(OutcomeCacheWorkloads, PiRangesBelowTheCutOffAreNotCached) {
  PiParams params;
  params.num_maps = 2;
  params.total_samples = 2 * (Pi::kMinCachedPoints - 1) + 12345;  // distinct from other tests
  params.fidelity_cap = Pi::kMinCachedPoints - 1;
  OutcomeCache& cache = OutcomeCache::shared();
  const std::size_t before = cache.size();
  Pi(params).execute_map(pi_split(1));
  EXPECT_EQ(cache.size(), before);
  params.fidelity_cap = Pi::kMinCachedPoints;
  Pi(params).execute_map(pi_split(1));
  EXPECT_EQ(cache.size(), before + 1);
}

TEST(OutcomeCacheWorkloads, TeraSortRunsAndBoundariesAreShared) {
  TeraSortParams params;
  params.rows = 4000;
  params.blocks = 2;
  params.seed = 0x7E4A;
  const TeraSort a(params), b(params);
  mr::InputSplit split;
  split.path = "/input/terasort/part-00000";
  split.offset = 2000 * TeraSort::kRowBytes;
  split.length = 2000 * TeraSort::kRowBytes;
  const mr::MapOutcome run_a = a.execute_map(split);
  const mr::MapOutcome run_b = b.execute_map(split);
  EXPECT_EQ(run_a.data.get(), run_b.data.get());

  // Different rows, offset or length: a different run.
  TeraSortParams more = params;
  more.rows = 6000;
  EXPECT_NE(TeraSort(more).execute_map(split).data.get(), run_a.data.get());
  mr::InputSplit shorter = split;
  shorter.length -= TeraSort::kRowBytes;
  EXPECT_NE(a.execute_map(shorter).data.get(), run_a.data.get());

  // Partitioning through either instance cuts at the same boundaries.
  const auto shards_a = a.partition_map_output(run_a, 3);
  const auto shards_b = b.partition_map_output(run_b, 3);
  ASSERT_EQ(shards_a.size(), 3u);
  for (std::size_t r = 0; r < shards_a.size(); ++r) {
    EXPECT_EQ(*std::static_pointer_cast<const TeraRows>(shards_a[r].data),
              *std::static_pointer_cast<const TeraRows>(shards_b[r].data));
  }
}

TEST(OutcomeCacheWorkloads, SharedBudgetHoldsOneFig7Point) {
  // A registered Fig. 7 point maps up to 16 files of 10 MB, one split
  // each; all of them must fit at once, or its four modes would thrash.
  WordCountParams params;
  params.num_files = 1;
  params.bytes_per_file = 10_MB;
  params.seed = 0xF167;
  OutcomeCache& cache = OutcomeCache::shared();
  const std::size_t before = cache.resident_bytes();
  WordCount(params).execute_map(wordcount_split(params, 0, 0, params.bytes_per_file));
  const std::size_t split_bytes = cache.resident_bytes() - before;
  EXPECT_GT(split_bytes, std::size_t{1} << 20);
  EXPECT_LE(16 * split_bytes, OutcomeCache::kBudgetBytes);
}

}  // namespace
}  // namespace mrapid::wl
