// Tests for the workloads: the text generator, WordCount, TeraSort and
// PI — these verify the *real computation* (counts, sortedness, pi
// accuracy), not just the simulated timing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/azure.h"
#include "common/hash.h"
#include "common/rng.h"
#include "harness/world.h"
#include "mapreduce/split.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/textgen.h"
#include "workloads/wordcount.h"

namespace mrapid::wl {
namespace {

// ---- text generator --------------------------------------------------

TEST(TextGen, DeterministicPerSeedAndTag) {
  TextGenerator a(42), b(42);
  EXPECT_EQ(a.generate(4096, 1), b.generate(4096, 1));
  EXPECT_NE(a.generate(4096, 1), a.generate(4096, 2));
  TextGenerator c(43);
  EXPECT_NE(a.generate(4096, 1), c.generate(4096, 1));
}

TEST(TextGen, ExactRequestedSize) {
  TextGenerator gen(1);
  for (Bytes size : {1_B, 100_B, 64_KB}) {
    EXPECT_EQ(static_cast<Bytes>(gen.generate(size, 0).size()), size);
  }
}

TEST(TextGen, ProducesTokenizableWords) {
  TextGenerator gen(1);
  const std::string text = gen.generate(64_KB, 0);
  WordCounts counts;
  tokenize_into(text, counts);
  EXPECT_GT(counts.size(), 10u);
  for (const auto& [word, count] : counts) {
    EXPECT_GT(count, 0);
    for (char c : word) EXPECT_TRUE(c >= 'a' && c <= 'z') << word;
  }
}

TEST(TextGen, ZipfSkewMakesTopWordsDominate) {
  TextGenerator gen(7);
  WordCounts counts;
  tokenize_into(gen.generate(256_KB, 0), counts);
  std::vector<std::int64_t> freq;
  std::int64_t total = 0;
  for (const auto& [w, c] : counts) {
    freq.push_back(c);
    total += c;
  }
  std::sort(freq.rbegin(), freq.rend());
  std::int64_t top10 = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(10, freq.size()); ++i) top10 += freq[i];
  // Zipf s=1.1: the 10 hottest words carry a large share of tokens.
  EXPECT_GT(static_cast<double>(top10) / static_cast<double>(total), 0.15);
}

TEST(TextGen, OneMegabyteDigestsArePinned) {
  // FNV-1a digests of generate(1 MB, tag), taken before the Zipf draws
  // moved to the hoisted ZipfSampler: the corpus must not change by a byte.
  struct Pin {
    std::uint64_t seed;
    std::uint64_t tag;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{42, 0, 0x4ddd9d19cfdf7c96ull}, Pin{42, 3, 0x50ec4aa68bc9ab10ull},
                         Pin{20170529, 0, 0xda173b8b35958f72ull},
                         Pin{20170529, 3, 0x3cacadbac0ba4125ull}}) {
    const std::string text = TextGenerator(pin.seed).generate(1_MB, pin.tag);
    Fnv64 digest;
    digest.mix(std::string_view(text));
    EXPECT_EQ(digest.value(), pin.digest) << "seed " << pin.seed << " tag " << pin.tag;
  }
}

// ---- tokenizer ---------------------------------------------------------

// An independent model of the tokeniser: walk the text once, cut a word
// at every ' ' or '\n', count it as soon as it ends.
WordCounts naive_counts(std::string_view text, WordCounts counts = {}) {
  std::string word;
  for (const char c : text) {
    if (c == ' ' || c == '\n') {
      if (!word.empty()) ++counts[word];
      word.clear();
    } else {
      word.push_back(c);
    }
  }
  if (!word.empty()) ++counts[word];
  return counts;
}

std::vector<std::pair<std::string, std::int64_t>> in_iteration_order(const WordCounts& counts) {
  return {counts.begin(), counts.end()};
}

TEST(Tokenizer, MatchesANaiveSplitterOnRandomText) {
  // Few letters so words repeat; '\t' and '\r' are word characters.
  const std::string alphabet = "abcd  \n\t\r";
  RngStream rng(2024, "tokenizer");
  for (int round = 0; round < 200; ++round) {
    const auto size = static_cast<std::size_t>(rng.next_int(0, round < 150 ? 300 : 60000));
    std::string text;
    for (std::size_t i = 0; i < size; ++i) {
      text.push_back(alphabet[static_cast<std::size_t>(
          rng.next_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))]);
    }
    // The whole text, then a sub-view at an arbitrary offset.
    const std::string_view whole(text);
    const auto offset = static_cast<std::size_t>(rng.next_int(0, static_cast<std::int64_t>(size)));
    const auto length =
        static_cast<std::size_t>(rng.next_int(0, static_cast<std::int64_t>(size - offset)));
    for (const std::string_view view : {whole, whole.substr(offset, length)}) {
      WordCounts counts;
      tokenize_into(view, counts);
      const WordCounts expected = naive_counts(view);
      ASSERT_EQ(counts, expected) << "round " << round;
      // Same insertions in the same order, so even iteration order agrees.
      ASSERT_EQ(in_iteration_order(counts), in_iteration_order(expected)) << "round " << round;
    }
    // Accumulating a second text into non-empty counts.
    WordCounts counts;
    tokenize_into(whole.substr(0, offset), counts);
    tokenize_into(whole.substr(offset), counts);
    const WordCounts expected = naive_counts(whole.substr(offset), naive_counts(whole.substr(0, offset)));
    ASSERT_EQ(in_iteration_order(counts), in_iteration_order(expected)) << "round " << round;
  }
}

TEST(Tokenizer, EmptyAndAllSeparatorInputAddNothing) {
  for (const std::string_view text : {"", " ", "\n", "  \n \n\n   "}) {
    WordCounts counts{{"kept", 3}};
    tokenize_into(text, counts);
    EXPECT_EQ(counts, (WordCounts{{"kept", 3}}));
  }
  WordCounts counts;
  tokenize_into("\t\r", counts);  // not separators: one word
  EXPECT_EQ(counts, (WordCounts{{"\t\r", 1}}));
}

TEST(Tokenizer, MatchesANaiveSplitterOnGeneratedText) {
  // Generated text has ~100k distinct words, far more than the
  // tokeniser's initial table, so it exercises every regrowth.
  const std::string text = TextGenerator(11).generate(2_MB, 0);
  WordCounts counts;
  tokenize_into(text, counts);
  ASSERT_GT(counts.size(), 10000u);
  EXPECT_EQ(in_iteration_order(counts), in_iteration_order(naive_counts(text)));
}

TEST(Tokenizer, SplitsOnSpacesAndNewlines) {
  WordCounts counts;
  tokenize_into("a b a\nb  c ", counts);
  EXPECT_EQ(counts.at("a"), 2);
  EXPECT_EQ(counts.at("b"), 2);
  EXPECT_EQ(counts.at("c"), 1);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(Tokenizer, EmptyAndWhitespaceOnly) {
  WordCounts counts;
  tokenize_into("", counts);
  tokenize_into("   \n  ", counts);
  EXPECT_TRUE(counts.empty());
}

// ---- wordcount -----------------------------------------------------------

TEST(WordCountLogic, MapCountsMatchDirectTokenization) {
  WordCountParams params;
  params.num_files = 2;
  params.bytes_per_file = 64_KB;
  WordCount wc(params);

  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto paths = wc.stage(hdfs);
  const auto splits = mr::compute_splits(hdfs, paths);
  ASSERT_EQ(splits.size(), 2u);

  std::vector<mr::MapOutcome> outcomes;
  for (const auto& split : splits) outcomes.push_back(wc.execute_map(split));
  const auto reduced = wc.execute_reduce(outcomes);
  const auto& merged = *std::static_pointer_cast<const WordCounts>(reduced.result);
  EXPECT_EQ(merged, wc.reference_counts());
}

TEST(WordCountLogic, CombinerShrinksOutput) {
  WordCountParams with;
  with.num_files = 1;
  with.bytes_per_file = 64_KB;
  WordCountParams without = with;
  without.use_combiner = false;

  WordCount a(with), b(without);
  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto splits = mr::compute_splits(hdfs, a.stage(hdfs));
  const auto combined = a.execute_map(splits[0]);
  const auto raw = b.execute_map(splits[0]);
  EXPECT_LT(combined.output_bytes, raw.output_bytes);
  EXPECT_LT(combined.output_records, raw.output_records);
}

TEST(WordCountLogic, CoreSecondsScaleWithInput) {
  WordCountParams params;
  params.num_files = 1;
  params.bytes_per_file = 10_MB;
  WordCount wc(params);
  mr::InputSplit split;
  split.path = "/input/wordcount/part-00000";
  split.offset = 0;
  split.length = 10_MB;
  const auto outcome = wc.execute_map(split);
  // core-seconds = split bytes / configured map throughput.
  EXPECT_NEAR(outcome.core_seconds,
              params.map_throughput.seconds_for(split.length), 1e-9);
}

// WordCount::result_digest as it was before it sorted by an 8-byte
// prefix, kept verbatim as the reference model: sort (word, count)
// pairs, fold them in order.
std::uint64_t pair_sort_digest(const mr::JobResult& result) {
  Fnv64 digest;
  digest.mix(static_cast<std::uint64_t>(result.reduce_results.size()));
  for (const auto& erased : result.reduce_results) {
    if (!erased) {
      digest.mix(std::string_view("<null partition>"));
      continue;
    }
    const auto& counts = *std::static_pointer_cast<const WordCounts>(erased);
    std::vector<std::pair<std::string_view, std::int64_t>> sorted;
    sorted.reserve(counts.size());
    for (const auto& [word, count] : counts) sorted.emplace_back(word, count);
    std::sort(sorted.begin(), sorted.end());
    digest.mix(static_cast<std::uint64_t>(sorted.size()));
    for (const auto& [word, count] : sorted) {
      digest.mix(word);
      digest.mix(count);
    }
  }
  return digest.value();
}

TEST(WordCountLogic, DigestMatchesThePairSortReference) {
  const WordCount wc(WordCountParams{});
  RngStream rng(0xD16E57);
  // Stems of 8 and more bytes make words whose sort prefixes tie; one
  // holds bytes >= 0x80 and one a NUL, which the zero padding must not
  // confuse with a word's end.
  const std::vector<std::string> stems{"",
                                       "abcdefgh",
                                       "abcdefghij",
                                       std::string("abc\0efgh", 8),
                                       "\xff\x80zzzzzz",
                                       std::string("\x7f\x80\x81\xfe\xff\0\x01\x02", 8)};
  const auto random_word = [&] {
    std::string word = stems[static_cast<std::size_t>(
        rng.next_int(0, static_cast<std::int64_t>(stems.size()) - 1))];
    // 1-7 bytes alone, or a suffix after a stem; bytes over all of 0..255.
    const std::int64_t extra = rng.next_int(word.empty() ? 1 : 0, 7);
    for (std::int64_t i = 0; i < extra; ++i) {
      word.push_back(static_cast<char>(rng.next_int(0, 3) == 0 ? rng.next_int(0x80, 0xff)
                                                               : rng.next_int(0, 0xff)));
    }
    return word;
  };
  for (int trial = 0; trial < 300; ++trial) {
    mr::JobResult result;
    const std::int64_t partitions = rng.next_int(1, 5);
    for (std::int64_t p = 0; p < partitions; ++p) {
      const std::int64_t kind = rng.next_int(0, 9);
      if (kind == 0) {
        result.reduce_results.push_back(nullptr);
        continue;
      }
      auto counts = std::make_shared<WordCounts>();
      const std::int64_t words = kind == 1 ? 0 : rng.next_int(1, 200);
      for (std::int64_t w = 0; w < words; ++w) (*counts)[random_word()] += rng.next_int(1, 1000);
      result.reduce_results.push_back(counts);
    }
    EXPECT_EQ(wc.result_digest(result), pair_sort_digest(result)) << "trial " << trial;
  }
}

// Parameterized sweep: correctness must hold across file counts/sizes.
class WordCountSweep : public ::testing::TestWithParam<std::tuple<int, Bytes>> {};

TEST_P(WordCountSweep, EndToEndTotalsMatchCorpus) {
  const auto [files, bytes] = GetParam();
  WordCountParams params;
  params.num_files = static_cast<std::size_t>(files);
  params.bytes_per_file = bytes;
  WordCount wc(params);

  harness::WorldConfig config;
  auto result = harness::run_workload(config, harness::RunMode::kUPlus, wc);
  ASSERT_TRUE(result.has_value());
  const auto counts = WordCount::result_of(*result);
  const auto reference = wc.reference_counts();
  EXPECT_EQ(*counts, reference);
}

INSTANTIATE_TEST_SUITE_P(FilesAndSizes, WordCountSweep,
                         ::testing::Values(std::make_tuple(1, 32_KB),
                                           std::make_tuple(2, 64_KB),
                                           std::make_tuple(4, 128_KB),
                                           std::make_tuple(8, 32_KB)));

// ---- terasort -------------------------------------------------------------

TEST(TeraSortLogic, StageCreatesRequestedBlockCount) {
  TeraSortParams params;
  params.rows = 40000;  // 4 MB
  params.blocks = 4;
  TeraSort ts(params);
  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto paths = ts.stage(hdfs);
  const auto splits = mr::compute_splits(hdfs, paths);
  EXPECT_EQ(splits.size(), 4u);
  Bytes total = 0;
  for (const auto& s : splits) total += s.length;
  EXPECT_EQ(total, ts.total_input());
}

TEST(TeraSortLogic, MapProducesSortedRun) {
  TeraSortParams params;
  params.rows = 10000;
  params.blocks = 2;
  TeraSort ts(params);
  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto splits = mr::compute_splits(hdfs, ts.stage(hdfs));
  const auto outcome = ts.execute_map(splits[0]);
  const auto& run = *std::static_pointer_cast<const TeraRows>(outcome.data);
  EXPECT_TRUE(std::is_sorted(run.begin(), run.end()));
  EXPECT_EQ(outcome.output_bytes, splits[0].length);
}

class TeraSortSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TeraSortSweep, OutputIsTotallyOrderedPermutation) {
  TeraSortParams params;
  params.rows = GetParam();
  params.blocks = 4;
  TeraSort ts(params);

  harness::WorldConfig config;
  auto result = harness::run_workload(config, harness::RunMode::kUPlus, ts);
  ASSERT_TRUE(result.has_value());
  const auto sorted = TeraSort::result_of(*result);
  ASSERT_EQ(static_cast<std::int64_t>(sorted->size()), params.rows);
  EXPECT_TRUE(std::is_sorted(sorted->begin(), sorted->end()));
  // Permutation check: every original payload tag appears exactly once.
  std::vector<bool> seen(static_cast<std::size_t>(params.rows), false);
  for (const auto& row : *sorted) {
    ASSERT_LT(row.payload_tag, seen.size());
    EXPECT_FALSE(seen[row.payload_tag]);
    seen[row.payload_tag] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(RowCounts, TeraSortSweep, ::testing::Values(1000, 10000, 50000));

// ---- pi ---------------------------------------------------------------------

TEST(PiLogic, HaltonPointsAreInUnitSquareAndDistinct) {
  std::set<std::pair<double, double>> points;
  for (int i = 1; i <= 1000; ++i) {
    const auto [x, y] = Pi::halton_point(i);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    EXPECT_GE(y, 0.0);
    EXPECT_LT(y, 1.0);
    points.insert({x, y});
  }
  EXPECT_EQ(points.size(), 1000u);
}

TEST(PiLogic, EstimateConvergesToPi) {
  PiParams params;
  params.total_samples = 4000000;
  params.num_maps = 4;
  Pi pi(params);
  harness::WorldConfig config;
  auto result = harness::run_workload(config, harness::RunMode::kUPlus, pi);
  ASSERT_TRUE(result.has_value());
  const auto estimate = Pi::result_of(*result);
  EXPECT_EQ(estimate->total, params.total_samples);
  EXPECT_NEAR(estimate->estimate(), M_PI, 0.01);
}

TEST(PiLogic, FidelityCapScalesComputeNotAccuracyModel) {
  PiParams params;
  params.total_samples = 100000000;  // far beyond the cap
  params.num_maps = 4;
  params.fidelity_cap = 100000;
  Pi pi(params);
  mr::InputSplit split;
  split.index_in_job = 0;
  const auto outcome = pi.execute_map(split);
  // Timed work reflects the FULL sample count.
  EXPECT_NEAR(outcome.core_seconds, 25000000 / params.samples_per_core_second, 1e-9);
  const auto& partial = *std::static_pointer_cast<const PiResult>(outcome.data);
  EXPECT_EQ(partial.total, 25000000);
  // The scaled inside-count still gives a sane estimate.
  EXPECT_NEAR(4.0 * partial.inside / partial.total, M_PI, 0.05);
}

TEST(PiLogic, MapsSplitSamplesEvenly) {
  PiParams params;
  params.total_samples = 10;
  params.num_maps = 4;
  Pi pi(params);
  std::int64_t total = 0;
  for (int i = 0; i < 4; ++i) {
    mr::InputSplit split;
    split.index_in_job = static_cast<std::size_t>(i);
    const auto outcome = pi.execute_map(split);
    total += std::static_pointer_cast<const PiResult>(outcome.data)->total;
  }
  EXPECT_EQ(total, 10);
}

}  // namespace
}  // namespace mrapid::wl
