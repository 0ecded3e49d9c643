#pragma once

// WordCount, matching the Hadoop examples program: tokenising map with
// an in-map combiner, summing reduce. The map really tokenises the
// generated corpus, so word totals are verifiable against the
// generator, and the measured intermediate sizes drive the simulator.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "workloads/textgen.h"
#include "workloads/workload.h"

namespace mrapid::wl {

// Intermediate and final data type: word -> count.
using WordCounts = std::unordered_map<std::string, std::int64_t>;

struct WordCountParams {
  std::size_t num_files = 4;
  Bytes bytes_per_file = 10_MB;
  std::uint64_t seed = 42;
  std::size_t vocabulary = 100000;
  double zipf_s = 1.1;
  // Calibration: map-side tokenise+combine throughput per core and
  // reduce-side merge throughput per core. JVM-era Hadoop WordCount
  // maps process single-digit MB/s per core once record-reader and
  // serialisation overheads are counted.
  Rate map_throughput = Rate::mb_per_sec(3);
  Rate reduce_throughput = Rate::mb_per_sec(25);
  // When true the combiner is disabled and the map emits raw
  // (word, 1) pairs — much larger intermediate data (used by the
  // cache-pressure tests).
  bool use_combiner = true;
};

class WordCount : public Workload {
 public:
  explicit WordCount(WordCountParams params);

  std::string name() const override { return "wordcount"; }
  std::vector<std::string> stage(hdfs::Hdfs& hdfs) override;

  mr::MapOutcome execute_map(const mr::InputSplit& split) const override;
  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome> maps) const override;
  std::uint64_t result_digest(const mr::JobResult& result) const override;

  // HashPartitioner: words are hashed over the reducers, like
  // Hadoop's default (hash(key) mod R).
  std::vector<mr::MapOutcome> partition_map_output(const mr::MapOutcome& outcome,
                                                   int reducers) const override;

  // Tokenising streams through the JVM is memory-bandwidth heavy
  // (string churn, GC): co-scheduled WordCount maps degrade markedly.
  double compute_contention() const override { return 0.25; }

  const WordCountParams& params() const { return params_; }
  Bytes total_input() const {
    return static_cast<Bytes>(params_.num_files) * params_.bytes_per_file;
  }

  // Ground truth for tests: tokenise everything directly.
  WordCounts reference_counts() const;

  static std::shared_ptr<const WordCounts> result_of(const mr::JobResult& result) {
    return std::static_pointer_cast<const WordCounts>(result.reduce_result);
  }

 private:
  const std::string& file_content(std::size_t file_index) const;
  static Bytes serialized_size(const WordCounts& counts);

  WordCountParams params_;
  // The generator (its vocabulary) and each file's text are built on
  // first use: only when a split misses the outcome cache (or for
  // reference_counts()), so instances whose splits another instance
  // already mapped build neither.
  mutable std::optional<TextGenerator> generator_;
  mutable std::vector<std::string> content_cache_;
};

// Tokenise `text` into `counts` (splits on spaces/newlines; no other
// character separates words). New words enter `counts` in
// first-occurrence order. Exposed for tests.
void tokenize_into(std::string_view text, WordCounts& counts);

}  // namespace mrapid::wl
