#include "workloads/wordcount.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>

#include "common/hash.h"
#include "workloads/outcome_cache.h"

namespace mrapid::wl {

namespace {
// Serialized (word, count) pair: word bytes + separator + 8-byte count.
constexpr Bytes kPairOverhead = 9;

// Heap held by `counts` in libstdc++'s layout: a bucket array, one
// node per word (next pointer, key, count, cached hash, allocator
// header), and the text of words too long for the string's own buffer.
std::size_t heap_bytes(const WordCounts& counts) {
  std::size_t bytes = counts.bucket_count() * sizeof(void*) +
                      counts.size() * (sizeof(WordCounts::value_type) + 3 * sizeof(void*));
  for (const auto& [word, count] : counts) {
    (void)count;
    if (word.capacity() > std::string().capacity()) bytes += word.capacity() + 1;
  }
  return bytes;
}

// A split's cached map outcome: its counts, and the totals every map
// call derives its sizes from, computed once when the split is mapped.
struct SplitCounts {
  WordCounts counts;
  std::int64_t tokens = 0;
  Bytes combined_bytes = 0;  // serialized (word, count) pairs
  Bytes raw_bytes = 0;       // serialized (word, 1) pairs, one per token
};

// Input directories are derived from the workload shape so distinct
// WordCount instances sharing one HDFS never collide.
std::string input_dir(const WordCountParams& params) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/input/wordcount-%zux%lld-%llu", params.num_files,
                static_cast<long long>(params.bytes_per_file),
                static_cast<unsigned long long>(params.seed));
  return buf;
}

std::string input_path(const WordCountParams& params, std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/part-%05zu", index);
  return input_dir(params) + buf;
}

bool is_separator(char c) { return c == ' ' || c == '\n'; }

// Counts words as views into the text being tokenised: an
// open-addressing index over a dense, first-occurrence-ordered entry
// list. Owned strings are made only when the counts are handed over.
class ViewCounter {
 public:
  void add(std::string_view word, std::uint64_t hash) {
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    std::size_t slot = home(hash);
    while (const std::uint32_t e = slots_[slot]) {
      Entry& entry = entries_[e - 1];
      if (entry.hash == hash && entry.word == word) {
        ++entry.count;
        return;
      }
      slot = (slot + 1) & (slots_.size() - 1);
    }
    entries_.push_back({word, hash, 1});
    slots_[slot] = static_cast<std::uint32_t>(entries_.size());
  }

  // Adds every count to `counts` in first-occurrence order, so `counts`
  // sees the same sequence of insertions as counting token by token.
  void flush_into(WordCounts& counts) const {
    for (const Entry& entry : entries_) counts[std::string(entry.word)] += entry.count;
  }

 private:
  struct Entry {
    std::string_view word;
    std::uint64_t hash;
    std::int64_t count;
  };

  // Fibonacci hashing: the top bits of hash * 2^64/phi.
  std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    slots_.assign(slots_.empty() ? 1024 : 2 * slots_.size(), 0);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t slot = home(entries_[i].hash);
      while (slots_[slot] != 0) slot = (slot + 1) & (slots_.size() - 1);
      slots_[slot] = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 is empty
  int shift_ = 64;
};

}  // namespace

void tokenize_into(std::string_view text, WordCounts& counts) {
  ViewCounter counter;
  std::size_t begin = 0;
  while (begin < text.size()) {
    while (begin < text.size() && is_separator(text[begin])) ++begin;
    std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a, fused with the scan
    std::size_t end = begin;
    for (; end < text.size() && !is_separator(text[end]); ++end) {
      hash = (hash ^ static_cast<unsigned char>(text[end])) * 0x100000001b3ull;
    }
    if (end > begin) counter.add(text.substr(begin, end - begin), hash);
    begin = end;
  }
  counter.flush_into(counts);
}

WordCount::WordCount(WordCountParams params) : params_(params) {
  content_cache_.resize(params_.num_files);
}

const std::string& WordCount::file_content(std::size_t file_index) const {
  assert(file_index < content_cache_.size());
  std::string& cached = content_cache_[file_index];
  if (cached.empty() && params_.bytes_per_file > 0) {
    if (!generator_) generator_.emplace(params_.seed, params_.vocabulary, params_.zipf_s);
    cached = generator_->generate(params_.bytes_per_file, file_index);
  }
  return cached;
}

std::vector<std::string> WordCount::stage(hdfs::Hdfs& hdfs) {
  std::vector<std::string> paths;
  paths.reserve(params_.num_files);
  for (std::size_t i = 0; i < params_.num_files; ++i) {
    std::string path = input_path(params_, i);
    if (!hdfs.namenode().exists(path)) hdfs.preload_file(path, params_.bytes_per_file);
    paths.push_back(std::move(path));
  }
  return paths;
}

Bytes WordCount::serialized_size(const WordCounts& counts) {
  Bytes total = 0;
  for (const auto& [word, count] : counts) {
    (void)count;
    total += static_cast<Bytes>(word.size()) + kPairOverhead;
  }
  return total;
}

mr::MapOutcome WordCount::execute_map(const mr::InputSplit& split) const {
  // Recover the file index from the staged path layout.
  std::size_t file_index = 0;
  const std::size_t part = split.path.rfind("/part-");
  assert(part != std::string::npos);
  std::sscanf(split.path.c_str() + part, "/part-%zu", &file_index);

  const OutcomeKey key{OutcomeKind::kWordCountSplit,
                       {params_.seed, params_.vocabulary, std::bit_cast<std::uint64_t>(params_.zipf_s),
                        file_index, static_cast<std::uint64_t>(params_.bytes_per_file),
                        static_cast<std::uint64_t>(split.offset),
                        static_cast<std::uint64_t>(split.length)}};
  const auto entry = std::static_pointer_cast<const SplitCounts>(
      OutcomeCache::shared().get_or_compute(key, [&] {
        const std::string& content = file_content(file_index);
        const auto offset = static_cast<std::size_t>(split.offset);
        const auto length = static_cast<std::size_t>(split.length);
        assert(offset + length <= content.size() + 1);
        auto value = std::make_shared<SplitCounts>();
        tokenize_into(std::string_view(content).substr(offset, length), value->counts);
        value->combined_bytes = serialized_size(value->counts);
        for (const auto& [word, count] : value->counts) {
          value->tokens += count;
          value->raw_bytes += count * (static_cast<Bytes>(word.size()) + kPairOverhead);
        }
        return OutcomeCache::Value{value, heap_bytes(value->counts)};
      }));

  mr::MapOutcome outcome;
  if (params_.use_combiner) {
    outcome.output_bytes = entry->combined_bytes;
    outcome.output_records = static_cast<std::int64_t>(entry->counts.size());
  } else {
    // Raw (word, 1) pairs: one record per token.
    outcome.output_bytes = entry->raw_bytes;
    outcome.output_records = entry->tokens;
  }
  outcome.core_seconds = params_.map_throughput.seconds_for(split.length);
  outcome.data = std::shared_ptr<const WordCounts>(entry, &entry->counts);
  return outcome;
}

mr::ReduceOutcome WordCount::execute_reduce(std::span<const mr::MapOutcome> maps) const {
  auto merged = std::make_shared<WordCounts>();
  Bytes shuffled = 0;
  for (const auto& map : maps) {
    shuffled += map.output_bytes;
    if (!map.data) continue;
    const auto& counts = *std::static_pointer_cast<const WordCounts>(map.data);
    for (const auto& [word, count] : counts) (*merged)[word] += count;
  }
  mr::ReduceOutcome outcome;
  outcome.output_bytes = serialized_size(*merged);
  outcome.core_seconds = params_.reduce_throughput.seconds_for(shuffled);
  outcome.result = merged;
  return outcome;
}

std::vector<mr::MapOutcome> WordCount::partition_map_output(const mr::MapOutcome& outcome,
                                                            int reducers) const {
  if (reducers <= 1) return mr::JobLogic::partition_map_output(outcome, reducers);
  std::vector<std::shared_ptr<WordCounts>> shards(static_cast<std::size_t>(reducers));
  for (auto& shard : shards) shard = std::make_shared<WordCounts>();
  if (outcome.data) {
    const auto& counts = *std::static_pointer_cast<const WordCounts>(outcome.data);
    for (const auto& [word, count] : counts) {
      const auto r = stable_hash64(word) % static_cast<std::uint64_t>(reducers);
      (*shards[static_cast<std::size_t>(r)])[word] = count;
    }
  }
  std::vector<mr::MapOutcome> out(static_cast<std::size_t>(reducers));
  for (int r = 0; r < reducers; ++r) {
    auto& shard = shards[static_cast<std::size_t>(r)];
    out[static_cast<std::size_t>(r)].output_bytes = serialized_size(*shard);
    out[static_cast<std::size_t>(r)].output_records = static_cast<std::int64_t>(shard->size());
    out[static_cast<std::size_t>(r)].data = shard;
  }
  return out;
}

std::uint64_t WordCount::result_digest(const mr::JobResult& result) const {
  // WordCounts is an unordered_map, so each partition is sorted by
  // word before hashing; the partitions themselves are disjoint and
  // ordered, so they are folded in partition order.
  Fnv64 digest;
  digest.mix(static_cast<std::uint64_t>(result.reduce_results.size()));
  for (const auto& erased : result.reduce_results) {
    if (!erased) {
      digest.mix(std::string_view("<null partition>"));
      continue;
    }
    const auto& counts = *std::static_pointer_cast<const WordCounts>(erased);
    // A word's first 8 bytes, big-endian and zero-padded, order words as
    // a full compare does (bytes unsigned, a word that ends first sorts
    // first), so only words whose prefixes tie are compared in full.
    // Words are unique within a partition, so counts never break ties.
    struct KeyedWord {
      std::uint64_t prefix;
      std::string_view word;
      std::int64_t count;
    };
    std::vector<KeyedWord> sorted;
    sorted.reserve(counts.size());
    for (const auto& [word, count] : counts) {
      std::uint64_t prefix = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        prefix = prefix << 8 | (i < word.size() ? static_cast<unsigned char>(word[i]) : 0u);
      }
      sorted.push_back({prefix, word, count});
    }
    std::sort(sorted.begin(), sorted.end(), [](const KeyedWord& a, const KeyedWord& b) {
      return a.prefix != b.prefix ? a.prefix < b.prefix : a.word < b.word;
    });
    digest.mix(static_cast<std::uint64_t>(sorted.size()));
    for (const KeyedWord& keyed : sorted) {
      digest.mix(keyed.word);
      digest.mix(keyed.count);
    }
  }
  return digest.value();
}

WordCounts WordCount::reference_counts() const {
  WordCounts counts;
  for (std::size_t i = 0; i < params_.num_files; ++i) tokenize_into(file_content(i), counts);
  return counts;
}

}  // namespace mrapid::wl
