#include "workloads/terasort.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/rng.h"
#include "workloads/outcome_cache.h"

namespace mrapid::wl {

TeraSort::TeraSort(TeraSortParams params) : params_(params) {
  assert(params_.rows > 0 && params_.blocks > 0);
}

const TeraRows& TeraSort::rows() const {
  if (rows_cache_.empty()) {
    RngStream rng(params_.seed, "teragen");
    rows_cache_.reserve(static_cast<std::size_t>(params_.rows));
    for (std::int64_t i = 0; i < params_.rows; ++i) {
      TeraRow row;
      for (auto& c : row.key) {
        c = static_cast<char>(' ' + rng.next_int(0, 94));  // printable, like TeraGen
      }
      row.payload_tag = static_cast<std::uint64_t>(i);
      rows_cache_.push_back(row);
    }
  }
  return rows_cache_;
}

std::vector<std::string> TeraSort::stage(hdfs::Hdfs& hdfs) {
  // One input file laid out so that it splits into exactly
  // params_.blocks blocks ("4 blocks, which designates 4 Map tasks").
  // The path encodes the shape so co-staged instances never collide.
  const Bytes total = total_input();
  const Bytes block_size = (total + params_.blocks - 1) / params_.blocks;
  char path[96];
  std::snprintf(path, sizeof(path), "/input/terasort-%lldx%d-%llu/part-00000",
                static_cast<long long>(params_.rows), params_.blocks,
                static_cast<unsigned long long>(params_.seed));
  if (!hdfs.namenode().exists(path)) {
    hdfs.preload_file(path, total, block_size, cluster::kInvalidNode);
  }
  return {path};
}

mr::MapOutcome TeraSort::execute_map(const mr::InputSplit& split) const {
  const auto first = static_cast<std::size_t>(split.offset / kRowBytes);
  const auto count = static_cast<std::size_t>(split.length / kRowBytes);
  const OutcomeKey key{OutcomeKind::kTeraSortRun,
                       {params_.seed, static_cast<std::uint64_t>(params_.rows),
                        static_cast<std::uint64_t>(split.offset),
                        static_cast<std::uint64_t>(split.length)}};
  mr::MapOutcome outcome;
  outcome.output_bytes = static_cast<Bytes>(count) * kRowBytes;  // sort moves every byte
  outcome.output_records = static_cast<std::int64_t>(count);
  outcome.core_seconds = params_.map_sort_throughput.seconds_for(split.length);
  outcome.data = OutcomeCache::shared().get_or_compute(key, [&] {
    const TeraRows& all = rows();
    assert(first + count <= all.size());
    auto run = std::make_shared<TeraRows>(all.begin() + static_cast<std::ptrdiff_t>(first),
                                          all.begin() + static_cast<std::ptrdiff_t>(first + count));
    std::sort(run->begin(), run->end());
    return OutcomeCache::Value{run, run->capacity() * sizeof(TeraRow)};
  });
  return outcome;
}

std::shared_ptr<const TeraRows> TeraSort::boundaries(int reducers) const {
  const OutcomeKey key{OutcomeKind::kTeraSortBoundaries,
                       {params_.seed, static_cast<std::uint64_t>(params_.rows),
                        static_cast<std::uint64_t>(reducers)}};
  return std::static_pointer_cast<const TeraRows>(OutcomeCache::shared().get_or_compute(key, [&] {
    // Sample every k-th row (deterministic), sort the sample, pick R-1
    // evenly spaced boundary keys — the TeraSort sampling pass.
    const TeraRows& all = rows();
    TeraRows sample;
    const std::size_t stride = std::max<std::size_t>(1, all.size() / 1024);
    for (std::size_t i = 0; i < all.size(); i += stride) sample.push_back(all[i]);
    std::sort(sample.begin(), sample.end());
    auto bounds = std::make_shared<TeraRows>();
    for (int r = 1; r < reducers; ++r) {
      bounds->push_back(sample[sample.size() * static_cast<std::size_t>(r) /
                               static_cast<std::size_t>(reducers)]);
    }
    return OutcomeCache::Value{bounds, bounds->capacity() * sizeof(TeraRow)};
  }));
}

std::vector<mr::MapOutcome> TeraSort::partition_map_output(const mr::MapOutcome& outcome,
                                                           int reducers) const {
  if (reducers <= 1) return mr::JobLogic::partition_map_output(outcome, reducers);
  const auto bounds = boundaries(reducers);
  std::vector<std::shared_ptr<TeraRows>> shards(static_cast<std::size_t>(reducers));
  for (auto& shard : shards) shard = std::make_shared<TeraRows>();
  if (outcome.data) {
    const auto& run = *std::static_pointer_cast<const TeraRows>(outcome.data);
    for (const auto& row : run) {
      const auto r = static_cast<std::size_t>(
          std::upper_bound(bounds->begin(), bounds->end(), row) - bounds->begin());
      shards[r]->push_back(row);
    }
  }
  std::vector<mr::MapOutcome> out(static_cast<std::size_t>(reducers));
  for (int r = 0; r < reducers; ++r) {
    auto& shard = shards[static_cast<std::size_t>(r)];
    out[static_cast<std::size_t>(r)].output_bytes =
        static_cast<Bytes>(shard->size()) * kRowBytes;
    out[static_cast<std::size_t>(r)].output_records = static_cast<std::int64_t>(shard->size());
    out[static_cast<std::size_t>(r)].data = shard;
  }
  return out;
}

std::uint64_t TeraSort::result_digest(const mr::JobResult& result) const {
  // Keys only: rows with equal keys may legitimately swap payload tags
  // depending on merge order, and the sorted key sequence is what
  // "same answer" means for a sort. Partition order is the global
  // order, so folding partitions in order digests the concatenation.
  Fnv64 digest;
  digest.mix(static_cast<std::uint64_t>(result.reduce_results.size()));
  for (const auto& erased : result.reduce_results) {
    if (!erased) {
      digest.mix(std::string_view("<null partition>"));
      continue;
    }
    const auto& rows = *std::static_pointer_cast<const TeraRows>(erased);
    digest.mix(static_cast<std::uint64_t>(rows.size()));
    for (const auto& row : rows) digest.mix_bytes(row.key.data(), row.key.size());
  }
  return digest.value();
}

mr::ReduceOutcome TeraSort::execute_reduce(std::span<const mr::MapOutcome> maps) const {
  // K-way merge of the sorted runs (implemented as concatenate +
  // inplace_merge cascade, which is O(n log k) like a heap merge).
  auto merged = std::make_shared<TeraRows>();
  Bytes shuffled = 0;
  std::vector<std::size_t> run_bounds{0};
  for (const auto& map : maps) {
    shuffled += map.output_bytes;
    if (!map.data) continue;
    const auto& run = *std::static_pointer_cast<const TeraRows>(map.data);
    merged->insert(merged->end(), run.begin(), run.end());
    run_bounds.push_back(merged->size());
  }
  while (run_bounds.size() > 2) {
    std::vector<std::size_t> next{0};
    for (std::size_t i = 2; i < run_bounds.size(); i += 2) {
      std::inplace_merge(merged->begin() + static_cast<std::ptrdiff_t>(run_bounds[i - 2]),
                         merged->begin() + static_cast<std::ptrdiff_t>(run_bounds[i - 1]),
                         merged->begin() + static_cast<std::ptrdiff_t>(run_bounds[i]));
      next.push_back(run_bounds[i]);
    }
    if (run_bounds.size() % 2 == 0) next.push_back(run_bounds.back());
    run_bounds = std::move(next);
  }
  if (run_bounds.size() == 2 && run_bounds[0] != 0) {
    // Degenerate single-run case already sorted; nothing to do.
  }

  mr::ReduceOutcome outcome;
  outcome.output_bytes = static_cast<Bytes>(merged->size()) * kRowBytes;
  outcome.core_seconds = params_.reduce_merge_throughput.seconds_for(shuffled);
  outcome.result = merged;
  return outcome;
}

}  // namespace mrapid::wl
