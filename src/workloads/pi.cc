#include "workloads/pi.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/hash.h"
#include "workloads/outcome_cache.h"

namespace mrapid::wl {

namespace {

double radical_inverse(std::int64_t index, int base) {
  double result = 0.0;
  double f = 1.0 / base;
  while (index > 0) {
    result += f * static_cast<double>(index % base);
    index /= base;
    f /= base;
  }
  return result;
}

}  // namespace

std::pair<double, double> Pi::halton_point(std::int64_t index) {
  return {radical_inverse(index, 2), radical_inverse(index, 3)};
}

Pi::Pi(PiParams params) : params_(params) {
  assert(params_.total_samples > 0 && params_.num_maps > 0);
}

std::vector<std::string> Pi::stage(hdfs::Hdfs& hdfs) {
  // Like the Hadoop program: one tiny offset/size file per map. The
  // path encodes the shape so co-staged instances never collide.
  std::vector<std::string> paths;
  for (int i = 0; i < params_.num_maps; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "/input/pi-%lldx%d/part%d",
                  static_cast<long long>(params_.total_samples), params_.num_maps, i);
    if (!hdfs.namenode().exists(buf)) {
      hdfs.preload_file(buf, 120);  // two longs + sequence-file framing
    }
    paths.emplace_back(buf);
  }
  return paths;
}

mr::MapOutcome Pi::execute_map(const mr::InputSplit& split) const {
  const std::int64_t per_map =
      (params_.total_samples + params_.num_maps - 1) / params_.num_maps;
  const auto map_index = static_cast<std::int64_t>(split.index_in_job);
  const std::int64_t begin = map_index * per_map;
  const std::int64_t samples = std::min(per_map, params_.total_samples - begin);

  // Evaluate a capped number of real points, centred on this map's
  // range so distinct maps sample distinct Halton prefixes. The inside
  // count depends on nothing else, so shapes sharing a range share it.
  const std::int64_t evaluated = std::min(samples, params_.fidelity_cap);
  const auto count_inside = [begin, evaluated] {
    std::int64_t count = 0;
    for (std::int64_t i = 0; i < evaluated; ++i) {
      const auto [x, y] = halton_point(begin + i);
      const double dx = x - 0.5;
      const double dy = y - 0.5;
      if (dx * dx + dy * dy <= 0.25) ++count;
    }
    return count;
  };
  std::int64_t inside = 0;
  if (evaluated < kMinCachedPoints) {
    inside = count_inside();
  } else {
    const OutcomeKey key{
        OutcomeKind::kPiHaltonRange,
        {static_cast<std::uint64_t>(begin), static_cast<std::uint64_t>(evaluated)}};
    inside = *std::static_pointer_cast<const std::int64_t>(
        OutcomeCache::shared().get_or_compute(key, [&] {
          return OutcomeCache::Value{std::make_shared<const std::int64_t>(count_inside()),
                                     sizeof(std::int64_t)};
        }));
  }
  auto result = std::make_shared<PiResult>();
  // Scale to the full per-map count (exact when samples <= cap).
  result->total = samples;
  result->inside = evaluated == samples
                       ? inside
                       : (inside * samples + evaluated / 2) / std::max<std::int64_t>(1, evaluated);

  mr::MapOutcome outcome;
  outcome.output_bytes = 24;  // (inside, outside) longs + framing
  outcome.output_records = 2;
  outcome.core_seconds = static_cast<double>(samples) / params_.samples_per_core_second;
  outcome.data = result;
  return outcome;
}

std::uint64_t Pi::result_digest(const mr::JobResult& result) const {
  Fnv64 digest;
  digest.mix(static_cast<std::uint64_t>(result.reduce_results.size()));
  for (const auto& erased : result.reduce_results) {
    if (!erased) {
      digest.mix(std::string_view("<null partition>"));
      continue;
    }
    const auto& partial = *std::static_pointer_cast<const PiResult>(erased);
    digest.mix(partial.inside);
    digest.mix(partial.total);
  }
  return digest.value();
}

mr::ReduceOutcome Pi::execute_reduce(std::span<const mr::MapOutcome> maps) const {
  auto combined = std::make_shared<PiResult>();
  for (const auto& map : maps) {
    if (!map.data) continue;
    const auto& partial = *std::static_pointer_cast<const PiResult>(map.data);
    combined->inside += partial.inside;
    combined->total += partial.total;
  }
  mr::ReduceOutcome outcome;
  outcome.output_bytes = 64;  // the tiny result file
  outcome.core_seconds = 0.001;
  outcome.result = combined;
  return outcome;
}

}  // namespace mrapid::wl
