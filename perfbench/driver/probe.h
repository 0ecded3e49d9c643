#pragma once

// Measurement plumbing for the end-to-end benchmark: host-clock spans
// recorded around calls into the simulator's modules, a forwarding
// workload proxy that times the payload entry points, the per-world
// counter snapshot, and the live-heap probe. Everything here observes
// the simulator from outside; nothing it records is ever read back by
// a simulation, so traced and untraced runs compute the same answers.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "harness/world.h"
#include "workloads/workload.h"

namespace perfbench {

// Seconds on the monotonic clock (the same clock across processes, so
// the parent script can compare it with its own spawn time).
double now_s();

// Span names are string literals, so recording a span never allocates
// beyond the recorder's own list (see SpanRecorder::heap_bytes).
struct Span {
  std::string_view name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the recorder's span list, -1 for roots
  int trial = -1;
};

// Spans in begin order. Nesting follows call nesting: a span begun
// while another is open becomes its child. Single-threaded by design
// (the benchmark runs every trial serially).
class SpanRecorder {
 public:
  int begin(std::string_view name);
  void end(int id);

  void set_trial(int trial) { trial_ = trial; }
  const std::vector<Span>& spans() const { return spans_; }

  void reserve(std::size_t spans);
  // Heap bytes the recorder's own lists hold.
  double heap_bytes() const;

  // One JSON object per line: name, start, end, parent, trial.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int trial_ = -1;
};

// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name)
      : recorder_(recorder), id_(recorder ? recorder->begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

// Self time of every span: its duration minus the part of its interval
// covered by its direct children (overlapping children count once).
std::vector<double> self_times(const std::vector<Span>& spans);

struct NameTotals {
  double self_s = 0.0;
  double total_s = 0.0;
  std::size_t count = 0;
};
std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans);

// One split the payload was asked to map: (hash of path, offset, length).
// Kept as plain words so that recording one allocates nothing.
using SplitKey = std::tuple<std::uint64_t, std::int64_t, std::int64_t>;

// Number of distinct splits among `keys`.
std::size_t distinct_splits(std::vector<SplitKey> keys);

// Forwards every virtual of wl::Workload to `inner`, timing stage,
// execute_map, execute_reduce and partition_map_output as spans named
// hdfs.stage / workloads.map / workloads.reduce / workloads.partition.
class ProxyWorkload final : public mrapid::wl::Workload {
 public:
  ProxyWorkload(mrapid::wl::Workload& inner, SpanRecorder& recorder,
                std::vector<SplitKey>* splits = nullptr)
      : inner_(inner), recorder_(recorder), splits_(splits) {}

  std::string name() const override { return inner_.name(); }
  std::string signature() const override { return inner_.signature(); }
  double compute_contention() const override { return inner_.compute_contention(); }
  std::uint64_t result_digest(const mrapid::mr::JobResult& result) const override {
    return inner_.result_digest(result);
  }

  std::vector<std::string> stage(mrapid::hdfs::Hdfs& hdfs) override;
  mrapid::mr::MapOutcome execute_map(const mrapid::mr::InputSplit& split) const override;
  mrapid::mr::ReduceOutcome execute_reduce(
      std::span<const mrapid::mr::MapOutcome> maps) const override;
  std::vector<mrapid::mr::MapOutcome> partition_map_output(const mrapid::mr::MapOutcome& outcome,
                                                           int reducers) const override;

 private:
  mrapid::wl::Workload& inner_;
  SpanRecorder& recorder_;
  std::vector<SplitKey>* splits_;
};

// Counters a world's modules expose, summed over the worlds of a pass
// (heap_peak is a maximum).
struct WorldCounters {
  std::uint64_t node_local_reads = 0, rack_local_reads = 0, off_rack_reads = 0;
  std::uint64_t events_fired = 0, events_cancelled = 0, heap_peak = 0;
  std::uint64_t wheel_fired = 0, wheel_cascaded = 0;
  std::uint64_t net_flows_started = 0, net_replans = 0, net_links_scanned = 0;
  std::uint64_t first_fit_calls = 0, first_fit_nodes_visited = 0, node_lookups = 0;
  std::uint64_t shuffle_fetches = 0, shuffle_coalesced_flows = 0, shuffle_partition_calls = 0;

  void add(mrapid::harness::World& world);
};

// Live heap bytes (in-use arena chunks plus mmapped blocks).
double live_heap_bytes();

// FNV-1a over 64-bit words: the simulated fingerprint of a pass.
class Fingerprint {
 public:
  void mix(std::uint64_t value);
  void mix(double value);
  void mix(const std::string& text);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace perfbench
