#include "probe.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ostream>

#include "yarn/node_table.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::begin(std::string_view name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.trial = trial_;
  span.start = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Spans close in LIFO order; tolerate a missed end by unwinding to id.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void SpanRecorder::reserve(std::size_t spans) {
  spans_.reserve(spans);
  open_.reserve(64);
}

double SpanRecorder::heap_bytes() const {
  return static_cast<double>(spans_.capacity() * sizeof(Span) + open_.capacity() * sizeof(int));
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  char buf[64];
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << span.name << "\"";
    std::snprintf(buf, sizeof(buf), "%.9f", span.start);
    out << ", \"start\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.9f", span.end);
    out << ", \"end\": " << buf << ", \"parent\": " << span.parent
        << ", \"trial\": " << span.trial << "}\n";
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start;  // end of the covered prefix so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (span.end - span.start) - covered;
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& entry = totals[std::string(spans[i].name)];
    entry.self_s += self[i];
    entry.total_s += spans[i].end - spans[i].start;
    ++entry.count;
  }
  return totals;
}

std::size_t distinct_splits(std::vector<SplitKey> keys) {
  std::sort(keys.begin(), keys.end());
  return static_cast<std::size_t>(std::unique(keys.begin(), keys.end()) - keys.begin());
}

std::vector<std::string> ProxyWorkload::stage(mrapid::hdfs::Hdfs& hdfs) {
  ScopedSpan span(&recorder_, "hdfs.stage");
  return inner_.stage(hdfs);
}

mrapid::mr::MapOutcome ProxyWorkload::execute_map(const mrapid::mr::InputSplit& split) const {
  if (splits_ != nullptr) {
    Fingerprint path;
    path.mix(split.path);
    splits_->emplace_back(path.value(), split.offset, split.length);
  }
  ScopedSpan span(&recorder_, "workloads.map");
  return inner_.execute_map(split);
}

mrapid::mr::ReduceOutcome ProxyWorkload::execute_reduce(
    std::span<const mrapid::mr::MapOutcome> maps) const {
  ScopedSpan span(&recorder_, "workloads.reduce");
  return inner_.execute_reduce(maps);
}

std::vector<mrapid::mr::MapOutcome> ProxyWorkload::partition_map_output(
    const mrapid::mr::MapOutcome& outcome, int reducers) const {
  ScopedSpan span(&recorder_, "workloads.partition");
  return inner_.partition_map_output(outcome, reducers);
}

void WorldCounters::add(mrapid::harness::World& world) {
  const auto& reads = world.hdfs().read_stats();
  node_local_reads += reads.node_local;
  rack_local_reads += reads.rack_local;
  off_rack_reads += reads.off_rack;

  const auto& queue = world.simulation().queue_stats();
  events_fired += queue.fired;
  events_cancelled += queue.cancelled;
  heap_peak = std::max<std::uint64_t>(heap_peak, queue.heap_peak);
  const auto& wheel = world.simulation().wheel_stats();
  wheel_fired += wheel.fired;
  wheel_cascaded += wheel.cascaded;

  const auto& net = world.cluster().network().stats();
  net_flows_started += net.flows_started;
  net_replans += net.replans;
  net_links_scanned += net.links_scanned;

  if (const mrapid::yarn::NodeTable* table = world.rm().node_table(); table != nullptr) {
    first_fit_calls += table->stats().first_fit_calls;
    first_fit_nodes_visited += table->stats().first_fit_nodes_visited;
    node_lookups += table->stats().lookups;
  }

  const auto& shuffle = world.shuffle_stats();
  shuffle_fetches += shuffle.fetches;
  shuffle_coalesced_flows += shuffle.coalesced_flows;
  shuffle_partition_calls += shuffle.partition_calls;
}

double live_heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) + static_cast<double>(info.hblkhd);
}

void Fingerprint::mix(std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xFF;
    hash_ *= 1099511628211ull;
  }
}

void Fingerprint::mix(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  mix(bits);
}

void Fingerprint::mix(const std::string& text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
  mix(static_cast<std::uint64_t>(text.size()));
}

}  // namespace perfbench
