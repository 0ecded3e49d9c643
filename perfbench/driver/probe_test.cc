// Tests of the benchmark's own measurement plumbing: span nesting and
// self-time arithmetic on synthetic trees, and transparency of the
// workload proxy (the same canonical trace with and without it).

#include <gtest/gtest.h>

#include <sstream>

#include "probe.h"
#include "sim/trace.h"
#include "workloads/wordcount.h"

namespace perfbench {
namespace {

using namespace mrapid;

Span make_span(const char* name, double start, double end, int parent) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  return span;
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // root [0,10] -> a [1,4] -> a1 [2,3]; root -> b [6,9]
  const std::vector<Span> spans = {
      make_span("root", 0, 10, -1),
      make_span("a", 1, 4, 0),
      make_span("a1", 2, 3, 1),
      make_span("b", 6, 9, 0),
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 3 - 3);
  EXPECT_DOUBLE_EQ(self[1], 3 - 1);
  EXPECT_DOUBLE_EQ(self[2], 1);
  EXPECT_DOUBLE_EQ(self[3], 3);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {
      make_span("root", 0, 10, -1),
      make_span("x", 1, 5, 0),
      make_span("x", 3, 7, 0),   // overlaps the first child by 2
      make_span("x", 9, 12, 0),  // runs past the parent's end
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 6 - 1);

  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("x").count, 3u);
  EXPECT_DOUBLE_EQ(totals.at("x").total_s, 4 + 4 + 3);
  EXPECT_DOUBLE_EQ(totals.at("root").self_s, 3);
}

TEST(SpanRecorder, NestsByCallOrderAndTagsTrials) {
  SpanRecorder recorder;
  recorder.set_trial(7);
  {
    ScopedSpan outer(&recorder, "outer");
    { ScopedSpan inner(&recorder, "inner"); }
    { ScopedSpan sibling(&recorder, "sibling"); }
  }
  { ScopedSpan next(&recorder, "next"); }
  const auto& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  for (const Span& span : spans) {
    EXPECT_EQ(span.trial, 7);
    EXPECT_LE(span.start, span.end);
  }
  std::ostringstream out;
  recorder.write_jsonl(out);
  EXPECT_NE(out.str().find("\"name\": \"sibling\""), std::string::npos);
}

struct TracedRun {
  std::string canonical;
  std::uint64_t digest = 0;
};

TracedRun run_small_world(harness::RunMode mode, bool proxied, SpanRecorder& recorder,
                          std::vector<SplitKey>& splits) {
  wl::WordCountParams params;
  params.num_files = 3;
  params.bytes_per_file = 256_KB;
  wl::WordCount wordcount(params);
  ProxyWorkload proxy(wordcount, recorder, &splits);
  wl::Workload& target = proxied ? static_cast<wl::Workload&>(proxy) : wordcount;

  harness::WorldConfig config;
  config.hdfs.block_size = 128_KB;  // two splits per file
  sim::Tracer tracer;
  harness::World world(config, mode);
  world.attach_tracer(tracer);
  const auto result = world.run(target, [](mr::JobSpec& spec) { spec.num_reducers = 2; });
  EXPECT_TRUE(result.has_value() && result->succeeded);
  TracedRun run;
  run.canonical = sim::canonical_text(tracer.events());
  if (result) run.digest = wordcount.result_digest(*result);
  return run;
}

TEST(ProxyWorkload, LeavesTheCanonicalTraceUnchanged) {
  for (harness::RunMode mode : {harness::RunMode::kHadoop, harness::RunMode::kDPlus,
                                harness::RunMode::kUPlus, harness::RunMode::kMRapidAuto}) {
    SpanRecorder recorder;
    std::vector<SplitKey> splits;
    const TracedRun plain = run_small_world(mode, false, recorder, splits);
    EXPECT_TRUE(recorder.spans().empty());
    const TracedRun proxied = run_small_world(mode, true, recorder, splits);
    EXPECT_FALSE(plain.canonical.empty());
    EXPECT_EQ(plain.canonical, proxied.canonical) << harness::run_mode_name(mode);
    EXPECT_EQ(plain.digest, proxied.digest) << harness::run_mode_name(mode);

    const auto totals = totals_by_name(recorder.spans());
    EXPECT_EQ(totals.at("hdfs.stage").count, 1u);
    EXPECT_GE(totals.at("workloads.map").count, 6u);
    EXPECT_EQ(distinct_splits(splits), 6u);
    EXPECT_GE(totals.at("workloads.reduce").count, 2u);
    EXPECT_GE(totals.at("workloads.partition").count, 6u);
  }
}

TEST(ProxyWorkload, ForwardsEveryVirtual) {
  wl::WordCount wordcount(wl::WordCountParams{});
  SpanRecorder recorder;
  ProxyWorkload proxy(wordcount, recorder);
  EXPECT_EQ(proxy.name(), wordcount.name());
  EXPECT_EQ(proxy.signature(), wordcount.signature());
  EXPECT_EQ(proxy.compute_contention(), wordcount.compute_contention());
  mr::JobResult empty;
  empty.reduce_result = std::make_shared<wl::WordCounts>();
  empty.reduce_results = {empty.reduce_result};
  EXPECT_EQ(proxy.result_digest(empty), wordcount.result_digest(empty));
}

TEST(Fingerprint, DependsOnOrderAndBits) {
  Fingerprint a, b, c;
  a.mix(std::uint64_t{1});
  a.mix(2.5);
  b.mix(std::uint64_t{1});
  b.mix(2.5);
  c.mix(2.5);
  c.mix(std::uint64_t{1});
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
}

}  // namespace
}  // namespace perfbench
