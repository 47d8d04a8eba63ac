// Tests for the query-trace layer (src/asup/obs/trace.h): span nesting,
// ring-buffer wraparound, the JSONL schema (golden line), and the
// install/active-trace semantics of the RAII scopes.

#include "asup/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#if ASUP_METRICS_ENABLED

namespace asup {
namespace {

// "q<i>", built by appending: GCC 12 reports a false -Wrestrict on the
// inlined operator+(const char*, std::string&&) at -O3.
std::string QueryText(size_t i) {
  std::string text = "q";
  text += std::to_string(i);
  return text;
}

class TraceSinkScope {
 public:
  explicit TraceSinkScope(obs::TraceRingSink& sink) {
    obs::InstallTraceSink(&sink);
  }
  ~TraceSinkScope() { obs::InstallTraceSink(nullptr); }
};

TEST(QueryTrace, SpansNestWithIncreasingDepth) {
  obs::QueryTrace trace("q");
  const size_t outer = trace.OpenSpan(obs::Stage::kMatch, 0);
  const size_t inner = trace.OpenSpan(obs::Stage::kCacheLookup, 10);
  trace.CloseSpan(inner, 40);
  trace.CloseSpan(outer, 100);
  const size_t after = trace.OpenSpan(obs::Stage::kTrim, 120);
  trace.CloseSpan(after, 150);

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].depth, 0u);
  EXPECT_EQ(trace.spans()[0].duration_ns, 100);
  EXPECT_EQ(trace.spans()[1].depth, 1u);
  EXPECT_EQ(trace.spans()[1].duration_ns, 30);
  // Sibling after both closed: back to depth 0.
  EXPECT_EQ(trace.spans()[2].depth, 0u);
}

TEST(QueryTrace, GoldenJsonlLine) {
  obs::QueryTrace trace("alpha \"beta\"");
  trace.set_sequence(7);
  trace.AddSpan(obs::TraceSpan{obs::Stage::kHide, 100, 250, 0});
  trace.AddSpan(obs::TraceSpan{obs::Stage::kTrim, 400, 50, 1});
  trace.AddNote("docs_hidden", 3);
  trace.AddNote("mu", 1.5);

  std::string line;
  trace.AppendJson(line);
  EXPECT_EQ(line,
            "{\"q\":\"alpha \\\"beta\\\"\",\"seq\":7,\"spans\":["
            "{\"stage\":\"hide\",\"start_ns\":100,\"dur_ns\":250,"
            "\"depth\":0},"
            "{\"stage\":\"trim\",\"start_ns\":400,\"dur_ns\":50,"
            "\"depth\":1}],"
            "\"notes\":{\"docs_hidden\":3,\"mu\":1.5}}");
}

TEST(TraceRingSink, KeepsMostRecentTracesOldestFirst) {
  obs::TraceRingSink sink(4);
  for (int i = 0; i < 10; ++i) {
    obs::QueryTrace trace(QueryText(static_cast<size_t>(i)));
    trace.set_sequence(static_cast<uint64_t>(i));
    sink.Publish(std::move(trace));
  }
  EXPECT_EQ(sink.total_published(), 10u);
  const std::vector<obs::QueryTrace> kept = sink.Snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].query(), QueryText(6 + i));
    EXPECT_EQ(kept[i].sequence(), 6 + i);
  }
}

TEST(TraceRingSink, CountsOverwrittenTracesAndExportsThemAsMetric) {
  obs::MetricsRegistry::Default().Reset();
  obs::TraceRingSink sink(4);
  EXPECT_EQ(sink.dropped(), 0u);
  for (int i = 0; i < 10; ++i) {
    sink.Publish(obs::QueryTrace(QueryText(static_cast<size_t>(i))));
  }
  // 10 published into 4 slots: 6 evicted, visible locally and fleet-wide.
  EXPECT_EQ(sink.total_published(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  EXPECT_EQ(obs::MetricsRegistry::Default().CounterValues().at(
                "asup_obs_traces_dropped_total"),
            6u);
}

TEST(TraceRingSink, WriteJsonlEmitsOneLinePerTrace) {
  obs::TraceRingSink sink(8);
  for (int i = 0; i < 3; ++i) {
    sink.Publish(obs::QueryTrace(QueryText(static_cast<size_t>(i))));
  }
  std::ostringstream out;
  sink.WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(static_cast<int>(std::count(text.begin(), text.end(), '\n')), 3);
  EXPECT_EQ(text.find("{\"q\":\"q0\""), 0u);
}

TEST(ScopedQueryTrace, InertWithoutSink) {
  ASSERT_EQ(obs::InstalledTraceSink(), nullptr);
  obs::ScopedQueryTrace scope("quiet");
  EXPECT_EQ(obs::ActiveTrace(), nullptr);
  ASUP_TRACE_NOTE("ignored", 1);  // must not crash
}

TEST(ScopedQueryTrace, PublishesSpansAndNotesToSink) {
  obs::TraceRingSink sink(4);
  {
    TraceSinkScope installed(sink);
    obs::ScopedQueryTrace scope("traced");
    ASSERT_NE(obs::ActiveTrace(), nullptr);
    {
      ASUP_TRACE_STAGE(obs::Stage::kMatch);
      { ASUP_TRACE_STAGE(obs::Stage::kCacheLookup); }
    }
    ASUP_TRACE_NOTE("docs_hidden", 2);
  }
  ASSERT_EQ(sink.total_published(), 1u);
  const obs::QueryTrace trace = sink.Snapshot()[0];
  EXPECT_EQ(trace.query(), "traced");
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].stage, obs::Stage::kMatch);
  EXPECT_EQ(trace.spans()[0].depth, 0u);
  EXPECT_EQ(trace.spans()[1].stage, obs::Stage::kCacheLookup);
  EXPECT_EQ(trace.spans()[1].depth, 1u);
  // The inner span is contained in the outer one.
  EXPECT_GE(trace.spans()[1].start_ns, trace.spans()[0].start_ns);
  EXPECT_GE(trace.spans()[0].duration_ns, trace.spans()[1].duration_ns);
  ASSERT_EQ(trace.notes().size(), 1u);
  EXPECT_STREQ(trace.notes()[0].key, "docs_hidden");
  EXPECT_DOUBLE_EQ(trace.notes()[0].value, 2.0);
}

TEST(ScopedQueryTrace, NestedScopesRestoreTheOuterTrace) {
  obs::TraceRingSink sink(4);
  TraceSinkScope installed(sink);
  obs::ScopedQueryTrace outer("outer");
  obs::QueryTrace* outer_trace = obs::ActiveTrace();
  ASSERT_NE(outer_trace, nullptr);
  {
    obs::ScopedQueryTrace inner("inner");
    EXPECT_NE(obs::ActiveTrace(), outer_trace);
  }
  EXPECT_EQ(obs::ActiveTrace(), outer_trace);
  EXPECT_EQ(sink.total_published(), 1u);  // only the inner one so far
  EXPECT_EQ(sink.Snapshot()[0].query(), "inner");
}

TEST(ScopedStageTimer, FeedsStageHistogramWithoutActiveTrace) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.Reset();
  { ASUP_TRACE_STAGE(obs::Stage::kCover); }
  obs::Histogram* histogram =
      registry.FindHistogram("asup_pipeline_stage_ns{stage=\"cover\"}");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->Snap().total_count, 1u);
}

TEST(StageName, CoversEveryStage) {
  for (size_t s = 0; s < obs::kNumStages; ++s) {
    EXPECT_STRNE(obs::StageName(static_cast<obs::Stage>(s)), "?");
  }
}

}  // namespace
}  // namespace asup

#else  // !ASUP_METRICS_ENABLED

// Compiled-out build: the trace macros must be valid statements that
// evaluate nothing.
TEST(TraceCompiledOut, MacrosAreInert) {
  int evaluations = 0;
  auto bump = [&evaluations] { return ++evaluations; };
  ASUP_TRACE_STAGE(would_not_compile_if_evaluated);
  ASUP_TRACE_NOTE("key", bump());
  EXPECT_EQ(evaluations, 0);
}

#endif  // ASUP_METRICS_ENABLED
