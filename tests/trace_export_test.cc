// Tests for the Chrome-trace exporter: well-formed JSON, the Trace
// Event fields Perfetto needs, start-timestamp ordering, thread lanes,
// and the file-dump entry point.

#include "obs/trace_export.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "common/status.h"
#include "obs/trace.h"

namespace phasorwatch::obs {
namespace {

std::vector<TraceSpan> SampleSpans() {
  // Deliberately out of start order: the ring stores completion order,
  // and a long span completes after shorter spans that started later.
  return {
      {"detect.total_us", 30.0, 5.0, 0},
      {"stream.frame_us", 10.0, 40.0, 0},
      {"powerflow.ac.solve_us", 20.0, 8.0, 1},
  };
}

TEST(ChromeTraceJson, EmitsValidJsonWithTraceEventFields) {
  std::string json = ChromeTraceJson(SampleSpans());
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  auto events = JsonObjectField(json, "traceEvents");
  ASSERT_TRUE(events.ok());
  EXPECT_NE(events->find("\"detect.total_us\""), std::string::npos);
  EXPECT_NE(events->find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(events->find("\"cat\":\"pw\""), std::string::npos);
  EXPECT_NE(events->find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(ChromeTraceJson, EventsAreSortedByStartTimestamp) {
  std::string json = ChromeTraceJson(SampleSpans());
  // Sorted by start: stream (10) before powerflow (20) before detect
  // (30), regardless of completion order.
  size_t stream_pos = json.find("stream.frame_us");
  size_t pf_pos = json.find("powerflow.ac.solve_us");
  size_t detect_pos = json.find("detect.total_us");
  ASSERT_NE(stream_pos, std::string::npos);
  ASSERT_NE(pf_pos, std::string::npos);
  ASSERT_NE(detect_pos, std::string::npos);
  EXPECT_LT(stream_pos, pf_pos);
  EXPECT_LT(pf_pos, detect_pos);
}

TEST(ChromeTraceJson, ThreadIdsBecomeLanes) {
  std::string json = ChromeTraceJson(SampleSpans());
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

TEST(ChromeTraceJson, EmptySpanListIsStillValid) {
  std::string json = ChromeTraceJson(std::vector<TraceSpan>{});
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(ChromeTraceJson, EscapesSpanNames) {
  std::vector<TraceSpan> spans = {{"weird\"name\\with\njunk", 0.0, 1.0, 0}};
  std::string json = ChromeTraceJson(spans);
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
}

TEST(ChromeTraceJson, RingOverloadDumpsRecordedSpans) {
  TraceRing ring(8);
  ring.Record({"a_span", 1.0, 2.0, 0});
  ring.Record({"b_span", 5.0, 1.0, 0});
  std::string json = ChromeTraceJson(ring);
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"a_span\""), std::string::npos);
  EXPECT_NE(json.find("\"b_span\""), std::string::npos);
}

TEST(ChromeTraceJson, ScopedTimerSpansHaveMonotonicNonNegativeTimes) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  for (int i = 0; i < 4; ++i) {
    ScopedTimer timer(nullptr, "test.export.span");
  }
  std::vector<TraceSpan> spans = ring.Dump();
  ASSERT_GE(spans.size(), 4u);
  double prev_start = -1.0;
  for (const TraceSpan& span : spans) {
    EXPECT_GE(span.start_us, 0.0);
    EXPECT_GE(span.duration_us, 0.0);
    EXPECT_GE(span.start_us, prev_start);  // completion order here =
    prev_start = span.start_us;            // start order (same thread)
  }
  std::string json = ChromeTraceJson(ring);
  ASSERT_TRUE(ValidateJson(json).ok());
  ring.Clear();
}

TEST(WriteChromeTrace, WritesLoadableFileFromGlobalRing) {
  TraceRing::Global().Clear();
  { ScopedTimer timer(nullptr, "test.export.file_span"); }
  const std::string path = ::testing::TempDir() + "pw_trace_export_test.json";
  ASSERT_TRUE(WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  ASSERT_TRUE(ValidateJson(buffer.str()).ok()) << buffer.str();
  EXPECT_NE(buffer.str().find("test.export.file_span"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WriteChromeTrace, RejectsUnwritablePath) {
  EXPECT_FALSE(WriteChromeTrace("/nonexistent_dir_pw/trace.json").ok());
}

TEST(TraceRing, SpansDroppedCountsOverwrites) {
  TraceRing ring(4);
  for (int i = 0; i < 4; ++i) {
    ring.Record({"fits", static_cast<double>(i), 1.0, 0});
  }
  EXPECT_EQ(ring.spans_dropped(), 0u);
  for (int i = 0; i < 3; ++i) {
    ring.Record({"wraps", static_cast<double>(4 + i), 1.0, 0});
  }
  EXPECT_EQ(ring.spans_dropped(), 3u);
  EXPECT_EQ(ring.total_recorded(), 7u);
  ring.Clear();
  EXPECT_EQ(ring.spans_dropped(), 0u);
}

TEST(TraceRing, RecordsCompactThreadIds) {
  // CurrentTraceTid is a small 0-based lane id, stable per thread and
  // distinct across threads.
  uint32_t main_tid = CurrentTraceTid();
  EXPECT_EQ(main_tid, CurrentTraceTid());
  uint32_t other_tid = main_tid;
  std::thread([&other_tid] { other_tid = CurrentTraceTid(); }).join();
  EXPECT_NE(other_tid, main_tid);
}

}  // namespace
}  // namespace phasorwatch::obs
