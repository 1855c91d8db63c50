// Tests for the structured JSONL event log: every emitted line must be
// standalone-parseable JSON carrying seq/ts_us/type, field setters must
// escape and format correctly, and a disabled log must be a no-op. The
// JSON parser that reads the log back (ValidateJson, JsonObjectField)
// is replayed over a committed corpus and its seeded mutants.

#include "obs/event_log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "fuzz_mutations.h"

namespace phasorwatch::obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(EventLog, DisabledLogIsNoOp) {
  EventLog log;
  EXPECT_FALSE(log.enabled());
  log.Emit("ignored").Str("key", "value").Int("n", 1);
  EXPECT_EQ(log.events_emitted(), 0u);
}

TEST(EventLog, EmitsOneJsonObjectPerLine) {
  EventLog log;
  std::ostringstream sink;
  log.AttachStream(&sink);
  ASSERT_TRUE(log.enabled());

  log.Emit("alarm_raised")
      .Uint("sample", 21)
      .Num("decision_score", 3.75)
      .StrList("candidate_lines", {"2-3", "4-5"});
  log.Emit("alarm_cleared").Uint("sample", 36).Bool("steady", false);
  log.Close();
  EXPECT_EQ(log.events_emitted(), 2u);

  auto lines = Lines(sink.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_TRUE(ValidateJson(line).ok()) << line;
  }

  auto seq = JsonObjectField(lines[0], "seq");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, "0");
  seq = JsonObjectField(lines[1], "seq");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, "1");

  auto type = JsonObjectField(lines[0], "type");
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, "\"alarm_raised\"");

  EXPECT_TRUE(JsonObjectField(lines[0], "ts_us").ok());
  auto sample = JsonObjectField(lines[0], "sample");
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(*sample, "21");
  auto score = JsonObjectField(lines[0], "decision_score");
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(std::stod(*score), 3.75);
  auto cands = JsonObjectField(lines[0], "candidate_lines");
  ASSERT_TRUE(cands.ok());
  EXPECT_EQ(*cands, "[\"2-3\",\"4-5\"]");

  auto steady = JsonObjectField(lines[1], "steady");
  ASSERT_TRUE(steady.ok());
  EXPECT_EQ(*steady, "false");
}

TEST(EventLog, EscapesHostileStringsAndNonFiniteNumbers) {
  EventLog log;
  std::ostringstream sink;
  log.AttachStream(&sink);
  log.Emit("probe")
      .Str("text", "quote\" backslash\\ newline\n tab\t")
      .Num("nan", std::nan(""))
      .Int("neg", -12);
  log.Close();

  auto lines = Lines(sink.str());
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_TRUE(ValidateJson(lines[0]).ok()) << lines[0];
  auto nan = JsonObjectField(lines[0], "nan");
  ASSERT_TRUE(nan.ok());
  EXPECT_EQ(*nan, "null");
  auto neg = JsonObjectField(lines[0], "neg");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(*neg, "-12");
}

TEST(EventLog, MovedFromEventDoesNotDoubleEmit) {
  EventLog log;
  std::ostringstream sink;
  log.AttachStream(&sink);
  {
    EventLog::Event a = log.Emit("once");
    EventLog::Event b = std::move(a);
    b.Int("n", 1);
  }
  log.Close();
  EXPECT_EQ(log.events_emitted(), 1u);
  EXPECT_EQ(Lines(sink.str()).size(), 1u);
}

TEST(EventLog, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/pw_eventlog_test.jsonl";
  EventLog log;
  ASSERT_TRUE(log.OpenFile(path).ok());
  log.Emit("run_start").Str("system", "ieee14");
  log.Emit("run_end").Uint("samples", 45);
  log.Close();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t count = 0;
  while (std::getline(in, line)) {
    ++count;
    EXPECT_TRUE(ValidateJson(line).ok()) << line;
    EXPECT_TRUE(JsonObjectField(line, "type").ok());
  }
  EXPECT_EQ(count, 2u);
  std::remove(path.c_str());
}

TEST(EventLog, CloseDisablesFurtherEmission) {
  EventLog log;
  std::ostringstream sink;
  log.AttachStream(&sink);
  log.Emit("one");
  log.Close();
  EXPECT_FALSE(log.enabled());
  log.Emit("after_close");
  EXPECT_EQ(log.events_emitted(), 1u);
}

// tests/corpus/event_log.jsonl: alarm_raised, alarm_vote,
// alarm_cleared, fleet_started and fleet_stopped lines written by
// `grid_monitor --events` (single-grid and `--tenants 2` runs), plus
// sample_rejected and model_reloaded lines written by a labelled
// TenantSession fed a dropped frame, a stale frame and a model reload
// (grid_monitor's scripted day has neither).
std::vector<std::string> EventLogCorpus() {
  std::ifstream in(PW_EVENT_LOG_CORPUS);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Runs the parser over one input. Every call must return a Status; a
// field is only ever extracted from a valid document, and the extracted
// value text is itself valid JSON. Returns whether the input validated.
bool ReplayParse(const std::string& text) {
  const bool valid = ValidateJson(text).ok();
  for (const char* key : {"type", "tenant", "candidate_lines", "absent"}) {
    Result<std::string> field = JsonObjectField(text, key);
    if (!field.ok()) continue;
    EXPECT_TRUE(valid) << text;
    EXPECT_TRUE(ValidateJson(*field).ok()) << key << " in " << text;
  }
  return valid;
}

TEST(EventLogParserReplay, CorpusPrefixesAndMutantsReturnStatus) {
  const std::vector<std::string> corpus = EventLogCorpus();
  ASSERT_FALSE(corpus.empty()) << PW_EVENT_LOG_CORPUS;
  std::vector<std::string> types;
  for (const std::string& line : corpus) {
    ASSERT_TRUE(ReplayParse(line)) << line;
    Result<std::string> type = JsonObjectField(line, "type");
    ASSERT_TRUE(type.ok()) << line;
    types.push_back(*type);
    // No strict prefix of a one-object line is a complete document.
    for (size_t len = 0; len < line.size(); ++len) {
      EXPECT_FALSE(ReplayParse(line.substr(0, len))) << len << ": " << line;
    }
  }
  for (const char* type : {"alarm_raised", "alarm_vote", "alarm_cleared",
                           "sample_rejected", "model_reloaded"}) {
    std::string quoted = "\"";
    quoted.append(type).push_back('"');
    EXPECT_NE(std::find(types.begin(), types.end(), quoted), types.end())
        << type;
  }

  constexpr uint64_t kSeed = 0xE7E27106ull;
  size_t valid_mutants = 0;
  for (uint64_t stream = 0; stream < 2000; ++stream) {
    if (ReplayParse(MutateCorpus(corpus, kSeed, stream))) ++valid_mutants;
  }
  // Some mutants stay valid (a flipped digit, a splice at a line
  // boundary) and most do not: the replay reached both outcomes.
  EXPECT_GT(valid_mutants, 0u);
  EXPECT_LT(valid_mutants, 2000u);
}

}  // namespace
}  // namespace phasorwatch::obs
