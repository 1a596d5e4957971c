// Observability contract tests: the flight-recorder export (Chrome trace
// JSON) is structurally valid, request spans balance, timestamps are
// monotonic, the stage pipeline and the busy tracks are covered, the outputs
// are byte-deterministic, and recording does not perturb the simulation it
// observes.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/runner.h"
#include "src/obs/critical_path.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"

namespace hovercraft {
namespace {

// Ring depth for a whole-run export (what chaos_runner --trace-out uses).
constexpr size_t kTraceDepth = size_t{1} << 16;

// Minimal structural JSON check: braces/brackets balance outside string
// literals (escape-aware), the document is one object, and nothing trails it.
bool JsonStructureValid(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  size_t end = std::string::npos;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (end != std::string::npos) {
      if (!std::isspace(static_cast<unsigned char>(c))) return false;  // trailing garbage
      continue;
    }
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        if (stack.empty()) end = i;
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return end != std::string::npos && stack.empty() && !in_string;
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Extracts every "ts":<number> in emission order.
std::vector<double> ExtractTimestamps(const std::string& text) {
  std::vector<double> out;
  const std::string key = "\"ts\":";
  for (size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos + key.size())) {
    out.push_back(std::strtod(text.c_str() + pos + key.size(), nullptr));
  }
  return out;
}

// The unescaped value of the first string field `key` ("\"repro\":").
std::string ReadJsonString(const std::string& text, const std::string& key) {
  size_t pos = text.find(key);
  if (pos == std::string::npos) return "<missing>";
  pos += key.size() + 1;  // past the opening quote
  std::string out;
  for (; pos < text.size() && text[pos] != '"'; ++pos) {
    if (text[pos] == '\\') ++pos;  // the escapes under test are \" and \\ only
    out += text[pos];
  }
  return out;
}

std::string Dump(const obs::FlightRecorder& fr) {
  std::ostringstream out;
  fr.WriteDump(out);
  return out.str();
}

ChaosRunConfig SmallChaosConfig() {
  ChaosRunConfig config;
  config.cluster.mode = ClusterMode::kHovercRaft;
  config.schedule = "flap";
  config.cluster.seed = 3;
  config.cluster.nodes = 3;
  config.clients = 2;
  config.rate_rps_per_client = 2'000;
  config.duration = Millis(60);
  config.settle = Millis(60);
  return config;
}

obs::Observability::Options SamplingOptions() {
  obs::Observability::Options oo;
  oo.sampling = true;
  return oo;
}

void MarkStage(obs::FlightRecorder& fr, TimeNs ts, NodeId node, uint64_t seq,
               obs::Stage stage) {
  fr.Record(ts, node, obs::FrType::kStage, /*client=*/7, seq, static_cast<uint32_t>(stage));
}

// Every kind and stage below the hand-maintained counts has a real name, and
// the first value past each count has none: adding a kind or a stage without
// bumping its count (or its name) fails here.
TEST(FlightRecorderNamesTest, NameTablesMatchTheCounts) {
  for (size_t t = 0; t < obs::kFrTypeCount; ++t) {
    EXPECT_STRNE(obs::FrTypeName(static_cast<obs::FrType>(t)), "?") << "FrType " << t;
  }
  EXPECT_STREQ(obs::FrTypeName(static_cast<obs::FrType>(obs::kFrTypeCount)), "?");
  for (size_t s = 0; s < obs::kStageCount; ++s) {
    EXPECT_STRNE(obs::StageName(static_cast<obs::Stage>(s)), "?") << "Stage " << s;
  }
  EXPECT_STREQ(obs::StageName(static_cast<obs::Stage>(obs::kStageCount)), "?");
}

// A request whose opening marks rotated out of the ring still yields a
// balanced span: its first surviving mark opens it, and a span left open at
// the end of the window closes as "unresolved".
TEST(FlightRecorderExportTest, SpanWhoseStartRotatedOutStillCloses) {
  obs::FlightRecorder fr(/*depth=*/2);
  MarkStage(fr, 10, kInvalidNode, 1, obs::Stage::kClientSend);  // rotates out
  MarkStage(fr, 20, 0, 1, obs::Stage::kOrdered);
  MarkStage(fr, 30, kInvalidNode, 2, obs::Stage::kClientSend);
  MarkStage(fr, 40, kInvalidNode, 1, obs::Stage::kComplete);
  MarkStage(fr, 50, 0, 3, obs::Stage::kReplicaRx);
  MarkStage(fr, 60, 0, 3, obs::Stage::kOrdered);  // rotates out rid 1's node mark
  const std::string dump = Dump(fr);
  ASSERT_TRUE(JsonStructureValid(dump)) << dump;
  EXPECT_EQ(CountOccurrences(dump, "\"ph\":\"b\""), 3u) << dump;
  EXPECT_EQ(CountOccurrences(dump, "\"ph\":\"e\""), 3u) << dump;
  EXPECT_EQ(CountOccurrences(dump, "\"stage\":\"client_send\""), 1u) << dump;
  EXPECT_EQ(CountOccurrences(dump, "\"stage\":\"unresolved\""), 2u) << dump;
  EXPECT_NE(dump.find("\"recorded\":6,\"dumped\":4"), std::string::npos) << dump;
}

// The repro command and note texts are arbitrary strings: quotes and
// backslashes in them must not break the document.
TEST(FlightRecorderExportTest, ReproAndNotesAreEscaped) {
  obs::FlightRecorder fr(8);
  const std::string repro = "x \"y\" \\z";
  fr.set_repro(repro);
  fr.Note(5, kInvalidNode, "say \"hi\" \\ bye", 42);
  fr.Note(6, 0, "say \"hi\" \\ bye");  // interned once, recorded twice
  const std::string dump = Dump(fr);
  EXPECT_TRUE(JsonStructureValid(dump)) << dump;
  EXPECT_EQ(ReadJsonString(dump, "\"repro\":"), repro);
  EXPECT_EQ(ReadJsonString(dump, "\"detail\":"), "say \"hi\" \\ bye");
  EXPECT_EQ(CountOccurrences(dump, "\"name\":\"note\""), 2u);
  EXPECT_EQ(CountOccurrences(dump, "\"a\":0,"), 2u);  // both index note 0
}

TEST(MetricsRegistryTest, DumpHasUniformShapeAndIsDeterministic) {
  obs::MetricsRegistry reg;
  reg.AddCounter("node0/rx", 3);
  reg.SetGauge("node1/depth", -2);
  reg.GetHistogram("lat").Record(1000);
  reg.Sample("node0/q", 100, 1);
  reg.Sample("node0/q", 200, 2);
  std::ostringstream a;
  reg.DumpJson(a);
  std::ostringstream b;
  reg.DumpJson(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_TRUE(JsonStructureValid(a.str()));
  for (const char* section : {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"timeseries\""}) {
    EXPECT_NE(a.str().find(section), std::string::npos) << section;
  }
}

// One traced chaos run: the recorder runs at trace depth, so the export
// taken at the end of the run covers all of it; the critical-path analyzer
// rides along.
struct TracedRun {
  std::string trace;
  std::string metrics;
  size_t completed_paths = 0;
  ChaosRunResult result;
};

TracedRun RunTraced() {
  obs::Observability bundle(SamplingOptions());
  obs::CriticalPath critical_path;
  ChaosRunConfig config = SmallChaosConfig();
  config.fabric.obs = &bundle;
  config.fabric.flight_recorder_depth = kTraceDepth;
  config.cluster.critical_path = &critical_path;
  TracedRun run;
  config.inspect_recorder = [&run](const obs::FlightRecorder& fr) { run.trace = Dump(fr); };
  run.result = RunChaosSchedule(config);
  std::ostringstream m;
  bundle.metrics().DumpJson(m);
  run.metrics = m.str();
  run.completed_paths = critical_path.completed();
  return run;
}

// The satellite contract: a 3-node chaos run yields a structurally valid
// Chrome trace with monotonic timestamps, balanced async begin/end spans and
// marks for every pipeline stage a healthy request passes through.
TEST(ObsChaosTest, TraceSchemaIsValid) {
  const TracedRun run = RunTraced();
  EXPECT_TRUE(run.result.ok()) << run.result.Describe();
  const std::string& trace = run.trace;

  EXPECT_TRUE(JsonStructureValid(trace));
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  // Nothing rotated out at this depth: the export is the whole run.
  const std::string recorded = std::to_string(run.result.recorder_events);
  EXPECT_NE(trace.find("\"recorded\":" + recorded + ",\"dumped\":" + recorded),
            std::string::npos);

  // Async request spans balance: every opened span is closed.
  EXPECT_GT(CountOccurrences(trace, "\"ph\":\"b\""), 0u);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\":\"b\""), CountOccurrences(trace, "\"ph\":\"e\""));

  // Events are emitted in non-decreasing timestamp order.
  const std::vector<double> ts = ExtractTimestamps(trace);
  ASSERT_GT(ts.size(), 100u);
  for (size_t i = 1; i < ts.size(); ++i) {
    ASSERT_GE(ts[i], ts[i - 1]) << "at event " << i;
  }

  // Every stage of the healthy pipeline shows up at least once.
  for (const char* stage : {"client_send", "replica_rx", "ordered", "committed", "dispatched",
                            "apply_start", "apply_end", "reply_sent", "complete"}) {
    EXPECT_GT(CountOccurrences(trace, std::string("\"stage\":\"") + stage + "\""), 0u)
        << stage;
  }
  // The nemesis annotations share the trace ("flap" kills and restarts nodes).
  EXPECT_GT(CountOccurrences(trace, "\"detail\":\"nemesis: "), 0u);

  // The stage breakdown comes from the same stream.
  EXPECT_GT(run.completed_paths, 0u);

  // The metrics snapshot carries the per-node counters and sampled depths.
  EXPECT_TRUE(JsonStructureValid(run.metrics));
  for (const char* key : {"node0/raft.commit_index", "node0/net_thread.depth",
                          "node0/server.client_requests"}) {
    EXPECT_NE(run.metrics.find(key), std::string::npos) << key;
  }
}

// Busy intervals of the modelled resources land as X spans on per-node net,
// NIC and app tracks (and on per-host client tracks of the cluster process).
TEST(ObsChaosTest, BusySpansOnNetNicAndAppTracks) {
  const TracedRun run = RunTraced();
  const std::string& trace = run.trace;
  for (const char* resource : {"net thread", "nic tx", "app thread"}) {
    EXPECT_GT(CountOccurrences(trace, std::string("{\"ph\":\"X\",\"name\":\"") + resource +
                                          "\",\"cat\":\"busy\",\"pid\":1,"),
              0u)
        << resource;
    EXPECT_GT(CountOccurrences(trace, std::string("\"args\":{\"name\":\"") + resource + "\"}"),
              0u)
        << resource << " track is not named";
  }
  EXPECT_GT(CountOccurrences(trace, " net thread\"}"), 0u) << "no client busy track";
}

// Same seed, same config: both output files are byte-identical across runs.
TEST(ObsChaosTest, OutputsAreByteDeterministic) {
  const TracedRun a = RunTraced();
  const TracedRun b = RunTraced();
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
}

// Recording is read-only: the chaos outcome is the same with the recorder
// off, at its default depth and at trace depth (with the metrics bundle). Only
// the watchdog line depends on whether a recorder exists at all.
TEST(ObsChaosTest, TracingDoesNotPerturbTheRun) {
  auto describe = [](size_t depth) {
    ChaosRunConfig config = SmallChaosConfig();
    config.fabric.flight_recorder_depth = depth;
    return RunChaosSchedule(config).Describe();
  };
  auto without_watchdog = [](std::string text) {
    const size_t at = text.find("watchdog: ");
    return at == std::string::npos ? text : text.erase(at, text.find('\n', at) - at);
  };
  const std::string off = describe(0);
  const std::string standard = describe(obs::FlightRecorder::kDefaultDepth);
  const std::string traced = RunTraced().result.Describe();
  EXPECT_EQ(standard, traced);
  EXPECT_EQ(without_watchdog(off), without_watchdog(standard));
  EXPECT_NE(off.find("watchdog: off"), std::string::npos);
}

}  // namespace
}  // namespace hovercraft
