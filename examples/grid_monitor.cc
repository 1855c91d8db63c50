// Online monitoring demo: replays a day of PMU samples through the
// detector as a stream — normal operation, then a line outage with the
// local PDC knocked out, then restoration — and prints the alarm log a
// control-room operator would see.
//
// Observability flags:
//   --metrics                print the metrics snapshot after the run
//                            (in fleet mode: per-tenant rows first)
//   --metrics-json           same, as one JSON run report
//                            (obs::RunReportBuilder)
//   --events <path>          write alarm lifecycle events as JSONL
//   --trace <path>           write the trace ring as a Chrome trace
//                            (open in chrome://tracing or Perfetto)
//   --validate-events <path> standalone: check an emitted JSONL file is
//                            line-by-line parseable JSON, then exit
//
// Fleet flags (docs/FLEET.md):
//   --tenants N              monitor N copies of the grid through the
//                            sharded FleetEngine instead of one
//                            TenantSession (default 1: single-grid
//                            mode, output unchanged)
//   --shards K               fleet shard drain threads (default 2)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/serialize.h"
#include "detect/detector.h"
#include "detect/fleet.h"
#include "detect/session.h"
#include "eval/dataset.h"
#include "grid/ieee_cases.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace_export.h"
#include "sim/missing_data.h"
#include "sim/pmu_network.h"

namespace pw = phasorwatch;

namespace {

// Validates that every line of `path` is a standalone JSON value and
// that at least one alarm event is present. Returns a process exit
// code; used by scripts/check.sh to gate on event-log well-formedness.
int ValidateEventsFile(const char* path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::string line;
  size_t lineno = 0;
  size_t alarm_events = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      std::fprintf(stderr, "%s:%zu: empty line\n", path, lineno);
      return 1;
    }
    pw::Status status = pw::ValidateJson(line);
    if (!status.ok()) {
      std::fprintf(stderr, "%s:%zu: %s\n", path, lineno,
                   status.ToString().c_str());
      return 1;
    }
    auto type = pw::JsonObjectField(line, "type");
    if (!type.ok()) {
      std::fprintf(stderr, "%s:%zu: missing \"type\" field\n", path, lineno);
      return 1;
    }
    if (*type == "\"alarm_raised\"" || *type == "\"alarm_cleared\"") {
      ++alarm_events;
    }
  }
  if (lineno == 0) {
    std::fprintf(stderr, "%s: no events emitted\n", path);
    return 1;
  }
  if (alarm_events == 0) {
    std::fprintf(stderr, "%s: %zu lines but no alarm_raised/alarm_cleared\n",
                 path, lineno);
    return 1;
  }
  std::printf("%s: %zu events OK (%zu alarm transitions)\n", path, lineno,
              alarm_events);
  return 0;
}

// Fleet mode (--tenants N): replays the same scripted timeline to N
// copies of the grid through the sharded FleetEngine and prints the
// aggregate alarm/latency summary (plus per-tenant rows under
// --metrics). Returns a process exit code.
int RunFleetReplay(const pw::grid::Grid& grid,
                   const pw::sim::PmuNetwork& network,
                   const pw::eval::Dataset& dataset,
                   pw::detect::OutageDetector detector, size_t tenants,
                   size_t shards, bool print_metrics) {
  auto model =
      std::make_shared<pw::detect::OutageDetector>(std::move(detector));

  pw::detect::FleetOptions fopts;
  fopts.num_shards = shards;
  pw::detect::FleetEngine engine(fopts);
  std::vector<pw::detect::TenantId> ids;
  for (size_t k = 0; k < tenants; ++k) {
    pw::detect::TenantConfig config;
    config.name = "grid-" + std::to_string(k);
    config.detector = model;
    config.stream.alarm_after = 2;
    config.stream.clear_after = 2;
    auto id = engine.AddTenant(std::move(config));
    if (!id.ok()) {
      std::fprintf(stderr, "fleet: %s\n", id.status().ToString().c_str());
      return 1;
    }
    ids.push_back(*id);
  }
  engine.Start();

  // The single-grid scripted timeline, fanned out to every tenant.
  const auto& outage_case = dataset.outages[2];
  size_t outage_cluster = network.ClusterOf(outage_case.line.i);
  std::printf("Monitoring %zu tenants of %s on %zu shards; scripted "
              "event: %s at t=20\n(PDC %zu dark), restored at t=35.\n\n",
              tenants, grid.name().c_str(), engine.num_shards(),
              grid.LineName(outage_case.line).c_str(), outage_cluster);
  for (size_t t = 0; t < 45; ++t) {
    bool in_outage = t >= 20 && t < 35;
    const auto& source = in_outage ? outage_case.test : dataset.normal.test;
    pw::sim::MeasurementFrame frame = pw::sim::MeasurementFrame::FromDataSet(
        source, t % source.num_samples(), 1000 * (t + 1));
    frame.mask = in_outage
                     ? pw::sim::MissingCluster(network, outage_cluster)
                     : pw::sim::MissingMask::None(grid.num_buses());
    for (pw::detect::TenantId id : ids) {
      for (;;) {
        pw::Status status = engine.Submit(id, frame);
        if (status.ok()) break;
        if (status.code() != pw::StatusCode::kResourceExhausted) {
          std::fprintf(stderr, "fleet: %s\n", status.ToString().c_str());
          return 1;
        }
        std::this_thread::yield();  // backpressure: let the shards drain
      }
    }
  }
  engine.Flush();
  engine.Stop();

  uint64_t alarms_raised = 0;
  uint64_t alarms_active = 0;
  auto rows = engine.TenantRows();
  for (const auto& row : rows) {
    alarms_raised += row.alarms_raised;
    alarms_active += row.alarm_active ? 1 : 0;
  }
  auto latency = engine.LatencySnapshot();
  std::printf("Processed %llu frames (%llu shed): %llu alarms raised, "
              "%llu still active.\n",
              static_cast<unsigned long long>(engine.frames_processed()),
              static_cast<unsigned long long>(engine.frames_shed()),
              static_cast<unsigned long long>(alarms_raised),
              static_cast<unsigned long long>(alarms_active));
  std::printf("Detection latency (submit to event): p50 %.0f us, "
              "p99 %.0f us, p999 %.0f us\n",
              latency.p50(), latency.p99(), latency.p999());

  if (print_metrics) {
    std::printf("\n%-4s %-10s %-6s %9s %9s %8s %8s %6s\n", "id", "tenant",
                "shard", "samples", "rejected", "raised", "cleared", "alarm");
    for (const auto& row : rows) {
      std::printf("%-4zu %-10s %-6zu %9llu %9llu %8llu %8llu %6s\n", row.id,
                  row.name.c_str(), row.shard,
                  static_cast<unsigned long long>(row.samples),
                  static_cast<unsigned long long>(row.samples_rejected),
                  static_cast<unsigned long long>(row.alarms_raised),
                  static_cast<unsigned long long>(row.alarms_cleared),
                  row.alarm_active ? "*ALARM*" : "-");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pw::SetLogLevelFromEnv();
  bool print_metrics = false;
  bool print_metrics_json = false;
  const char* trace_path = nullptr;
  size_t tenants = 1;
  size_t shards = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) print_metrics = true;
    if (std::strcmp(argv[i], "--metrics-json") == 0) print_metrics_json = true;
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenants = static_cast<size_t>(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<size_t>(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--validate-events") == 0 && i + 1 < argc) {
      return ValidateEventsFile(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      pw::Status status = pw::obs::EventLog::Global().OpenFile(argv[i + 1]);
      if (!status.ok()) {
        std::fprintf(stderr, "--events: %s\n", status.ToString().c_str());
        return 1;
      }
    }
  }

  auto grid = pw::grid::IeeeCase14();
  if (!grid.ok()) return 1;
  auto network = pw::sim::PmuNetwork::Build(*grid, 3);
  if (!network.ok()) return 1;

  pw::eval::DatasetOptions dopts;
  dopts.train_states = 16;
  dopts.train_samples_per_state = 8;
  dopts.test_states = 8;
  dopts.test_samples_per_state = 6;
  // One worker per core for the per-case simulation fan-out (set
  // PW_THREADS=1 to force the serial path); the generated data is
  // bit-identical either way, so the scripted timeline below plays out
  // the same on any machine.
  dopts.parallelism = 0;
  auto dataset = pw::eval::BuildDataset(*grid, dopts, 99);
  if (!dataset.ok()) return 1;

  pw::detect::TrainingData training;
  training.normal = &dataset->normal.train;
  for (const auto& c : dataset->outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  auto detector =
      pw::detect::OutageDetector::Train(*grid, *network, training, {});
  if (!detector.ok()) {
    std::fprintf(stderr, "train: %s\n",
                 detector.status().ToString().c_str());
    return 1;
  }

  if (tenants > 1) {
    int rc = RunFleetReplay(*grid, *network, *dataset,
                            std::move(detector).value(), tenants, shards,
                            print_metrics);
    if (rc != 0) return rc;
  } else {
    // The operator-facing layer: debounce alarms over consecutive
    // samples and stabilize F-hat by majority vote.
    pw::detect::StreamOptions stream_opts;
    stream_opts.alarm_after = 2;
    stream_opts.clear_after = 2;
    pw::detect::TenantSession monitor(
        std::make_shared<pw::detect::OutageDetector>(
            std::move(detector).value()),
        stream_opts);

    // Streaming timeline: 20 normal ticks, 15 outage ticks with the home
    // cluster dark, 10 normal ticks after restoration.
    const auto& outage_case = dataset->outages[2];
    size_t outage_cluster = network->ClusterOf(outage_case.line.i);
    std::printf("Monitoring %s; scripted event: %s at t=20 (PDC %zu dark),\n"
                "restored at t=35. Alarm debounce: %zu samples.\n\n",
                grid->name().c_str(),
                grid->LineName(outage_case.line).c_str(), outage_cluster,
                stream_opts.alarm_after);
    std::printf("%-5s %-10s %-9s %-12s %s\n", "t", "phase", "alarm",
                "transition", "voted F-hat");

    size_t alarm_ticks_during_outage = 0;
    size_t false_alarm_ticks = 0;
    for (size_t t = 0; t < 45; ++t) {
      bool in_outage = t >= 20 && t < 35;
      const auto& source =
          in_outage ? outage_case.test : dataset->normal.test;
      auto [vm, va] = source.Sample(t % source.num_samples());
      pw::sim::MissingMask mask =
          in_outage ? pw::sim::MissingCluster(*network, outage_cluster)
                    : pw::sim::MissingMask::None(grid->num_buses());

      auto event = monitor.Process(vm, va, mask);
      if (!event.ok()) {
        std::fprintf(stderr, "monitor: %s\n",
                     event.status().ToString().c_str());
        return 1;
      }
      std::string fhat;
      for (const auto& line : event->lines) {
        fhat += grid->LineName(line) + " ";
      }
      if (event->alarm_active) {
        if (in_outage) {
          ++alarm_ticks_during_outage;
        } else {
          ++false_alarm_ticks;
        }
      }
      const char* transition = event->alarm_raised    ? "RAISED"
                               : event->alarm_cleared ? "cleared"
                                                      : "";
      std::printf("%-5zu %-10s %-9s %-12s %s\n", t,
                  in_outage ? "OUTAGE" : "normal",
                  event->alarm_active ? "*ALARM*" : "-", transition,
                  fhat.c_str());
    }

    std::printf("\nAlarm ticks during the 15 outage ticks: %zu; false-alarm "
                "ticks in 30 normal ticks: %zu\n",
                alarm_ticks_during_outage, false_alarm_ticks);
  }

  if (print_metrics) {
    std::printf("\n%s",
                pw::obs::MetricsRegistry::Global().TextSnapshot().c_str());
  }
  if (print_metrics_json) {
    std::printf("%s\n",
                pw::obs::RunReportBuilder("grid_monitor").Json().c_str());
  }
  if (trace_path != nullptr) {
    pw::Status status = pw::obs::WriteChromeTrace(trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "--trace: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Chrome trace written to %s\n", trace_path);
  }
  pw::obs::EventLog::Global().Close();
  return 0;
}
