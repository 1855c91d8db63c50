// Multi-tenant fleet replay: N IEEE-14 tenants stream interleaved PMU
// frames (fault injection on) through a sharded FleetEngine, measuring
// aggregate throughput and the submit-to-event detection-latency
// quantiles (docs/FLEET.md).
//
// Flags:
//   --tenants N : concurrent monitored grids (default 1000)
//   --shards K  : shard drain threads (default min(4, host cores), so
//                 shards never outnumber CPUs and latency tails measure
//                 detection, not preemption; PW_THREADS overrides the
//                 core count as everywhere else)
//   --frames N  : frames replayed per tenant (default 30)
//   --quick     : CI sizing (128 tenants, 12 frames)
//   --json PATH : write the pw-bench-report-v2 run report
//                 (BENCH_fleet.json trajectory, scripts/bench_report.py)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_common.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "detect/fleet.h"
#include "eval/dataset.h"
#include "grid/ieee_cases.h"
#include "sim/fault_injection.h"

namespace phasorwatch::bench {
namespace {

struct FleetReplayConfig {
  size_t tenants = 1000;
  size_t shards = std::min<size_t>(4, ResolveParallelism(0));
  size_t frames = 30;
  std::string json_path;
};

bool ParseFlags(FleetReplayConfig* config, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config->tenants = 128;
      config->frames = 12;
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      config->tenants = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      config->shards = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      config->frames = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config->json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return config->tenants > 0 && config->shards > 0 && config->frames > 0;
}

int Run(const FleetReplayConfig& config) {
  using detect::FleetEngine;
  using detect::FleetOptions;
  using detect::TenantConfig;
  using detect::TenantId;

  std::printf("fleet_replay: %zu tenants x %zu frames on %zu shards "
              "(fault injection on)\n",
              config.tenants, config.frames, config.shards);

  auto grid = grid::IeeeCase14();
  PW_CHECK(grid.ok());
  auto network = sim::PmuNetwork::Build(*grid, 3);
  PW_CHECK(network.ok());

  eval::DatasetOptions dopts;
  dopts.train_states = 16;
  dopts.train_samples_per_state = 8;
  dopts.test_states = 6;
  dopts.test_samples_per_state = 6;
  auto dataset = eval::BuildDataset(*grid, dopts, 55);
  PW_CHECK(dataset.ok());

  detect::TrainingData training;
  training.normal = &dataset->normal.train;
  for (const auto& c : dataset->outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  auto trained =
      detect::OutageDetector::Train(*grid, *network, training, {});
  PW_CHECK(trained.ok());
  // All tenants monitor IEEE-14, so they share one trained model — the
  // realistic fleet memory shape (Detect is concurrency-safe).
  auto detector =
      std::make_shared<detect::OutageDetector>(std::move(trained).value());

  // The per-tenant replay: bursts of normal and outage samples.
  std::vector<sim::MeasurementFrame> base;
  base.reserve(config.frames);
  for (size_t t = 0; t < config.frames; ++t) {
    const auto& src =
        (t / 6) % 2 == 1 ? dataset->outages[0].test : dataset->normal.test;
    base.push_back(sim::MeasurementFrame::FromDataSet(
        src, t % src.num_samples(), 1000 * (t + 1)));
  }

  FleetOptions fopts;
  fopts.num_shards = config.shards;
  FleetEngine engine(fopts);

  // One stateful fault injector per tenant (frozen channels and stale
  // timetags are stream state), schedules forked per tenant.
  std::vector<TenantId> ids;
  std::vector<sim::FaultInjector> injectors;
  ids.reserve(config.tenants);
  injectors.reserve(config.tenants);
  sim::FaultScheduleOptions sopts;
  sopts.gross_errors = 2;
  sopts.frozen_channels = 1;
  sopts.non_finite = 1;
  sopts.dropped_frames = 1;
  sopts.stale_timestamps = 1;
  sopts.window = 3;
  for (size_t k = 0; k < config.tenants; ++k) {
    TenantConfig tenant;
    tenant.name = "grid-" + std::to_string(k);
    tenant.detector = detector;
    tenant.stream.alarm_after = 2;
    tenant.stream.clear_after = 2;
    auto id = engine.AddTenant(std::move(tenant));
    PW_CHECK(id.ok());
    ids.push_back(*id);
    auto schedule = sim::MakeRandomFaultSchedule(
        sopts, grid->num_buses(), config.frames, 900 + k);
    PW_CHECK(schedule.ok());
    auto injector = sim::FaultInjector::Create(
        std::move(schedule).value(), grid->num_buses(), config.frames,
        1700 + k);
    PW_CHECK(injector.ok());
    injectors.push_back(std::move(injector).value());
  }

  engine.Start();

  const uint64_t allocs_before = AllocCount();
  const auto start = std::chrono::steady_clock::now();

  // Interleaved ingest, one frame per tenant per tick (the PDC pattern);
  // shed frames are retried so every tenant sees its whole stream.
  uint64_t retries = 0;
  for (size_t t = 0; t < config.frames; ++t) {
    for (size_t k = 0; k < config.tenants; ++k) {
      sim::MeasurementFrame frame = base[t];
      PW_CHECK(injectors[k].Apply(t, &frame).ok());
      for (;;) {
        Status status = engine.Submit(ids[k], frame);
        if (status.ok()) break;
        PW_CHECK(status.code() == StatusCode::kResourceExhausted);
        ++retries;
        std::this_thread::yield();
      }
    }
  }
  engine.Flush();

  const auto elapsed = std::chrono::steady_clock::now() - start;
  const uint64_t allocs_after = AllocCount();
  engine.Stop();

  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  const uint64_t total_frames = engine.frames_processed();
  PW_CHECK_EQ(total_frames,
              static_cast<uint64_t>(config.tenants * config.frames));
  const double frames_per_sec = static_cast<double>(total_frames) / wall_s;
  const double allocs_per_frame =
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(total_frames);

  auto latency = engine.LatencySnapshot();
  uint64_t alarms = 0;
  uint64_t rejected = 0;
  for (const auto& row : engine.TenantRows()) {
    alarms += row.alarms_raised;
    rejected += row.samples_rejected;
  }

  std::printf("  frames          %llu (%llu shed+retried)\n",
              static_cast<unsigned long long>(total_frames),
              static_cast<unsigned long long>(retries));
  std::printf("  throughput      %.0f frames/s\n", frames_per_sec);
  std::printf("  latency p50     %.1f us (submit to event)\n", latency.p50());
  std::printf("  latency p99     %.1f us\n", latency.p99());
  std::printf("  latency p999    %.1f us\n", latency.p999());
  std::printf("  alarms raised   %llu\n",
              static_cast<unsigned long long>(alarms));
  std::printf("  samples rejected %llu (faults screened)\n",
              static_cast<unsigned long long>(rejected));
  std::printf("  allocs/frame    %.1f (producer side; drain loop is "
              "PW_NO_ALLOC)\n",
              allocs_per_frame);

  ReportResults results;
  results.emplace_back("fleet.tenants", static_cast<double>(config.tenants));
  results.emplace_back("fleet.shards", static_cast<double>(config.shards));
  results.emplace_back("fleet.frames", static_cast<double>(total_frames));
  results.emplace_back("fleet.frames_per_sec", frames_per_sec);
  results.emplace_back("fleet.frame_us.p50", latency.p50());
  results.emplace_back("fleet.frame_us.p99", latency.p99());
  results.emplace_back("fleet.frame_us.p999", latency.p999());
  results.emplace_back("fleet.allocs_per_frame", allocs_per_frame);
  results.emplace_back("fleet.alarms_raised", static_cast<double>(alarms));
  results.emplace_back("fleet.samples_rejected",
                       static_cast<double>(rejected));
  return MaybeWriteJsonReport(config.json_path, "fleet", results);
}

}  // namespace
}  // namespace phasorwatch::bench

int main(int argc, char** argv) {
  phasorwatch::bench::FleetReplayConfig config;
  if (!phasorwatch::bench::ParseFlags(&config, argc, argv)) {
    std::fprintf(stderr,
                 "usage: fleet_replay [--tenants N] [--shards K] "
                 "[--frames N] [--quick] [--json PATH]\n");
    return 1;
  }
  return phasorwatch::bench::Run(config);
}
