#include "obs/report.h"

#include <ctime>
#include <fstream>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "common/serialize.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/quantile.h"

// Build provenance is injected per-translation-unit by src/obs/
// CMakeLists.txt (configure-time `git rev-parse`); the fallbacks keep
// non-CMake builds compiling.
#ifndef PW_GIT_SHA
#define PW_GIT_SHA "unknown"
#endif
#ifndef PW_BUILD_TYPE
#define PW_BUILD_TYPE "unknown"
#endif

namespace phasorwatch::obs {
namespace {

void AppendKey(std::string* out, const std::string& name) {
  *out += "\"";
  AppendJsonEscaped(out, name);
  *out += "\":";
}

void AppendStringField(std::string* out, const std::string& key,
                       const std::string& value) {
  AppendKey(out, key);
  *out += "\"";
  AppendJsonEscaped(out, value);
  *out += "\"";
}

}  // namespace

RunReportBuilder::RunReportBuilder(std::string name)
    : name_(std::move(name)) {}

RunReportBuilder& RunReportBuilder::AddResult(const std::string& key,
                                              double value,
                                              const std::string& unit) {
  results_[key] = ResultEntry{value, unit};
  return *this;
}

std::string RunReportBuilder::Json() const {
  const MetricsRegistry& registry = MetricsRegistry::Global();
  std::string out = "{";
  AppendStringField(&out, "schema", "pw-bench-report-v2");
  out += ",";
  AppendStringField(&out, "name", name_);
  out += ",\"created_unix\":";
  out += std::to_string(static_cast<int64_t>(std::time(nullptr)));
  out += ",";
  AppendStringField(&out, "git_sha", PW_GIT_SHA);

  out += ",\"build\":{";
  AppendStringField(&out, "compiler",
#if defined(__VERSION__)
                    __VERSION__
#else
                    "unknown"
#endif
  );
  out += ",\"obs_disabled\":";
#ifdef PW_OBS_DISABLED
  out += "true";
#else
  out += "false";
#endif
  out += ",";
  AppendStringField(&out, "type", PW_BUILD_TYPE);
  out += "}";

  out += ",\"host\":{";
  std::string os = "unknown";
  std::string arch = "unknown";
#if defined(__unix__) || defined(__APPLE__)
  struct utsname uts;
  if (uname(&uts) == 0) {
    os = uts.sysname;
    arch = uts.machine;
  }
#endif
  AppendStringField(&out, "arch", arch);
  out += ",\"cpus\":";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ",";
  AppendStringField(&out, "os", os);
  out += "}";

  out += ",\"results\":{";
  bool first = true;
  for (const auto& [key, entry] : results_) {
    if (!first) out += ",";
    first = false;
    AppendKey(&out, key);
    out += "{";
    AppendStringField(&out, "unit", entry.unit);
    out += ",\"value\":";
    out += FormatJsonDouble(entry.value);
    out += "}";
  }
  out += "}";

  out += ",\"counters\":{";
  first = true;
  for (const auto& [name, value] : registry.CounterValues()) {
    if (!first) out += ",";
    first = false;
    AppendKey(&out, name);
    out += std::to_string(value);
  }
  out += "}";

  out += ",\"gauges\":{";
  first = true;
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (!first) out += ",";
    first = false;
    AppendKey(&out, name);
    out += FormatJsonDouble(value);
  }
  out += "}";

  out += ",\"quantiles\":{";
  first = true;
  for (const auto& [name, snap] : registry.QuantileSnapshots()) {
    if (!first) out += ",";
    first = false;
    AppendKey(&out, name);
    out += "{\"count\":";
    out += std::to_string(snap.count);
    out += ",\"max\":";
    out += FormatJsonDouble(snap.max);
    out += ",\"mean\":";
    out += FormatJsonDouble(snap.mean());
    out += ",\"min\":";
    out += FormatJsonDouble(snap.min);
    out += ",\"p50\":";
    out += FormatJsonDouble(snap.p50());
    out += ",\"p90\":";
    out += FormatJsonDouble(snap.p90());
    out += ",\"p99\":";
    out += FormatJsonDouble(snap.p99());
    out += ",\"p999\":";
    out += FormatJsonDouble(snap.p999());
    out += "}";
  }
  out += "}}";
  return out;
}

Status RunReportBuilder::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open report file: " + path);
  }
  out << Json() << "\n";
  if (!out.good()) {
    return Status::InvalidArgument("failed writing report file: " + path);
  }
  return Status::OK();
}

}  // namespace phasorwatch::obs
