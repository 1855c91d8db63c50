#include "obs/metrics.h"

#include <sstream>

#include "common/sync.h"

namespace phasorwatch::obs {

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: instruments must stay alive for static-duration
  // cached pointers and destructor-time flushes.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

QuantileHistogram* MetricsRegistry::GetQuantile(const std::string& name,
                                                const QuantileOptions& options) {
  MutexLock lock(mu_);
  auto& slot = quantiles_[name];
  if (slot == nullptr) slot = std::make_unique<QuantileHistogram>(options);
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const QuantileHistogram* MetricsRegistry::FindQuantile(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = quantiles_.find(name);
  return it == quantiles_.end() ? nullptr : it->second.get();
}

std::map<std::string, uint64_t> MetricsRegistry::CounterValues() const {
  MutexLock lock(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, double> MetricsRegistry::GaugeValues() const {
  MutexLock lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

std::map<std::string, QuantileHistogram::Snapshot>
MetricsRegistry::QuantileSnapshots() const {
  MutexLock lock(mu_);
  std::map<std::string, QuantileHistogram::Snapshot> out;
  for (const auto& [name, quantile] : quantiles_) {
    out[name] = quantile->TakeSnapshot();
  }
  return out;
}

namespace {

std::string FormatDouble(double value) {
  std::ostringstream out;
  out.precision(6);
  out << value;
  return out.str();
}

}  // namespace

std::string MetricsRegistry::TextSnapshot() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << "--- metrics snapshot ---\n";
  for (const auto& [name, counter] : counters_) {
    out << "counter   " << name << " = " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out << "gauge     " << name << " = " << FormatDouble(gauge->value())
        << "\n";
  }
  for (const auto& [name, quantile] : quantiles_) {
    QuantileHistogram::Snapshot snap = quantile->TakeSnapshot();
    out << "quantile  " << name << " count=" << snap.count;
    if (snap.count > 0) {
      out << " mean=" << FormatDouble(snap.mean())
          << " min=" << FormatDouble(snap.min)
          << " p50=" << FormatDouble(snap.p50())
          << " p90=" << FormatDouble(snap.p90())
          << " p99=" << FormatDouble(snap.p99())
          << " p999=" << FormatDouble(snap.p999())
          << " max=" << FormatDouble(snap.max)
          << " overflow=" << snap.counts.back();
    }
    out << "\n";
  }
  return out.str();
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, quantile] : quantiles_) quantile->Reset();
}

size_t MetricsRegistry::num_instruments() const {
  MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + quantiles_.size();
}

}  // namespace phasorwatch::obs
