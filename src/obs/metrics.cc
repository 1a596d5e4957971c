#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace hovercraft {
namespace obs {
namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string NodeScope(NodeId node) { return "node" + std::to_string(node) + "/"; }

void MetricsRegistry::AddCounter(const std::string& name, uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::SetCounter(const std::string& name, uint64_t value) {
  counters_[name] = value;
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::SetGauge(const std::string& name, int64_t value) {
  gauges_[name] = value;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram()).first;
  }
  return it->second;
}

void MetricsRegistry::Sample(const std::string& name, TimeNs t, int64_t value) {
  series_[name].emplace_back(t, value);
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  series_.clear();
}

void MetricsRegistry::DumpJson(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": {\"count\": "
        << h.count() << ", \"min\": " << h.min() << ", \"max\": " << h.max()
        << ", \"mean\": " << FormatDouble(h.Mean()) << ", \"p50\": " << h.Percentile(50)
        << ", \"p90\": " << h.Percentile(90) << ", \"p99\": " << h.Percentile(99)
        << ", \"p999\": " << h.Percentile(99.9) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"timeseries\": {";
  first = true;
  for (const auto& [name, points] : series_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": [";
    for (size_t i = 0; i < points.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "[" << points[i].first << ", " << points[i].second << "]";
    }
    out << "]";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace obs
}  // namespace hovercraft
