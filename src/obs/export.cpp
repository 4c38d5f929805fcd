#include "obs/export.h"

#include <cctype>
#include <cstdio>
#include <fstream>

namespace kf::obs {

namespace {

std::string sanitize(const std::string& prefix, const std::string& name) {
  std::string out = prefix.empty() ? name : prefix + "_" + name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string format_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string to_prometheus(const MetricsRegistry& registry,
                          const std::string& prefix) {
  std::string out;
  for (const MetricRow& row : registry.rows()) {
    if (row.kind == MetricRow::Kind::kCounter) {
      const std::string name = sanitize(prefix, row.name) + "_total";
      out += "# TYPE " + name + " counter\n";
      out += name + " " + format_u64(row.count) + "\n";
    } else if (row.kind == MetricRow::Kind::kGauge) {
      const std::string name = sanitize(prefix, row.name);
      out += "# TYPE " + name + " gauge\n";
      out += name + " " + format_double(row.value) + "\n";
    }
  }
  for (const auto& [raw_name, snap] : registry.histogram_snapshots()) {
    const std::string name = sanitize(prefix, raw_name);
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
      if (snap.buckets[i] == 0) continue;
      cumulative += snap.buckets[i];
      const double upper =
          static_cast<double>(Histogram::bucket_upper_ns(i)) * 1e-9;
      out += name + "_bucket{le=\"" + format_double(upper) + "\"} " +
             format_u64(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + format_u64(snap.count) + "\n";
    out += name + "_sum " + format_double(snap.sum()) + "\n";
    out += name + "_count " + format_u64(snap.count) + "\n";
  }
  return out;
}

bool write_prometheus(const MetricsRegistry& registry, const std::string& path,
                      const std::string& prefix) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_prometheus(registry, prefix);
  return static_cast<bool>(out);
}

std::string to_timeseries_json(const Monitor& monitor) {
  std::string out = "{\n";
  out += "  \"period_ms\": " + format_double(monitor.config().period_ms) +
         ",\n";
  out += "  \"polls\": " + format_u64(monitor.polls()) + ",\n";
  out += "  \"series\": [";
  bool first_series = true;
  for (const auto& [name, series] : monitor.snapshot()) {
    if (!first_series) out += ",";
    first_series = false;
    out += "\n    {\"name\": \"" + name + "\", \"dropped\": " +
           format_u64(series.dropped()) + ", \"samples\": [";
    for (std::size_t i = 0; i < series.size(); ++i) {
      const TimeSample& s = series.at(i);
      out += i > 0 ? ", [" : "[";
      out += format_double(s.t) + ", " + format_double(s.value) + "]";
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool write_timeseries_json(const Monitor& monitor, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_timeseries_json(monitor);
  return static_cast<bool>(out);
}

}  // namespace kf::obs
