// Reporting helpers for sbbench: order statistics, a minimal JSON writer,
// the span trace file, and the provenance block every result carries.
#ifndef SBBENCH_REPORT_H_
#define SBBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sbbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Percentile `p` in [0, 100] by linear interpolation between closest
/// ranks (numpy's default), 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// One traced interval. Spans of one trial share `trial`; `parent` is the
/// id of the enclosing span (0 for a root).
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trial = 0;
  double start_us = 0;
  double dur_us = 0;
};

/// Write spans as a Chrome trace-event file (chrome://tracing, Perfetto).
bool WriteTrace(const std::string& path, const std::vector<Span>& spans);

/// Append-only JSON object text builder; values are emitted in call order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, uint64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  /// `json` must already be valid JSON text (an object or array).
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonString(const std::string& s);
/// Shortest round-trip text for a double (all digits kept).
std::string JsonNumber(double value);

/// Host and build facts recorded with every result.
std::string ProvenanceJson(const std::string& git_sha);

}  // namespace sbbench

#endif  // SBBENCH_REPORT_H_
