#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "engine/kernels.h"

namespace sbbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer the shortest text that reads back as the same double.
  for (int digits = 6; digits < 17; ++digits) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", digits, value);
    if (std::strtod(shorter, nullptr) == value) return shorter;
  }
  return buf;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonObject args;
    args.Int("id", s.id).Int("parent", s.parent);
    JsonObject ev;
    ev.Str("name", s.name)
        .Str("ph", "X")
        .Int("pid", 1)
        .Int("tid", s.trial)
        .Num("ts", s.start_us)
        .Num("dur", s.dur_us)
        .Raw("args", args.Text());
    out << ev.Text() << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

// CPU brand string from CPUID (no file access needed).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {0};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop trailing NULs
    size_t b = brand.find_first_not_of(' ');
    size_t e = brand.find_last_not_of(' ');
    if (b != std::string::npos) return brand.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

}  // namespace

std::string ProvenanceJson(const std::string& git_sha) {
  using secureblox::engine::DetectSimdMode;
  using secureblox::engine::SimdModeName;
  JsonObject p;
  p.Str("git_sha", git_sha)
      .Str("cpu_model", CpuModel())
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("simd", SimdModeName(DetectSimdMode()))
      .Str("build_type", SBBENCH_BUILD_TYPE)
      .Str("compiler", SBBENCH_COMPILER);
  return p.Text();
}

}  // namespace sbbench
