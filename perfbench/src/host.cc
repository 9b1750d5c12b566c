#include "perfbench/src/host.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "perfbench/src/common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

double StreamReadGBps() {
  const size_t n = (64u << 20) / sizeof(double);
  std::vector<double> buffer(n, 1.0);
  double best = 0.0;
  volatile double sink = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    Clock::time_point t0 = Clock::now();
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t i = 0; i + 3 < n; i += 4) {
      s0 += buffer[i];
      s1 += buffer[i + 1];
      s2 += buffer[i + 2];
      s3 += buffer[i + 3];
    }
    double seconds = SecondsSince(t0);
    sink = sink + s0 + s1 + s2 + s3;
    if (pass > 0 && seconds > 0.0) {  // pass 0 faults the pages in
      best = std::max(best, static_cast<double>(n * sizeof(double)) /
                                seconds / 1e9);
    }
  }
  return best;
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    int64_t ticks = 0;
    if (!(in >> ticks)) break;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

double StealPercent(const CpuTimes& before, const CpuTimes& after) {
  int64_t total = after.total - before.total;
  return total > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

HostInfo ProbeHost() {
  HostInfo host;
  host.cpu_model = CpuModel();
  host.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.stream_read_gbps = StreamReadGBps();
  return host;
}

std::string HostJson(const HostInfo& host) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu_model\": \"%s\", \"nproc\": %d, \"build_type\": "
                "\"%s\", \"stream_read_gbps\": %.3f}",
                JsonEscape(host.cpu_model).c_str(), host.nproc,
                JsonEscape(host.build_type).c_str(), host.stream_read_gbps);
  return buf;
}

}  // namespace perfbench
