// Host fingerprint printed with every result, so numbers from different
// hosts are not compared by accident: CPU model, hardware threads, build
// type, and a measured single-thread stream-read bandwidth.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  int nproc = 0;
  std::string build_type;
  double stream_read_gbps = 0.0;
};

HostInfo ProbeHost();

/// Single-thread read bandwidth (GB/s) over a buffer far larger than the
/// last-level cache: best of a few passes summing 64 MiB of doubles.
double StreamReadGBps();

/// CPU time the kernel accounts across all CPUs since boot (/proc/stat), in
/// clock ticks: everything, and the share the hypervisor stole. The steal
/// share over a run says how much a shared host disturbed it.
struct CpuTimes {
  int64_t total = 0;
  int64_t steal = 0;
};
CpuTimes ReadCpuTimes();
/// Stolen share of CPU time between two readings, in percent.
double StealPercent(const CpuTimes& before, const CpuTimes& after);

/// The fingerprint as one JSON object.
std::string HostJson(const HostInfo& host);

}  // namespace perfbench
