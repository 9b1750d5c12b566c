// Order statistics used by every workload, in one place so the self-tests
// pin the exact rules the reported numbers follow.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `pct` in [0, 100] of an unsorted sample: the
/// value at 1-based rank ceil(pct/100 * n). 0 for an empty sample.
double Percentile(std::vector<double> sample, double pct);

double Median(std::vector<double> sample);

/// A tail percentile chosen by the reporting rule: the highest percentile
/// of {99.9, 99, 95, 90, 75, 50}, not above `max_pct`, that leaves at least
/// ten samples beyond its nearest rank. `percentile` is 0 when even the
/// median has fewer than ten samples beyond it; `value` is then the
/// sample's maximum.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailPercentile(std::vector<double> sample, double max_pct = 99.0);

/// First, second and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(data, n=4); needs at least two samples (a single
/// sample yields it three times).
std::array<double, 3> Quartiles(std::vector<double> sample);

/// Interquartile distance (Q3 - Q1) by the rule above.
double InterquartileRange(const std::vector<double>& sample);

/// Per-sub-window rates of the interval [start_ns, end_ns), cut into
/// `windows` equal sub-windows; completion i counts in the sub-window its
/// stamp `done_ns[i]` falls in and carries `tokens[i]` tokens. `rps` holds
/// each sub-window's completions per second. `us_per_token` holds its
/// wall-time microseconds per token; a sub-window without tokens has no
/// entry.
/// Reported as medians over sub-windows, these keep a transient stall of
/// a shared host from setting a run's figure.
struct WindowRates {
  std::vector<double> rps;
  std::vector<double> us_per_token;
};
WindowRates RatesPerWindow(const std::vector<int64_t>& done_ns,
                           const std::vector<double>& tokens,
                           int64_t start_ns, int64_t end_ns, int windows);

}  // namespace perfbench
