#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `pct` in a sample of `n`.
size_t NearestRank(double pct, size_t n) {
  double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::min(n, std::max<size_t>(1, static_cast<size_t>(rank)));
}

}  // namespace

double Percentile(std::vector<double> sample, double pct) {
  if (sample.empty()) return 0.0;
  size_t rank = NearestRank(pct, sample.size());
  std::nth_element(sample.begin(), sample.begin() + (rank - 1), sample.end());
  return sample[rank - 1];
}

double Median(std::vector<double> sample) {
  return Percentile(std::move(sample), 50.0);
}

Tail TailPercentile(std::vector<double> sample, double max_pct) {
  Tail tail;
  tail.samples = sample.size();
  if (sample.empty()) return tail;
  std::sort(sample.begin(), sample.end());
  const size_t n = sample.size();
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (pct > max_pct) continue;
    size_t rank = NearestRank(pct, n);
    if (n - rank >= 10) {
      tail.percentile = pct;
      tail.value = sample[rank - 1];
      tail.beyond = n - rank;
      return tail;
    }
  }
  tail.value = sample.back();
  return tail;
}

std::array<double, 3> Quartiles(std::vector<double> sample) {
  std::array<double, 3> q{};
  if (sample.empty()) return q;
  std::sort(sample.begin(), sample.end());
  const long ld = static_cast<long>(sample.size());
  if (ld == 1) return {sample[0], sample[0], sample[0]};
  const long m = ld + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = std::min(std::max(i * m / 4, 1L), ld - 1);
    long delta = i * m - j * 4;
    q[i - 1] = (sample[j - 1] * static_cast<double>(4 - delta) +
                sample[j] * static_cast<double>(delta)) /
               4.0;
  }
  return q;
}

double InterquartileRange(const std::vector<double>& sample) {
  std::array<double, 3> q = Quartiles(sample);
  return q[2] - q[0];
}

WindowRates RatesPerWindow(const std::vector<int64_t>& done_ns,
                           const std::vector<double>& tokens,
                           int64_t start_ns, int64_t end_ns, int windows) {
  WindowRates rates;
  if (windows <= 0 || end_ns <= start_ns) return rates;
  const size_t n = static_cast<size_t>(windows);
  std::vector<double> count(n, 0.0), token_sum(n, 0.0);
  const double span = static_cast<double>(end_ns - start_ns);
  for (size_t i = 0; i < done_ns.size(); ++i) {
    if (done_ns[i] < start_ns || done_ns[i] >= end_ns) continue;
    size_t w = std::min(n - 1, static_cast<size_t>(
                                   static_cast<double>(done_ns[i] - start_ns) /
                                   span * windows));
    count[w] += 1.0;
    token_sum[w] += tokens[i];
  }
  const double window_ns = span / windows;
  for (size_t w = 0; w < n; ++w) {
    rates.rps.push_back(count[w] / (window_ns / 1e9));
    if (token_sum[w] <= 0.0) continue;
    rates.us_per_token.push_back(window_ns / 1e3 / token_sum[w]);
  }
  return rates;
}

}  // namespace perfbench
