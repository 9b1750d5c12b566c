#include "perfbench/src/inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

template <typename T>
void Shuffle(std::vector<T>* v, nimble::support::Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.Next() % i);
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

}  // namespace

nimble::support::Rng Stream(uint64_t seed, uint64_t tag) {
  return nimble::support::Rng(seed * 0x9e3779b97f4a7c15ull ^
                              (tag + 0x632be59bd9b4e019ull));
}

const std::vector<int64_t>& ProdMixHotLengths() {
  static const std::vector<int64_t> hot = {18, 22, 27, 30, 35, 38, 59, 62};
  return hot;
}

std::vector<int64_t> ProdMixLengths(nimble::support::Rng& rng, int count) {
  static const int kWeightPct[] = {22, 18, 15, 12, 11, 9, 7, 6};
  const std::vector<int64_t>& hot = ProdMixHotLengths();
  // Exact shares: floor of each length's share, then the remainder to the
  // largest fractional parts (ties to the more frequent length).
  std::vector<int> n(hot.size());
  std::vector<std::pair<int, size_t>> frac;
  int assigned = 0;
  for (size_t j = 0; j < hot.size(); ++j) {
    n[j] = kWeightPct[j] * count / 100;
    assigned += n[j];
    frac.emplace_back(-(kWeightPct[j] * count % 100), j);
  }
  std::sort(frac.begin(), frac.end());
  for (int r = 0; r < count - assigned; ++r) n[frac[r].second]++;
  std::vector<int64_t> lengths;
  lengths.reserve(count);
  for (size_t j = 0; j < hot.size(); ++j) {
    lengths.insert(lengths.end(), static_cast<size_t>(n[j]), hot[j]);
  }
  Shuffle(&lengths, rng);
  return lengths;
}

std::vector<double> PoissonArrivals(nimble::support::Rng& rng,
                                    double rate_rps, double duration_s) {
  const int n = static_cast<int>(std::llround(rate_rps * duration_s));
  std::vector<double> gaps;
  gaps.reserve(n);
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    double q = (static_cast<double>(i) + rng.Uniform()) / n;
    gaps.push_back(-std::log(1.0 - q) / rate_rps);
    total += gaps.back();
  }
  Shuffle(&gaps, rng);
  // Scale so the last arrival lands one mean gap before the window ends.
  const double scale = n > 0 ? duration_s / (total + total / n) : 0.0;
  std::vector<double> due;
  due.reserve(n);
  double t = 0.0;
  for (double gap : gaps) {
    t += gap * scale;
    due.push_back(t);
  }
  return due;
}

std::vector<int64_t> ShortLongLengths(nimble::support::Rng& rng, int count) {
  const int shorts = (count * 7 + 5) / 10;
  std::vector<int64_t> lengths;
  lengths.reserve(count);
  for (int i = 0; i < count; ++i) {
    lengths.push_back(i < shorts ? rng.UniformInt(4, 8) : rng.UniformInt(48, 64));
  }
  Shuffle(&lengths, rng);
  return lengths;
}

}  // namespace perfbench
