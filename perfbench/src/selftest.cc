// Self-tests of the benchmark's own arithmetic: the percentile rule, self
// time of nested and overlapping spans, the quartile rule, sub-window
// rates, and seed determinism of every input generator. Exits nonzero on
// the first failure; run.py runs it before every benchmark run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"

namespace {

using namespace perfbench;  // NOLINT

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    failures++;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  // 1000 samples: p99 is rank 990, leaving exactly 10 beyond it.
  Tail t = TailPercentile(OneTo(1000));
  EXPECT(Near(t.percentile, 99.0) && Near(t.value, 990.0) && t.beyond == 10);
  // 999 samples: p99 leaves 9, so the rule falls back to p95 (rank 950).
  t = TailPercentile(OneTo(999));
  EXPECT(Near(t.percentile, 95.0) && Near(t.value, 950.0) && t.beyond == 49);
  // 10000 samples: p99.9 leaves 10, but the cap keeps the named p99.
  t = TailPercentile(OneTo(10000));
  EXPECT(Near(t.percentile, 99.0) && Near(t.value, 9900.0));
  t = TailPercentile(OneTo(10000), 99.9);
  EXPECT(Near(t.percentile, 99.9) && Near(t.value, 9990.0) && t.beyond == 10);
  // 100 samples: p90 leaves 10.
  t = TailPercentile(OneTo(100));
  EXPECT(Near(t.percentile, 90.0) && Near(t.value, 90.0));
  // 15 samples: not even the median has ten beyond it.
  t = TailPercentile(OneTo(15));
  EXPECT(t.percentile == 0.0 && Near(t.value, 15.0) && t.samples == 15);
  EXPECT(TailPercentile({}).samples == 0);
  EXPECT(Near(Median(OneTo(5)), 3.0));
  EXPECT(Near(Percentile(OneTo(100), 99.0), 99.0));
  EXPECT(Percentile({}, 50.0) == 0.0);
}

void TestQuartiles() {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::array<double, 3> q = Quartiles(OneTo(10));
  EXPECT(Near(q[0], 2.75) && Near(q[1], 5.5) && Near(q[2], 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = Quartiles({2.0, 1.0});
  EXPECT(Near(q[0], 0.75) && Near(q[1], 1.5) && Near(q[2], 2.25));
  EXPECT(Near(InterquartileRange(OneTo(10)), 5.5));
}

void TestRatesPerWindow() {
  // [0, 90) ns in 3 windows of 30 ns; stamps 90 and -1 fall outside.
  const std::vector<int64_t> done = {0, 29, 30, 59, 60, 89, 90, -1};
  const std::vector<double> tokens = {1, 2, 3, 4, 5, 6, 7, 8};
  WindowRates wall = RatesPerWindow(done, tokens, 0, 90, 3);
  EXPECT(wall.rps.size() == 3 && Near(wall.rps[1], 2.0 / 30e-9));
  // Wall time per token: 30 ns over 3, 7 and 11 tokens.
  EXPECT(wall.us_per_token.size() == 3 &&
         Near(wall.us_per_token[0], 0.030 / 3.0) &&
         Near(wall.us_per_token[2], 0.030 / 11.0));
  // An empty window has a rate of 0 and no time per token.
  WindowRates sparse = RatesPerWindow({5}, {1.0}, 0, 30, 3);
  EXPECT(sparse.rps.size() == 3 && Near(sparse.rps[2], 0.0) &&
         sparse.us_per_token.size() == 1);
  EXPECT(RatesPerWindow({5}, {1.0}, 10, 10, 3).rps.empty());
}

Span MakeSpan(int64_t id, int64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  // Root [0,100) with children [10,30) and [20,50) that overlap each other
  // (union 40), plus a grandchild [12,18) inside the first child.
  std::vector<Span> spans = {MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30),
                             MakeSpan(3, 1, 20, 50), MakeSpan(4, 2, 12, 18)};
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 60);  // 100 - |[10,50)|
  EXPECT(self[1] == 14);  // 20 - 6
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 6);
  // A child sticking out of its parent counts only where they overlap; a
  // child fully covering the parent leaves zero self time.
  spans = {MakeSpan(1, 0, 0, 10), MakeSpan(2, 1, 5, 40), MakeSpan(3, 0, 0, 10),
           MakeSpan(4, 3, -5, 20)};
  self = SelfTimesNs(spans);
  EXPECT(self[0] == 5 && self[1] == 35 && self[2] == 0 && self[3] == 25);
  // Disjoint and identical children; order of recording does not matter.
  spans = {MakeSpan(5, 1, 60, 70), MakeSpan(1, 0, 0, 100),
           MakeSpan(6, 1, 60, 70), MakeSpan(7, 1, 0, 10)};
  self = SelfTimesNs(spans);
  EXPECT(self[1] == 80);
}

template <typename F>
void ExpectDeterministic(F make, const char* what) {
  bool same = make(7) == make(7);
  bool differs = make(7) != make(8);
  if (!same || !differs) {
    std::fprintf(stderr, "selftest: %s is not seed-deterministic\n", what);
    failures++;
  }
}

void TestSeedDeterminism() {
  ExpectDeterministic(
      [](uint64_t seed) {
        nimble::support::Rng rng = Stream(seed, 100);
        return PoissonArrivals(rng, 800.0, 1.0);
      },
      "PoissonArrivals");
  ExpectDeterministic(
      [](uint64_t seed) {
        nimble::support::Rng rng = Stream(seed, 1);
        return ProdMixLengths(rng, 256);
      },
      "ProdMixLengths");
  ExpectDeterministic(
      [](uint64_t seed) {
        nimble::support::Rng rng = Stream(seed, 1);
        return ShortLongLengths(rng, 256);
      },
      "ShortLongLengths");
  nimble::support::Rng rng = Stream(5, 1);
  int shorts = 0;
  for (int64_t len : ShortLongLengths(rng, 256)) {
    EXPECT((len >= 4 && len <= 8) || (len >= 48 && len <= 64));
    if (len <= 8) shorts++;
  }
  EXPECT(shorts == 179);
  // Streams of one seed with different tags are independent.
  nimble::support::Rng a = Stream(7, 1), b = Stream(7, 2);
  EXPECT(a.Next() != b.Next());
  // A Poisson schedule has the requested rate and stays in its window.
  rng = Stream(3, 100);
  std::vector<double> due = PoissonArrivals(rng, 1000.0, 10.0);
  EXPECT(due.size() == 10000);
  EXPECT(!due.empty() && due.front() >= 0.0 && due.back() < 10.0);
  EXPECT(std::is_sorted(due.begin(), due.end()));
  // The production mix holds every length at its exact share.
  rng = Stream(3, 1);
  std::vector<int64_t> mix = ProdMixLengths(rng, 100);
  EXPECT(std::count(mix.begin(), mix.end(), 18) == 22 &&
         std::count(mix.begin(), mix.end(), 62) == 6);
  EXPECT(ProdMixLengths(rng, 7).size() == 7);
}

}  // namespace

int main() {
  TestPercentileRule();
  TestQuartiles();
  TestRatesPerWindow();
  TestSelfTime();
  TestSeedDeterminism();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
