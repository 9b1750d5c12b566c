#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace perfbench {

using nimble::runtime::NDArray;

void Fatal(const char* what) {
  std::fprintf(stderr, "perfbench: fatal: %s\n", what);
  std::fflush(stdout);
  std::_Exit(3);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool BitIdentical(const NDArray& a, const NDArray& b) {
  return a.shape() == b.shape() && a.nbytes() == b.nbytes() &&
         std::memcmp(a.raw_data(), b.raw_data(), a.nbytes()) == 0;
}

double MaxAbsDiff(const NDArray& a, const NDArray& b) {
  if (a.shape() != b.shape()) return std::numeric_limits<double>::infinity();
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  double worst = 0.0;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    double d = std::fabs(static_cast<double>(pa[i]) - pb[i]);
    if (!(d <= worst)) worst = d;  // also propagates NaN
  }
  return worst;
}

std::vector<nimble::runtime::ObjectRef> LSTMArgs(const NDArray& x,
                                                 int64_t len) {
  return {nimble::runtime::MakeTensor(x),
          nimble::runtime::MakeTensor(NDArray::Scalar<int64_t>(len))};
}

}  // namespace perfbench
