// Seeded input generation for every workload. The program under test only
// ever sees what these functions produce; the same seed gives the same
// inputs and arrival schedule, a different seed gives different ones.
#pragma once

#include <cstdint>
#include <vector>

#include "src/support/rng.h"

namespace perfbench {

/// An independent random stream for (`seed`, `tag`): each input family
/// draws from its own stream, so adding draws to one family never shifts
/// another.
nimble::support::Rng Stream(uint64_t seed, uint64_t tag);

/// The production mix: 8 recurring exact lengths with fixed traffic
/// shares, several of them sharing one scheduler bucket.
const std::vector<int64_t>& ProdMixHotLengths();
/// `count` lengths of the production mix in shuffled order, each length
/// exactly at its share (rounded), so a seed changes the order of requests
/// but not the mix.
std::vector<int64_t> ProdMixLengths(nimble::support::Rng& rng, int count);

/// Arrival offsets (seconds from the rung start) of a Poisson process at
/// `rate_rps` over `duration_s`, drawn stratified: the rate x duration
/// exponential gaps are one draw from each of that many equal-probability
/// strata, in shuffled order, scaled to the window. Every seed then offers
/// the nominal number of requests with the same gap distribution; seeds
/// differ in the order of the gaps, which is what makes arrivals bursty.
std::vector<double> PoissonArrivals(nimble::support::Rng& rng,
                                    double rate_rps, double duration_s);

/// Short/long mix: exactly 70% (rounded) short requests of 4-8 steps and
/// 30% long of 48-64, in shuffled order.
std::vector<int64_t> ShortLongLengths(nimble::support::Rng& rng, int count);

}  // namespace perfbench
