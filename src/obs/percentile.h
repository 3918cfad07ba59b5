// Nearest-rank percentile, the one quantile convention of the repo.
//
// obs::Histogram::snapshot, which serve's LatencyStats are read from, uses
// nearest-rank (rank ceil(q*n), 1-based): the smallest sample such that at
// least a fraction q of the distribution is at or below it. This header is
// the single implementation, so identical samples yield bit-identical
// percentiles everywhere.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace voltage::obs {

// `sorted` must be ascending and non-empty; q in [0, 1].
[[nodiscard]] inline double nearest_rank(const std::vector<double>& sorted,
                                         double q) {
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace voltage::obs
