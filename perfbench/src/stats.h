/// \file
/// Order statistics shared by the benchmark's reports.

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile \p q in [0, 1] (0 on an empty sample).
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
