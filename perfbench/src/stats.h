// Percentile discipline for the benchmark's timings.
//
// summarize() reports the median and the highest percentile the sample
// supports: one with at least ten samples beyond it.  p99 therefore
// needs 1000 samples; a percentile the sample cannot support is
// reported as unresolved instead of as a number.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  /// Highest supported percentile among 99.9/99/95/90/75 (0 = none).
  double top_pct = 0.0;
  double top_value = 0.0;

  /// True when percentile `pct` has at least ten samples beyond it.
  bool supports(double pct) const;
};

/// Linear-interpolated percentile of `sorted` (ascending), pct in [0,100].
double percentile_sorted(const std::vector<double>& sorted, double pct);

Summary summarize(std::vector<double> values);

/// Percentile `pct`, or throws when the sample cannot support it.
double resolved_percentile(std::vector<double> values, double pct,
                           const std::string& what);

double median(std::vector<double> values);

/// "name: p50=... unit, p99.9=... unit (n=...)" for the run log.
std::string describe(const std::string& name, const std::string& unit,
                     const std::vector<double>& values);

}  // namespace perfbench
