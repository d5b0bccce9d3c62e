#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {
constexpr double kCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0};
}

bool Summary::supports(double pct) const {
  return static_cast<double>(n) * (100.0 - pct) / 100.0 >= 10.0 - 1e-9;
}

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double pos = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = percentile_sorted(values, 50.0);
  for (double pct : kCandidates) {
    if (s.supports(pct)) {
      s.top_pct = pct;
      s.top_value = percentile_sorted(values, pct);
      break;
    }
  }
  return s;
}

double resolved_percentile(std::vector<double> values, double pct,
                           const std::string& what) {
  Summary s;
  s.n = values.size();
  if (!s.supports(pct)) {
    throw std::runtime_error(what + ": p" + std::to_string(pct) +
                             " unresolved with n=" + std::to_string(s.n));
  }
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, pct);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 50.0);
}

std::string describe(const std::string& name, const std::string& unit,
                     const std::vector<double>& values) {
  const Summary s = summarize(values);
  char buf[256];
  if (s.n == 0) {
    std::snprintf(buf, sizeof buf, "%s: no samples", name.c_str());
  } else if (s.top_pct == 0.0) {
    std::snprintf(buf, sizeof buf,
                  "%s: p50=%.4g %s, tail percentiles unresolved (n=%zu)",
                  name.c_str(), s.median, unit.c_str(), s.n);
  } else {
    std::snprintf(buf, sizeof buf, "%s: p50=%.4g %s, p%g=%.4g %s (n=%zu)",
                  name.c_str(), s.median, unit.c_str(), s.top_pct,
                  s.top_value, unit.c_str(), s.n);
  }
  return buf;
}

}  // namespace perfbench
