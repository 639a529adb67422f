#include "zz/zigzag/matcher.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <optional>

namespace zz::zigzag {
namespace {

constexpr std::size_t kMinSpan = 64;  // not enough overlap to judge below

// Index of start + skip in a buffer of `size` samples, or nullopt when it
// falls outside [0, size). The range is checked before adding, so a start
// near either end of ptrdiff_t cannot overflow.
std::optional<std::size_t> window_start(std::size_t size,
                                        std::ptrdiff_t start,
                                        std::size_t skip) {
  std::size_t at;
  if (start >= 0) {
    const auto s = static_cast<std::size_t>(start);
    if (s >= size || skip >= size - s) return std::nullopt;
    at = s + skip;
  } else {
    // |start|, computed without negating PTRDIFF_MIN.
    const std::size_t back = static_cast<std::size_t>(-(start + 1)) + 1;
    if (back > skip) return std::nullopt;
    at = skip - back;
    if (at >= size) return std::nullopt;
  }
  return at;
}

// The §4.2.2 score over `span` aligned samples of the two receptions.
MatchScore correlate(const cplx* a, const cplx* b, std::size_t span,
                     double threshold) {
  MatchScore out;
  if (span < kMinSpan) return out;
  cplx acc{0.0, 0.0};
  double e1 = 0.0, e2 = 0.0;
  for (std::size_t i = 0; i < span; ++i) {
    acc += a[i] * std::conj(b[i]);
    e1 += std::norm(a[i]);
    e2 += std::norm(b[i]);
  }
  if (e1 < 1e-12 || e2 < 1e-12) return out;
  const double score = std::abs(acc) / std::sqrt(e1 * e2);
  if (!std::isfinite(score)) return out;  // NaN/Inf samples in a window
  out.score = score;
  out.matched = score >= threshold;
  return out;
}

}  // namespace

MatchScore match_same_packet(const CVec& rx1, std::ptrdiff_t start1,
                             const CVec& rx2, std::ptrdiff_t start2,
                             const MatchConfig& cfg) {
  const auto s1 = window_start(rx1.size(), start1, cfg.skip);
  const auto s2 = window_start(rx2.size(), start2, cfg.skip);
  if (!s1 || !s2) return {};
  const std::size_t span =
      std::min({cfg.span, rx1.size() - *s1, rx2.size() - *s2});
  return correlate(rx1.data() + *s1, rx2.data() + *s2, span, cfg.threshold);
}

PacketMatcher::PacketMatcher(MatchConfig cfg) : cfg_(cfg) {}

bool PacketMatcher::prepare(const CVec& rx2, std::ptrdiff_t start2) {
  window_.clear();
  const auto s2 = window_start(rx2.size(), start2, cfg_.skip);
  if (!s2) return false;
  const std::size_t span = std::min(cfg_.span, rx2.size() - *s2);
  if (span < kMinSpan) return false;
  const auto first = rx2.begin() + static_cast<std::ptrdiff_t>(*s2);
  window_.assign(first, first + static_cast<std::ptrdiff_t>(span));
  return true;
}

MatchScore PacketMatcher::score(const CVec& rx1, std::ptrdiff_t start1) const {
  if (window_.empty()) return {};
  const auto s1 = window_start(rx1.size(), start1, cfg_.skip);
  if (!s1) return {};
  const std::size_t span = std::min(window_.size(), rx1.size() - *s1);
  return correlate(rx1.data() + *s1, window_.data(), span, cfg_.threshold);
}

}  // namespace zz::zigzag
