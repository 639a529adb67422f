#include "zz/signal/correlate.h"

#include <algorithm>
#include <cmath>

#include "zz/common/check.h"
#include "zz/common/mathutil.h"

namespace zz::sig {
namespace {

// FFT block size: 4x the reference rounded up to a power of two keeps the
// valid fraction of each block (N - M + 1)/N around 3/4.
std::size_t pick_fft_size(std::size_t ref_len) {
  return std::max<std::size_t>(64, Fft::next_pow2(4 * ref_len));
}

}  // namespace

cplx correlation_at(const CVec& reference, const CVec& stream,
                    std::size_t offset, double freq_offset_cps) {
  cplx acc{0.0, 0.0};
  if (freq_offset_cps == 0.0) {
    for (std::size_t k = 0; k < reference.size(); ++k) {
      const std::size_t idx = offset + k;
      if (idx >= stream.size()) break;
      acc += std::conj(reference[k]) * stream[idx];
    }
    return acc;
  }
  // De-rotation via a unit rotor instead of per-sample sin/cos: the phase
  // step is constant, so one transcendental pair serves the whole window.
  const double dphi = -kTwoPi * freq_offset_cps;
  const cplx step{std::cos(dphi), std::sin(dphi)};
  cplx rot{1.0, 0.0};
  for (std::size_t k = 0; k < reference.size(); ++k) {
    const std::size_t idx = offset + k;
    if (idx >= stream.size()) break;
    acc += std::conj(reference[k]) * stream[idx] * rot;
    rot *= step;
  }
  return acc;
}

CVec sliding_correlation_naive(const CVec& reference, const CVec& stream,
                               double freq_offset_cps) {
  if (stream.size() < reference.size() || reference.empty()) return {};
  const std::size_t positions = stream.size() - reference.size() + 1;
  CVec out(positions);
  for (std::size_t d = 0; d < positions; ++d)
    out[d] = correlation_at(reference, stream, d, freq_offset_cps);
  return out;
}

CVec sliding_correlation(const CVec& reference, const CVec& stream,
                         double freq_offset_cps) {
  if (stream.size() < reference.size() || reference.empty()) return {};
  const std::size_t positions = stream.size() - reference.size() + 1;
  if (positions < kSlidingNaiveCutoff)
    return sliding_correlation_naive(reference, stream, freq_offset_cps);
  SlidingCorrelator corr(reference);
  return corr.correlate(stream, freq_offset_cps);
}

SlidingCorrelator::SlidingCorrelator(CVec reference)
    : ref_(std::move(reference)),
      fft_(pick_fft_size(std::max<std::size_t>(ref_.size(), 1))) {
  for (const cplx& v : ref_) eref_ += std::norm(v);
  valid_ = fft_.size() - ref_.size() + 1;
}

void SlidingCorrelator::prepare(const CVec& stream) {
  kernel_ready_ = false;  // hypotheses must re-pair with the new stream
  kernel_freq_ = 0.0;
  streaming_ = false;  // batch preparation supersedes any appended stream
  positions_ = stream.size() >= ref_.size() && !ref_.empty()
                   ? stream.size() - ref_.size() + 1
                   : 0;
  if (positions_ == 0) {
    nblocks_ = 0;
    return;
  }
  const std::size_t n = fft_.size();
  // Output block b covers alignments [b·valid_, b·valid_ + valid_); its
  // input segment is stream[b·valid_ .. b·valid_ + n), zero-padded at the
  // tail end.
  nblocks_ = (positions_ + valid_ - 1) / valid_;
  if (blocks_.size() < nblocks_) blocks_.resize(nblocks_);
  for (std::size_t b = 0; b < nblocks_; ++b) {
    CVec& blk = blocks_[b];
    blk.assign(n, cplx{0.0, 0.0});
    const std::size_t s0 = b * valid_;
    const std::size_t copy = std::min(n, stream.size() - s0);
    std::copy(stream.begin() + static_cast<std::ptrdiff_t>(s0),
              stream.begin() + static_cast<std::ptrdiff_t>(s0 + copy),
              blk.begin());
    fft_.forward(blk.data());
  }
}

void SlidingCorrelator::ensure_kernel(double freq_offset_cps) {
  if (kernel_ready_ && kernel_freq_ == freq_offset_cps) return;
  // Γ'(Δ) = Σ_k conj(r[k]·e^{+j2πk·δf}) · y[Δ+k]: the hypothesis folds
  // into the reference, so the stream transforms stay shared. Packed as
  // a convolution kernel g[m-1-k] = conj(r'[k]).
  const std::size_t n = fft_.size();
  const std::size_t m = ref_.size();
  kernel_.assign(n, cplx{0.0, 0.0});
  const double dphi = kTwoPi * freq_offset_cps;
  const cplx step{std::cos(dphi), std::sin(dphi)};
  cplx rot{1.0, 0.0};
  for (std::size_t k = 0; k < m; ++k) {
    kernel_[m - 1 - k] = std::conj(ref_[k] * rot);
    rot *= step;
  }
  fft_.forward(kernel_.data());
  kernel_freq_ = freq_offset_cps;
  kernel_ready_ = true;
}

void SlidingCorrelator::correlate(double freq_offset_cps, CVec& out) {
  out.assign(positions_, cplx{0.0, 0.0});
  if (positions_ == 0) return;
  const std::size_t n = fft_.size();
  const std::size_t m = ref_.size();

  ensure_kernel(freq_offset_cps);

  work_.resize(n);
  for (std::size_t b = 0; b < nblocks_; ++b) {
    const CVec& blk = blocks_[b];
    for (std::size_t i = 0; i < n; ++i) work_[i] = blk[i] * kernel_[i];
    fft_.inverse(work_.data());
    const std::size_t d0 = b * valid_;
    const std::size_t count = std::min(valid_, positions_ - d0);
    // Valid (non-circular) convolution outputs sit at [m-1, n).
    for (std::size_t i = 0; i < count; ++i) out[d0 + i] = work_[m - 1 + i];
  }
}

CVec SlidingCorrelator::correlate(const CVec& stream, double freq_offset_cps) {
  prepare(stream);
  CVec out;
  correlate(freq_offset_cps, out);
  return out;
}

void SlidingCorrelator::begin_stream() {
  streaming_ = true;
  stream_len_ = 0;
  nfinal_ = 0;
  tail_.clear();
  // Batch state is superseded; a stale prepare() must not answer queries.
  positions_ = 0;
  nblocks_ = 0;
}

void SlidingCorrelator::extend(const cplx* data, std::size_t count) {
  ZZ_CHECK(streaming_) << " — call begin_stream() before extend()";
  tail_.insert(tail_.end(), data, data + count);
  stream_len_ += count;
  const std::size_t n = fft_.size();
  // Finalize every block whose full n-sample input segment now exists.
  // Block b covers stream[b·valid_, b·valid_ + n); tail_ holds
  // stream[nfinal_·valid_, stream_len_), so a finalization consumes the
  // first n tail samples and then slides the tail by valid_.
  while (tail_.size() >= n) {
    if (sblocks_.size() <= nfinal_) sblocks_.emplace_back();
    CVec& blk = sblocks_[nfinal_];
    blk.assign(tail_.begin(), tail_.begin() + static_cast<std::ptrdiff_t>(n));
    fft_.forward(blk.data());
    ++nfinal_;
    tail_.erase(tail_.begin(), tail_.begin() + static_cast<std::ptrdiff_t>(valid_));
  }
}

std::size_t SlidingCorrelator::stream_positions() const {
  return stream_len_ >= ref_.size() && !ref_.empty()
             ? stream_len_ - ref_.size() + 1
             : 0;
}

std::size_t SlidingCorrelator::final_positions() const {
  return std::min(nfinal_ * valid_, stream_positions());
}

void SlidingCorrelator::correlate_range(double freq_offset_cps,
                                        std::size_t from, std::size_t to,
                                        CVec& out) {
  ZZ_CHECK(streaming_) << " — call begin_stream()/extend() first";
  ZZ_CHECK_LE(from, to);
  ZZ_CHECK_LE(to, stream_positions());
  out.assign(to - from, cplx{0.0, 0.0});
  if (from == to) return;
  ensure_kernel(freq_offset_cps);
  const std::size_t n = fft_.size();
  const std::size_t m = ref_.size();
  work_.resize(n);
  const std::size_t b0 = from / valid_;
  const std::size_t b1 = (to - 1) / valid_;
  for (std::size_t b = b0; b <= b1; ++b) {
    const cplx* blk;
    if (b < nfinal_) {
      blk = sblocks_[b].data();
    } else {
      // Partial tail block: zero-padded and transformed per query — the
      // same segment content a batch prepare() of the current stream would
      // build, so results match the contiguous route bit for bit.
      const std::size_t s0 = b * valid_;
      const std::size_t t0 = s0 - nfinal_ * valid_;
      const std::size_t copy = std::min(n, stream_len_ - s0);
      tailblk_.assign(n, cplx{0.0, 0.0});
      std::copy(tail_.begin() + static_cast<std::ptrdiff_t>(t0),
                tail_.begin() + static_cast<std::ptrdiff_t>(t0 + copy),
                tailblk_.begin());
      fft_.forward(tailblk_.data());
      blk = tailblk_.data();
    }
    for (std::size_t i = 0; i < n; ++i) work_[i] = blk[i] * kernel_[i];
    fft_.inverse(work_.data());
    const std::size_t d0 = b * valid_;
    const std::size_t lo = std::max(from, d0);
    const std::size_t hi = std::min(to, d0 + valid_);
    // Valid (non-circular) convolution outputs sit at [m-1, n).
    for (std::size_t d = lo; d < hi; ++d)
      out[d - from] = work_[m - 1 + (d - d0)];
  }
}

std::vector<double> windowed_energy(const CVec& stream, std::size_t window) {
  if (window == 0 || stream.size() < window) return {};
  const std::size_t positions = stream.size() - window + 1;
  std::vector<double> out(positions);
  // Running sum, re-anchored every block so the add/subtract cancellation
  // error cannot accumulate across a long stream.
  constexpr std::size_t kAnchor = 2048;
  double acc = 0.0;
  for (std::size_t k = 0; k < window; ++k) acc += std::norm(stream[k]);
  out[0] = acc;
  for (std::size_t d = 1; d < positions; ++d) {
    if (d % kAnchor == 0) {
      acc = 0.0;
      for (std::size_t k = 0; k < window; ++k) acc += std::norm(stream[d + k]);
    } else {
      acc += std::norm(stream[d + window - 1]) - std::norm(stream[d - 1]);
    }
    out[d] = acc;
  }
  return out;
}

namespace {

template <typename Mag>
std::vector<std::size_t> find_peaks_impl(std::size_t n, Mag&& mag,
                                         double threshold,
                                         std::size_t min_separation) {
  std::vector<std::size_t> peaks;
  for (std::size_t i = 0; i < n; ++i) {
    const double m = mag(i);
    if (m < threshold) continue;
    // Local maximum within the separation guard.
    bool is_max = true;
    const std::size_t lo = i > min_separation ? i - min_separation : 0;
    const std::size_t hi = std::min(n - 1, i + min_separation);
    for (std::size_t j = lo; j <= hi && is_max; ++j)
      if (mag(j) > m) is_max = false;
    if (!is_max) continue;
    if (!peaks.empty() && i - peaks.back() < min_separation) {
      if (m > mag(peaks.back())) peaks.back() = i;
      continue;
    }
    peaks.push_back(i);
  }
  return peaks;
}

}  // namespace

std::vector<std::size_t> find_peaks(const CVec& corr, double threshold,
                                    std::size_t min_separation) {
  return find_peaks_impl(
      corr.size(), [&](std::size_t i) { return std::abs(corr[i]); }, threshold,
      min_separation);
}

std::vector<std::size_t> find_peaks(const std::vector<double>& metric,
                                    double threshold,
                                    std::size_t min_separation) {
  return find_peaks_impl(
      metric.size(), [&](std::size_t i) { return metric[i]; }, threshold,
      min_separation);
}

double parabolic_peak_offset(const CVec& corr, std::size_t peak) {
  if (peak == 0 || peak + 1 >= corr.size()) return 0.0;
  const double ym = std::abs(corr[peak - 1]);
  const double y0 = std::abs(corr[peak]);
  const double yp = std::abs(corr[peak + 1]);
  const double denom = ym - 2.0 * y0 + yp;
  if (std::abs(denom) < 1e-12) return 0.0;
  double d = 0.5 * (ym - yp) / denom;
  if (d > 0.5) d = 0.5;
  if (d < -0.5) d = -0.5;
  return d;
}

}  // namespace zz::sig
