// Band-limited fractional-delay interpolation (§4.2.3b).
//
// The paper reconstructs the image of a decoded chunk at the receiver's
// sampling phase by Nyquist interpolation, "approximated by taking the
// summation over few symbols (about 8 symbols) in the neighborhood of n".
// `SincInterpolator` implements exactly that: a windowed-sinc kernel with a
// configurable half-width (default 8 one-sided taps, 16 total).
#pragma once

#include <cstddef>
#include <span>

#include "zz/common/types.h"

namespace zz::sig {

/// Windowed-sinc interpolator over a complex sample stream.
class SincInterpolator {
 public:
  /// `half_width`: number of neighbouring samples used on each side.
  explicit SincInterpolator(std::size_t half_width = 8);

  std::size_t half_width() const { return half_width_; }

  /// Value of the band-limited signal underlying `x` at continuous position
  /// `t` (in samples). Positions outside the stream see implicit zeros;
  /// near the stream edges the truncated kernel window is renormalized by
  /// its summed weight, so edge samples keep interior gain.
  cplx at(const CVec& x, double t) const;

  /// Block evaluation of a run of positions in one pass: out[j] is the
  /// value at t[j], bit-identical to calling at(x, t[j]) per position. The
  /// per-call kernel recurrence setup that at() redoes per sample is
  /// hoisted across the whole run — this is the decoder's per-tracking-
  /// block fetch path (ChunkDecoder::raw_block supplies the positions).
  void at_batch(const CVec& x, std::span<const double> t, cplx* out) const;

  /// Resample the whole stream at positions t_n = n + mu + drift*n, i.e. a
  /// constant fractional offset plus a linear clock drift — the sampling
  /// model of §3.1.2. Output has the same length as the input.
  CVec shift(const CVec& x, double mu, double drift_per_sample = 0.0) const;

 private:
  /// One interpolated value with the recurrence constants precomputed.
  cplx point(const CVec& x, double t, double cd, double sd) const;
  double kernel(double x) const;  ///< Hann-windowed sinc.
  std::size_t half_width_;
};

}  // namespace zz::sig
