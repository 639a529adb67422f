// Receiver-side link state and the chunk decoder ("the black box").
//
// ZigZag's contract with the decoder (§4.2.3a) is narrow: given a stretch of
// samples that is free of interference, decode the symbols, tracking phase
// (§4.2.4b), sampling offset (§4.2.4c) and ISI (§4.2.4d) as any standard
// 802.11 receiver would. `ChunkDecoder` is that black box. It holds no
// ZigZag logic; the "Current 802.11" baseline uses the very same object.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "zz/chan/channel.h"
#include "zz/common/types.h"
#include "zz/phy/modulation.h"
#include "zz/signal/fir.h"
#include "zz/signal/interp.h"

namespace zz::phy {

/// What the receiver believes about one sender's signal within one
/// reception. Same shape as the true channel (chan::ChannelParams) plus the
/// decoder-side equalizer and noise estimate. ZigZag keeps one LinkEstimate
/// per (packet, collision) pair and both decodes and re-encodes through it.
struct LinkEstimate {
  chan::ChannelParams params;  ///< ĥ, δf̂, μ̂, drift̂, ISI-tap estimate
  sig::Fir equalizer;          ///< LS inverse of params.isi
  double noise_var = 1.0;      ///< complex noise variance at the slicer input
  /// True once noise_var holds a slicer measurement. Before the first chunk
  /// decode, noise_var carries a prior of a different scale (the buffer
  /// noise floor, or the 1.0 default); the decoder's EWMA must seed from
  /// its first measurement instead of blending into that prior, which
  /// biased early chunks' noise ranking (and MRC/best-link selection) low.
  bool noise_seeded = false;
};

/// Loop gains of the decision-directed trackers. Defaults are stable from
/// 5 dB (the lowest SNR in Fig 5-3) up.
struct TrackingGains {
  std::size_t block = 16;   ///< symbols per tracking block
  double phase = 0.5;       ///< first-order phase correction gain
  double freq = 0.03;       ///< second-order (frequency) gain
  double amplitude = 0.2;   ///< gain magnitude correction
  double timing = 0.15;     ///< sampling-offset correction gain
  bool enabled = true;      ///< master switch (Table 5.1 ablates this)
};

/// Per-symbol decode directive: which constellation the symbol uses, and —
/// for preamble symbols — its known value (used as a pilot, never sliced).
struct SymbolSpec {
  Modulation mod = Modulation::BPSK;
  std::optional<cplx> pilot;
};

/// Decodes an interference-free range of one packet's symbols from a sample
/// buffer, mutating the caller's LinkEstimate as it tracks.
class ChunkDecoder {
 public:
  ChunkDecoder(TrackingGains gains = {}, std::size_t interp_half_width = 8);

  struct Result {
    CVec soft;     ///< equalized complex symbol estimates (one per symbol)
    CVec decided;  ///< nearest constellation points / pilot values
    double noise_var = 0.0;  ///< mean |soft - decided|^2 over the chunk
  };

  /// Decode symbols [k0, k1) of a packet whose symbol 0 arrives at buffer
  /// time `origin + est.params.mu`. `specs[k - k0]` describes symbol k.
  /// If `backward` is true, tracking blocks are processed from the end of
  /// the range toward the start (for ZigZag's backward pass, §4.3b).
  Result decode(const CVec& buf, std::ptrdiff_t origin, std::size_t k0,
                std::size_t k1, std::span<const SymbolSpec> specs,
                LinkEstimate& est, bool backward = false) const;

  const TrackingGains& gains() const { return gains_; }
  std::size_t interp_half_width() const { return hw_; }

 private:
  /// Interpolated, de-rotated, gain-normalized samples for the symbol index
  /// range [m0, m1) into `z`, fetched in one SincInterpolator::at_batch
  /// pass per tracking block.
  void raw_block(const CVec& buf, std::ptrdiff_t origin, std::ptrdiff_t m0,
                 std::ptrdiff_t m1, const LinkEstimate& est, CVec& z) const;

  TrackingGains gains_;
  std::size_t hw_;
  sig::SincInterpolator interp_;
};

}  // namespace zz::phy
