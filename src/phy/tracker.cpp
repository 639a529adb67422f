#include "zz/phy/tracker.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "zz/common/check.h"
#include "zz/common/mathutil.h"

namespace zz::phy {

ChunkDecoder::ChunkDecoder(TrackingGains gains, std::size_t interp_half_width)
    : gains_(gains), hw_(interp_half_width), interp_(interp_half_width) {
  // decode() partitions chunks into gains_.block-sized tracking blocks; a
  // zero block size would divide by zero there, and interpolation needs at
  // least one tap on each side of the sample.
  ZZ_CHECK_GT(gains_.block, 0u);
  ZZ_CHECK_GT(hw_, 0u);
}

void ChunkDecoder::raw_block(const CVec& buf, std::ptrdiff_t origin,
                             std::ptrdiff_t m0, std::ptrdiff_t m1,
                             const LinkEstimate& est, CVec& z) const {
  ZZ_DCHECK_LE(m0, m1);  // a reversed range would wrap the size below
  const auto n = static_cast<std::size_t>(m1 - m0);
  z.resize(n);
  // Packet-relative sample time of each symbol (2 samples/symbol, §5.1c),
  // one block interpolation pass, then per-symbol de-rotation and gain
  // normalization.
  const auto& p = est.params;
  // A timing estimate driven non-finite by hostile samples reaches no
  // sample; it must not reach the interpolator's index cast either.
  if (!std::isfinite(p.mu) || !std::isfinite(p.drift)) {
    std::fill(z.begin(), z.end(), cplx{0.0, 0.0});
    return;
  }
  thread_local std::vector<double> rel, pos;
  rel.resize(n);
  pos.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto k = static_cast<double>(m0 + static_cast<std::ptrdiff_t>(j));
    rel[j] = chan::kSps * k * (1.0 + p.drift) + p.mu;
    pos[j] = static_cast<double>(origin) + rel[j];
  }
  interp_.at_batch(buf, {pos.data(), n}, z.data());
  const cplx h = p.h;
  const double hn = std::norm(h);
  for (std::size_t j = 0; j < n; ++j) {
    const double phi = -kTwoPi * p.freq_offset * rel[j];
    const cplx derot = z[j] * cplx{std::cos(phi), std::sin(phi)};
    z[j] = hn > 1e-18 ? derot * std::conj(h) / hn : derot;
  }
}

ChunkDecoder::Result ChunkDecoder::decode(const CVec& buf,
                                          std::ptrdiff_t origin,
                                          std::size_t k0, std::size_t k1,
                                          std::span<const SymbolSpec> specs,
                                          LinkEstimate& est,
                                          bool backward) const {
  if (k1 < k0) throw std::invalid_argument("ChunkDecoder: k1 < k0");
  const std::size_t n = k1 - k0;
  if (specs.size() < n)
    throw std::invalid_argument("ChunkDecoder: specs shorter than range");

  Result out;
  out.soft.assign(n, cplx{});
  out.decided.assign(n, cplx{});
  if (n == 0) return out;

  // Modulators are immutable after construction; build the table once per
  // process instead of once per chunk decode.
  static const Modulator mods[4] = {Modulator(Modulation::BPSK),
                                    Modulator(Modulation::QPSK),
                                    Modulator(Modulation::QAM16),
                                    Modulator(Modulation::QAM64)};
  auto mod_of = [&](std::size_t i) -> const Modulator& {
    return mods[static_cast<std::size_t>(specs[i].mod)];
  };

  // Margin for the equalizer's non-causal taps: raw symbols just outside the
  // chunk. The ZigZag scheduler guarantees those positions are clean.
  const std::size_t guard =
      std::max(est.equalizer.pre(), est.equalizer.post());

  const std::size_t nblocks = (n + gains_.block - 1) / gains_.block;
  double resid_acc = 0.0;
  std::size_t resid_cnt = 0;

  // Block-decode workspaces, allocated once per decode and reused across
  // blocks and passes (resize within capacity after the first block).
  CVec z, zeq, dec;

  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    const std::size_t b = backward ? nblocks - 1 - bi : bi;
    const std::size_t bk0 = k0 + b * gains_.block;
    const std::size_t bk1 = std::min(k1, bk0 + gains_.block);
    ZZ_DCHECK_LT(bk0, bk1);  // nblocks covers [k0, k1) with no empty block
    const std::size_t bn = bk1 - bk0;

    // Two passes: measure errors with the current estimate, correct, and
    // re-slice with the corrected estimate.
    for (int pass = 0; pass < 2; ++pass) {
      // Raw (pre-equalizer) symbols for the block plus equalizer margin,
      // fetched through the block interpolation engine.
      const std::ptrdiff_t m0 = static_cast<std::ptrdiff_t>(bk0) -
                                static_cast<std::ptrdiff_t>(guard);
      const std::ptrdiff_t m1 =
          static_cast<std::ptrdiff_t>(bk1) + static_cast<std::ptrdiff_t>(guard);
      raw_block(buf, origin, m0, m1, est, z);

      // Equalize and slice the block.
      zeq.resize(bn);
      dec.resize(bn);
      for (std::size_t i = 0; i < bn; ++i) {
        const std::size_t k = bk0 + i;
        const cplx v = est.equalizer.at(
            z, static_cast<std::ptrdiff_t>(k) - m0);
        zeq[i] = v;
        const auto& spec = specs[k - k0];
        dec[i] = spec.pilot ? *spec.pilot
                            : mod_of(k - k0).nearest_point(v);
      }

      if (pass == 1 || !gains_.enabled) {
        // Final pass: emit and accumulate the noise estimate.
        for (std::size_t i = 0; i < bn; ++i) {
          out.soft[bk0 + i - k0] = zeq[i];
          out.decided[bk0 + i - k0] = dec[i];
          resid_acc += std::norm(zeq[i] - dec[i]);
          ++resid_cnt;
        }
        break;
      }

      // --- Tracking (decision-directed, per block) ---
      cplx corr{0.0, 0.0};
      double dpow = 0.0;
      for (std::size_t i = 0; i < bn; ++i) {
        corr += zeq[i] * std::conj(dec[i]);
        dpow += std::norm(dec[i]);
      }
      if (dpow < 1e-12) break;

      const double phase_err = std::arg(corr);
      const double amp_ratio = std::abs(corr) / dpow;

      // Timing error via the derivative of the symbol waveform (a
      // Mueller-and-Müller flavour, §4.2.4c footnote). Sampling early by δ
      // (μ̂ < μ) leaves residual z - d ≈ -δ·s'(t_k), and for the half-band
      // pulse s'(t_k) ∝ d[k+1] - d[k-1]; project the residual onto the
      // slope to read -δ.
      double terr_num = 0.0, terr_den = 0.0;
      if (bn >= 3) {
        for (std::size_t i = 1; i + 1 < bn; ++i) {
          const cplx slope = 0.5 * (dec[i + 1] - dec[i - 1]);
          terr_num += std::real(std::conj(slope) * (zeq[i] - dec[i]));
          terr_den += std::norm(slope);
        }
      } else if (bn == 2) {
        // Degenerate short block (a tail chunk): the central-difference
        // loop above is empty for bn <= 2, which used to freeze μ̂ while
        // phase/amplitude corrections still applied. Use the one-sided
        // difference as the slope at both symbols so short chunks track
        // timing too. (bn == 1 carries no slope information at all; μ̂ is
        // legitimately left untouched there.)
        const cplx slope = dec[1] - dec[0];
        terr_num += std::real(std::conj(slope) * (zeq[0] - dec[0]));
        terr_num += std::real(std::conj(slope) * (zeq[1] - dec[1]));
        terr_den += 2.0 * std::norm(slope);
      }
      const double timing_err = terr_den > 1e-9 ? -terr_num / terr_den : 0.0;

      // Apply the corrections.
      auto& p = est.params;
      const double dphi = gains_.phase * phase_err;
      p.h *= cplx{std::cos(dphi), std::sin(dphi)};
      const double damp = 1.0 + gains_.amplitude * (amp_ratio - 1.0);
      p.h *= std::clamp(damp, 0.5, 2.0);
      // Frequency: phase error accrued over one block of symbols
      // (block·kSps samples). De-rotation is referenced to the packet
      // start, so a frequency bump Δf would retroactively rotate the
      // current position by 2π·Δf·rel — rotate ĥ to keep the phase
      // continuous here and let the new slope act only going forward.
      const double df =
          gains_.freq * phase_err /
          (kTwoPi * chan::kSps * static_cast<double>(gains_.block));
      const double df_applied = backward ? -df : df;
      p.freq_offset += df_applied;
      const double rel_center =
          chan::kSps * (static_cast<double>(bk0) +
                        0.5 * static_cast<double>(bn)) *
              (1.0 + p.drift) +
          p.mu;
      const double comp = -kTwoPi * df_applied * rel_center;
      p.h *= cplx{std::cos(comp), std::sin(comp)};
      p.mu += std::clamp(gains_.timing * timing_err, -0.1, 0.1);
    }
  }

  out.noise_var = resid_cnt ? resid_acc / static_cast<double>(resid_cnt) : 0.0;
  // Seed the slicer-noise EWMA from the first measurement: the pre-decode
  // noise_var is a prior of a different scale, and blending the first
  // measurement into it at 10% weight biased early chunks' noise ranking.
  if (!est.noise_seeded) {
    est.noise_var = out.noise_var;
    est.noise_seeded = true;
  } else {
    est.noise_var = 0.9 * est.noise_var + 0.1 * out.noise_var;
  }
  return out;
}

}  // namespace zz::phy
