#include "zz/zigzag/algebraic_mp.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "zz/chan/channel.h"
#include "zz/common/check.h"
#include "zz/common/mathutil.h"
#include "zz/phy/preamble.h"
#include "zz/phy/scrambler.h"
#include "zz/phy/tracker.h"
#include "zz/signal/interp.h"
#include "zz/zigzag/equation_system.h"

namespace zz::zigzag {
namespace {

using phy::Modulation;

cplx rot(double cycles) {
  const double phi = kTwoPi * cycles;
  return cplx{std::cos(phi), std::sin(phi)};
}

struct MpLink {
  bool present = false;
  std::ptrdiff_t origin = 0;
  phy::LinkEstimate est;
};

struct MpPacket {
  std::size_t len = 0;
  std::optional<phy::FrameHeader> header;
  phy::FrameLayout layout{};
  Modulation body_mod = Modulation::BPSK;
  int profile_index = -1;
  CVec decided;
  std::vector<std::uint8_t> known;
  /// Header symbols re-encoded per retry-flag variant (§4.2.2), for
  /// substituting into collisions that carry the other variant.
  CVec hdr_variant[2];
  /// Retry flag of the collision the retry/HCS header symbols were last
  /// solved against (-1 = untouched). Those positions genuinely differ
  /// between transmissions, so a decided header assembled from mixed
  /// sources — or from an elimination, whose two equations carry the two
  /// variants — needs them rebuilt deterministically before parsing.
  int hdr_variant_hint = -1;
};

class MpEngine {
 public:
  MpEngine(std::span<const CollisionInput> collisions,
           std::span<const phy::SenderProfile> profiles,
           std::size_t num_packets, std::size_t packet_syms,
           const AlgebraicMpOptions& opt, const phy::ReceiverConfig& rxcfg)
      : opt_(opt),
        rxcfg_(rxcfg),
        profiles_(profiles),
        inputs_(collisions),
        C_(collisions.size()),
        P_(num_packets),
        dec_(opt.decoder_gains, opt.interp_half_width),
        interp_(opt.interp_half_width) {
    init(packet_syms);
  }

  DecodeResult run() {
    const MpPlan plan = message_passing_plan(pattern_, opt_.guard);
    for (const MpStep& step : plan.steps) {
      if (step.kind == MpStep::Kind::Peel)
        peel(step);
      else
        eliminate(step);
    }
    return finalize();
  }

 private:
  void init(std::size_t packet_syms) {
    // decode() screens empty inputs before constructing the engine.
    ZZ_CHECK_GT(C_, 0u);
    ZZ_CHECK_GT(P_, 0u);
    residual_.resize(C_);
    noise_.resize(C_);
    imgs_.assign(P_, std::vector<CVec>(C_));
    links_.assign(P_, std::vector<MpLink>(C_));
    pkts_.resize(P_);

    for (std::size_t c = 0; c < C_; ++c) {
      residual_[c] = *inputs_[c].samples;
      noise_[c] = phy::estimate_noise_floor(residual_[c]);
    }

    for (std::size_t c = 0; c < C_; ++c) {
      for (const auto& pl : inputs_[c].placements) {
        if (pl.packet >= P_)
          throw std::invalid_argument("AlgebraicMpDecoder: placement out of range");
        MpLink& l = links_[pl.packet][c];
        l.present = true;
        l.origin = pl.detection.origin;
        l.est.params.h = pl.detection.h;
        l.est.params.freq_offset = pl.detection.freq_offset;
        l.est.params.mu = pl.detection.mu;
        l.est.noise_var = noise_[c];
        MpPacket& pk = pkts_[pl.packet];
        if (pl.detection.profile_index >= 0)
          pk.profile_index = pl.detection.profile_index;
        if (pk.profile_index >= 0 &&
            static_cast<std::size_t>(pk.profile_index) < profiles_.size()) {
          const auto& prof = profiles_[static_cast<std::size_t>(pk.profile_index)];
          l.est.params.freq_offset = prof.freq_offset;
          if (!prof.isi.is_identity()) {
            l.est.params.isi = prof.isi;
            l.est.equalizer = prof.equalizer;
          }
          pk.body_mod = prof.mod;
        }
      }
    }

    // Believed packet lengths: pinned by the caller, or bounded by the
    // shortest buffer the packet appears in (the zigzag decoder's rule).
    // A packet placed in no collision at all has nothing to decode — zero
    // length, not the unbounded sentinel.
    for (std::size_t p = 0; p < P_; ++p) {
      bool present = false;
      for (std::size_t c = 0; c < C_; ++c) present |= links_[p][c].present;
      std::size_t cap = present && packet_syms ? packet_syms : 0;
      if (present && !packet_syms) {
        cap = 1u << 20;
        for (std::size_t c = 0; c < C_; ++c) {
          if (!links_[p][c].present) continue;
          const auto room = static_cast<std::ptrdiff_t>(residual_[c].size()) -
                            links_[p][c].origin - 40;
          cap = std::min(cap, static_cast<std::size_t>(
                                  std::max<std::ptrdiff_t>(room, 0) /
                                  static_cast<std::ptrdiff_t>(chan::kSps)));
        }
      }
      pkts_[p].len = cap;
      pkts_[p].decided.assign(cap, cplx{0.0, 0.0});
      pkts_[p].known.assign(cap, 0);
    }

    // The chunk-equation geometry: symbol lengths plus per-collision symbol
    // offsets (the §4.5 Pattern the planner and conditioning helpers share).
    pattern_.lengths.resize(P_);
    for (std::size_t p = 0; p < P_; ++p) pattern_.lengths[p] = pkts_[p].len;
    pattern_.collisions.resize(C_);
    for (std::size_t c = 0; c < C_; ++c)
      for (const auto& pl : inputs_[c].placements)
        pattern_.collisions[c].push_back(
            {pl.packet, static_cast<std::ptrdiff_t>(std::llround(
                            static_cast<double>(pl.detection.origin) /
                            chan::kSps))});
  }

  Modulation mod_at(std::size_t p, std::size_t k) const {
    const std::size_t body = rxcfg_.preamble_len + phy::kHeaderBits;
    return k < body ? Modulation::BPSK : pkts_[p].body_mod;
  }

  // The symbol packet p would transmit at index k as carried by collision c
  // (retry-flag header variant swapped in when it differs).
  cplx decided_at(std::size_t p, std::size_t c, std::ptrdiff_t k) const {
    const MpPacket& pk = pkts_[p];
    if (k < 0 || k >= static_cast<std::ptrdiff_t>(pk.len)) return cplx{0.0, 0.0};
    const auto ku = static_cast<std::size_t>(k);
    if (pk.header && pk.header->retry != inputs_[c].is_retransmission) {
      const std::size_t base = rxcfg_.preamble_len;
      if (ku >= base && ku < base + phy::kHeaderBits && pk.known[ku])
        return pk.hdr_variant[inputs_[c].is_retransmission ? 1 : 0][ku - base];
    }
    return pk.decided[ku];  // zero until decoded
  }

  // Substitute p's symbols [k0,k1) into every equation: render the chunk
  // through each link's channel estimate and subtract, keeping a per-link
  // image account so later decodes can add the own signal back.
  void subtract_everywhere(std::size_t p, std::size_t k0, std::size_t k1) {
    if (k1 <= k0) return;
    const MpPacket& pk = pkts_[p];
    for (std::size_t c = 0; c < C_; ++c) {
      const MpLink& l = links_[p][c];
      if (!l.present) continue;

      // ISI-filtered chunk symbols; decided neighbours just outside the
      // range contribute through the filter tails exactly as a full-packet
      // render would.
      u_.assign(pk.len, cplx{0.0, 0.0});
      const auto& isi = l.est.params.isi;
      if (isi.is_identity()) {
        for (std::size_t k = k0; k < k1; ++k)
          u_[k] = decided_at(p, c, static_cast<std::ptrdiff_t>(k));
      } else {
        const auto& taps = isi.taps();
        const auto pre = static_cast<std::ptrdiff_t>(isi.pre());
        for (std::size_t k = k0; k < k1; ++k) {
          cplx acc{0.0, 0.0};
          for (std::size_t t = 0; t < taps.size(); ++t)
            acc += taps[t] *
                   decided_at(p, c, static_cast<std::ptrdiff_t>(k) + pre -
                                        static_cast<std::ptrdiff_t>(t));
          u_[k] = acc;
        }
      }

      chan::ChannelParams params = l.est.params;
      params.isi = sig::Fir();  // applied above

      // The image only reaches the chunk's sample span plus pulse tails;
      // render, refit and subtract stay inside that window instead of
      // walking the whole collision buffer per step. img_ persists across
      // calls: samples outside the current window are never read, so only
      // the window needs re-zeroing.
      const auto nbuf = static_cast<std::ptrdiff_t>(residual_[c].size());
      const double tail =
          static_cast<double>(opt_.interp_half_width) * chan::kSps + 8.0;
      const auto lo = std::clamp<std::ptrdiff_t>(
          static_cast<std::ptrdiff_t>(std::floor(
              static_cast<double>(l.origin) +
              chan::kSps * static_cast<double>(k0) + params.mu - tail)),
          0, nbuf);
      const auto hi = std::clamp<std::ptrdiff_t>(
          static_cast<std::ptrdiff_t>(std::ceil(
              static_cast<double>(l.origin) +
              chan::kSps * static_cast<double>(k1) + params.mu + tail)),
          lo, nbuf);
      ZZ_DCHECK_LE(lo, hi);  // hi is clamped to [lo, nbuf]
      if (img_.size() < residual_[c].size()) img_.resize(residual_[c].size());
      std::fill(img_.begin() + lo, img_.begin() + hi, cplx{0.0, 0.0});
      chan::add_signal(img_, l.origin, u_, params, 1.0, opt_.interp_half_width);

      // Per-equation coefficient refit: the chunk's own signal is still in
      // the residual, so projecting the rendered image onto it re-measures
      // this link's mixing coefficient — the "Collision Helps" model
      // estimates each equation's coefficients, it just never revisits the
      // symbols. Only trusted when no other packet's unknown symbols
      // overlap the chunk's window (their signal would bias the fit).
      if (refit_clean(p, c, k0, k1)) {
        cplx num{0.0, 0.0};
        double den = 0.0;
        for (std::ptrdiff_t n = lo; n < hi; ++n) {
          const auto i = static_cast<std::size_t>(n);
          if (std::norm(img_[i]) < 1e-12) continue;
          num += std::conj(img_[i]) * residual_[c][i];
          den += std::norm(img_[i]);
        }
        if (den > 1e-9) {
          const cplx corr = num / den;
          const double mag = std::abs(corr);
          if (mag > 0.5 && mag < 2.0) {
            links_[p][c].est.params.h *= corr;
            params.h *= corr;
            std::fill(img_.begin() + lo, img_.begin() + hi, cplx{0.0, 0.0});
            chan::add_signal(img_, l.origin, u_, params, 1.0,
                             opt_.interp_half_width);
          }
        }
      }

      auto& acct = imgs_[p][c];
      if (acct.empty()) acct.assign(residual_[c].size(), cplx{0.0, 0.0});
      for (std::ptrdiff_t n = lo; n < hi; ++n) {
        const auto i = static_cast<std::size_t>(n);
        residual_[c][i] -= img_[i];
        acct[i] += img_[i];
      }
    }
  }

  // No unknown foreign symbols within the sample window p's chunk [k0,k1)
  // occupies in collision c (pulse tails included)?
  bool refit_clean(std::size_t p, std::size_t c, std::size_t k0,
                   std::size_t k1) const {
    const MpLink& l = links_[p][c];
    // The image's energy is concentrated in the chunk span; a guard-sized
    // margin keeps the fit unbiased without demanding the (always-occupied)
    // full pulse-tail window be free.
    const double pad = static_cast<double>(opt_.guard) * chan::kSps + 2.0;
    const double w0 = static_cast<double>(l.origin) +
                      chan::kSps * static_cast<double>(k0) - pad;
    const double w1 = static_cast<double>(l.origin) +
                      chan::kSps * static_cast<double>(k1) + pad;
    for (std::size_t q = 0; q < P_; ++q) {
      if (q == p || !links_[q][c].present) continue;
      const MpLink& lq = links_[q][c];
      const auto j0 = static_cast<std::ptrdiff_t>(
          std::floor((w0 - static_cast<double>(lq.origin)) / chan::kSps)) - 1;
      const auto j1 = static_cast<std::ptrdiff_t>(
          std::ceil((w1 - static_cast<double>(lq.origin)) / chan::kSps)) + 1;
      const auto len = static_cast<std::ptrdiff_t>(pkts_[q].len);
      for (std::ptrdiff_t j = std::max<std::ptrdiff_t>(0, j0);
           j <= std::min(len - 1, j1); ++j)
        if (!pkts_[q].known[static_cast<std::size_t>(j)]) return false;
    }
    return true;
  }

  // Note where a solved range last touched the variant-sensitive header
  // positions (retry bit + HCS), and with which retransmission flag.
  void note_variant_source(std::size_t p, std::size_t c, std::size_t k0,
                           std::size_t k1) {
    const std::size_t retry_sym = rxcfg_.preamble_len + phy::kHeaderRetryBit;
    const std::size_t hdr_end = rxcfg_.preamble_len + phy::kHeaderBits;
    if (k0 < hdr_end && k1 > retry_sym)
      pkts_[p].hdr_variant_hint = inputs_[c].is_retransmission ? 1 : 0;
  }

  void maybe_parse_header(std::size_t p) {
    MpPacket& pk = pkts_[p];
    if (pk.header) return;
    const std::size_t h0 = rxcfg_.preamble_len;
    const std::size_t h1 = h0 + phy::kHeaderBits;
    if (pk.len < h1) return;
    for (std::size_t k = h0; k < h1; ++k)
      if (!pk.known[k]) return;

    const phy::Modulator bpsk(Modulation::BPSK);
    Bits bits;
    bits.reserve(phy::kHeaderBits);
    for (std::size_t k = h0; k < h1; ++k) bpsk.append_bits(pk.decided[k], bits);
    auto header = phy::decode_header(bits);
    if (!header && pk.hdr_variant_hint >= 0) {
      // Retry-variant completion: an eliminated (or mixed-source) header
      // carries inconsistent bits exactly at the retry and HCS positions —
      // the only bits that differ between the two transmissions, so the
      // "same symbol in both equations" model breaks there. Both are
      // deterministic given the other field bits and the reference
      // collision's known retransmission flag: rebuild and re-parse. (A
      // wrong field bit would survive the recomputed HCS, but delivery is
      // still gated by the §5.1(f) BER criterion and the body CRC.)
      Bits fixed = bits;
      fixed[phy::kHeaderRetryBit] = pk.hdr_variant_hint ? 1 : 0;
      const Bits head(fixed.begin(),
                      fixed.begin() +
                          static_cast<std::ptrdiff_t>(phy::kHeaderFieldBits));
      const std::uint8_t hcs = phy::crc8_bits(head);
      for (std::size_t i = 0; i < phy::kHeaderHcsBits; ++i)
        fixed[phy::kHeaderFieldBits + i] =
            static_cast<std::uint8_t>((hcs >> i) & 1u);
      header = phy::decode_header(fixed);
    }
    if (!header) return;

    pk.header = *header;
    pk.layout = phy::layout_for(*header);
    pk.body_mod = header->payload_mod;
    for (int v = 0; v < 2; ++v) {
      phy::FrameHeader hv = *header;
      hv.retry = v != 0;
      pk.hdr_variant[v] = bpsk.modulate(phy::encode_header(hv));
    }
    // Re-anchor the decided header on the parsed variant: variant-sensitive
    // symbols solved through the other transmission (or an elimination) now
    // render and subtract consistently.
    for (std::size_t k = h0; k < h1; ++k)
      pk.decided[k] = pk.hdr_variant[pk.header->retry ? 1 : 0][k - h0];
    // Pin the believed length; later plan steps clamp to it.
    if (pk.layout.total_syms < pk.len) {
      pk.len = pk.layout.total_syms;
      pk.decided.resize(pk.len);
      pk.known.resize(pk.len);
    }
    // A parsed header's layout covers preamble + header symbols, so the
    // truncation can never cut into the header that was just decoded.
    ZZ_CHECK_LE(h1, pk.len) << " truncated layout cut into the header";
  }

  // ------------------------------------------------------------------ peel
  void peel(const MpStep& step) {
    const std::size_t p = step.packet;
    const std::size_t c = step.collision;
    MpPacket& pk = pkts_[p];
    MpLink& l = links_[p][c];
    if (!l.present) return;
    const std::size_t k0 = std::min(step.k0, pk.len);
    const std::size_t k1 = std::min(step.k1, pk.len);
    if (k1 <= k0) return;

    // The packet's own view of this equation: residual plus everything of p
    // already substituted out of it.
    view_ = residual_[c];
    const auto& acct = imgs_[p][c];
    if (!acct.empty())
      for (std::size_t n = 0; n < view_.size(); ++n) view_[n] += acct[n];

    std::vector<phy::SymbolSpec> specs(k1 - k0);
    const CVec& pre = phy::preamble(rxcfg_.preamble_len);
    for (std::size_t k = k0; k < k1; ++k) {
      specs[k - k0].mod = mod_at(p, k);
      if (k < pre.size()) specs[k - k0].pilot = pre[k];
    }

    const auto res = dec_.decode(view_, l.origin, k0, k1, specs, l.est);
    ZZ_DCHECK_EQ(res.decided.size(), k1 - k0);
    ++chunks_;
    for (std::size_t k = k0; k < k1; ++k) {
      pk.decided[k] = res.decided[k - k0];
      pk.known[k] = 1;
    }
    note_variant_source(p, c, k0, k1);
    maybe_parse_header(p);
    subtract_everywhere(p, k0, std::min(k1, pk.len));
  }

  // ------------------------------------------------------------- eliminate
  // Solve packet a's symbols [k0,k1) from the pair of equations (c1, c2)
  // that carry packets a and b at the same relative offset. For each symbol
  // the two receptions are sampled at positions where b's baseband waveform
  // argument is IDENTICAL, so b cancels exactly in the 2x2 solve no matter
  // what its (unknown) symbols are; a's second sample sits off its symbol
  // grid by the residual sync mismatch, which the pulse-shape coefficient
  // absorbs to first order.
  void eliminate(const MpStep& step) {
    const std::size_t a = step.packet;
    const std::size_t b = step.other_packet;
    const std::size_t c1 = step.collision;
    const std::size_t c2 = step.other_collision;
    MpPacket& pk = pkts_[a];
    const MpLink& la1 = links_[a][c1];
    const MpLink& la2 = links_[a][c2];
    const MpLink& lb1 = links_[b][c1];
    const MpLink& lb2 = links_[b][c2];
    // The planner pairs two distinct packets across two distinct equations;
    // a degenerate pairing would make the 2x2 system singular by design.
    ZZ_DCHECK_NE(a, b);
    ZZ_DCHECK_NE(c1, c2);
    if (!la1.present || !la2.present || !lb1.present || !lb2.present) return;
    const std::size_t k0 = std::min(step.k0, pk.len);
    const std::size_t k1 = std::min(step.k1, pk.len);
    if (k1 <= k0) return;

    const CVec& pre = phy::preamble(rxcfg_.preamble_len);
    for (std::size_t k = k0; k < k1; ++k) {
      // Sample c1 at a's symbol-k centre.
      const double rel_a1 =
          chan::kSps * static_cast<double>(k) * (1.0 + la1.est.params.drift) +
          la1.est.params.mu;
      const double pos1 = static_cast<double>(la1.origin) + rel_a1;
      // Sample c2 where b's waveform argument matches c1's sample.
      const double tau = pos1 - static_cast<double>(lb1.origin) -
                         lb1.est.params.mu;
      const double pos2 = static_cast<double>(lb2.origin) +
                          lb2.est.params.mu + tau;
      const double rel_a2 = pos2 - static_cast<double>(la2.origin);
      const double eps =
          rel_a2 - (chan::kSps * static_cast<double>(k) *
                        (1.0 + la2.est.params.drift) +
                    la2.est.params.mu);

      const cplx z1 = interp_.at(residual_[c1], pos1);
      const cplx z2 = interp_.at(residual_[c2], pos2);

      const cplx ca1 =
          la1.est.params.h * rot(la1.est.params.freq_offset * rel_a1);
      const cplx cb1 =
          lb1.est.params.h *
          rot(lb1.est.params.freq_offset *
              (pos1 - static_cast<double>(lb1.origin)));
      const cplx ca2 = la2.est.params.h *
                       rot(la2.est.params.freq_offset * rel_a2) *
                       chan::pulse(eps, opt_.interp_half_width);
      const cplx cb2 =
          lb2.est.params.h *
          rot(lb2.est.params.freq_offset *
              (pos2 - static_cast<double>(lb2.origin)));

      const cplx det = ca1 * cb2 - cb1 * ca2;
      const double scale = std::abs(ca1 * cb2) + std::abs(cb1 * ca2);
      if (scale < 1e-12 || std::abs(det) < opt_.min_det_ratio * scale) {
        ++skipped_;  // ill-conditioned: leave the symbol unsolved
        continue;
      }
      const cplx sym = (z1 * cb2 - z2 * cb1) / det;
      pk.decided[k] = k < pre.size() ? pre[k]
                                     : phy::Modulator(mod_at(a, k)).nearest_point(sym);
      pk.known[k] = 1;
    }
    note_variant_source(a, c1, k0, k1);  // the solve references c1's samples
    maybe_parse_header(a);
    subtract_everywhere(a, k0, std::min(k1, pk.len));
  }

  // -------------------------------------------------------------- finalize
  DecodeResult finalize() {
    DecodeResult out;
    out.chunks = chunks_;
    out.stall_breaks = skipped_;
    out.packets.resize(P_);
    for (std::size_t p = 0; p < P_; ++p) {
      MpPacket& pk = pkts_[p];
      PacketResult& r = out.packets[p];
      r.symbols_decoded = static_cast<std::size_t>(
          std::count(pk.known.begin(), pk.known.end(), 1));
      if (!pk.header) continue;
      r.header_ok = true;
      r.header = *pk.header;

      const std::size_t h0 = rxcfg_.preamble_len;
      const std::size_t total = std::min(pk.layout.total_syms, pk.len);
      r.soft.assign(pk.decided.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(h0, total)),
                    pk.decided.begin() + static_cast<std::ptrdiff_t>(total));

      // Header bits from the parse (retry variants differ per collision);
      // body bits from the single decided estimate per symbol — the
      // algebraic receiver has no MRC, every chunk is solved exactly once.
      Bits bits = phy::encode_header(*pk.header);
      Bits body_bits;
      const phy::Modulator body(pk.body_mod);
      for (std::size_t k = h0 + phy::kHeaderBits; k < total; ++k)
        body.append_bits(pk.decided[k], body_bits);
      body_bits.resize(pk.layout.body_bits);
      bits.insert(bits.end(), body_bits.begin(), body_bits.end());
      r.air_bits = std::move(bits);

      phy::Scrambler scr(phy::scrambler_seed_for(pk.header->seq));
      const Bits descrambled = scr.apply(body_bits);
      if (phy::body_crc_ok(descrambled)) {
        r.crc_ok = true;
        r.payload = phy::body_payload(descrambled);
      }
    }
    return out;
  }

  const AlgebraicMpOptions& opt_;
  const phy::ReceiverConfig& rxcfg_;
  std::span<const phy::SenderProfile> profiles_;
  std::span<const CollisionInput> inputs_;
  std::size_t C_;
  std::size_t P_;
  phy::ChunkDecoder dec_;
  sig::SincInterpolator interp_;

  Pattern pattern_;
  std::vector<CVec> residual_;
  std::vector<std::vector<CVec>> imgs_;  // [p][c] substituted-image accounts
  std::vector<std::vector<MpLink>> links_;
  std::vector<MpPacket> pkts_;
  std::vector<double> noise_;
  CVec u_;     ///< chunk-symbol scratch
  CVec img_;   ///< render scratch
  CVec view_;  ///< peel add-back view scratch
  std::size_t chunks_ = 0;
  std::size_t skipped_ = 0;
};

}  // namespace

AlgebraicMpDecoder::AlgebraicMpDecoder(AlgebraicMpOptions opt,
                                       phy::ReceiverConfig rxcfg)
    : opt_(opt), rxcfg_(rxcfg) {}

DecodeResult AlgebraicMpDecoder::decode(
    std::span<const CollisionInput> collisions,
    std::span<const phy::SenderProfile> profiles, std::size_t num_packets,
    std::size_t packet_syms) const {
  if (collisions.empty() || num_packets == 0) return {};
  for (const auto& ci : collisions)
    if (ci.samples == nullptr)
      throw std::invalid_argument("AlgebraicMpDecoder: null samples");
  MpEngine engine(collisions, profiles, num_packets, packet_syms, opt_,
                  rxcfg_);
  return engine.run();
}

}  // namespace zz::zigzag
