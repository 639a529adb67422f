#include "zz/zigzag/detector.h"

#include <algorithm>
#include <cmath>

#include "zz/common/mathutil.h"
#include "zz/phy/preamble.h"

namespace zz::zigzag {

namespace {

// Non-finite samples (Inf, NaN, |x|² overflow) yield non-finite estimates;
// such a start has no sample position the decoder could place.
bool is_finite(const Detection& d) {
  return std::isfinite(d.h.real()) && std::isfinite(d.h.imag()) &&
         std::isfinite(d.mu) && std::isfinite(d.freq_offset) &&
         std::isfinite(d.metric);
}

}  // namespace

CollisionDetector::CollisionDetector(DetectorConfig cfg) : cfg_(cfg) {}

double CollisionDetector::threshold(double snr_linear,
                                    double noise_floor) const {
  return cfg_.beta * cfg_.calibration *
         phy::preamble_waveform_energy(cfg_.preamble_len) *
         std::sqrt(std::max(snr_linear, 1e-6) * std::max(noise_floor, 1e-12));
}

sig::SlidingCorrelator& CollisionDetector::correlator() const {
  if (!corr_)
    corr_.emplace(phy::preamble_waveform(cfg_.preamble_len));
  return *corr_;
}

std::vector<double> CollisionDetector::correlation_profile(
    const CVec& rx, double coarse_freq) const {
  const CVec corr = correlator().correlate(rx, coarse_freq);
  std::vector<double> mag(corr.size());
  for (std::size_t i = 0; i < corr.size(); ++i) mag[i] = std::abs(corr[i]);
  return mag;
}

std::vector<Detection> CollisionDetector::detect(
    const CVec& rx, std::span<const phy::SenderProfile> profiles) const {
  const double noise = phy::estimate_noise_floor_robust(rx);
  std::vector<Detection> out;

  // The preamble is common to all clients; hypotheses differ only in the
  // frequency compensation. The stream's block transforms are prepared
  // once and shared: each client hypothesis costs one reference rotation
  // plus the inverse transforms, not a fresh O(N·M) correlation. Candidate
  // starts found under every hypothesis are then resolved to a client by
  // comparing the *measured* preamble phase slope against the clients'
  // association-time offsets — the correlation magnitude alone barely
  // discriminates, and a wrong client assignment would seed the decoder
  // with the wrong δf̂.
  sig::SlidingCorrelator& corr = correlator();
  corr.prepare(rx);
  if (corr.positions() == 0) return out;
  const double eref = corr.reference_energy();
  const std::vector<double> ewin =
      sig::windowed_energy(rx, corr.reference().size());

  struct Candidate {
    std::size_t pos;
    double score;  ///< ρ in threshold units under the hypothesis that found it
  };
  std::vector<Candidate> cands;
  CVec gamma;
  std::vector<double> rho(corr.positions());
  for (const auto& prof : profiles) {
    corr.correlate(prof.freq_offset, gamma);
    const double h2 = db_to_lin(prof.snr_db) * std::max(noise, 1e-12);
    const double peak_ref =
        cfg_.calibration * eref * std::sqrt(std::max(h2, 1e-12));
    const double gate = cfg_.energy_gate * eref * h2;
    for (std::size_t d = 0; d < gamma.size(); ++d)
      rho[d] = ewin[d] < gate ? 0.0 : std::abs(gamma[d]) / peak_ref;
    for (const std::size_t pk : sig::find_peaks(rho, cfg_.beta, cfg_.min_separation))
      cands.push_back({pk, rho[pk]});
  }

  // Cross-hypothesis dedup by non-maximum suppression: the strongest
  // candidate claims its neighbourhood. First-hypothesis-wins merging used
  // to let a weaker spike absorb a true start found under a later client's
  // compensation.
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });
  std::vector<std::size_t> positions;
  for (const auto& c : cands) {
    bool merged = false;
    for (const std::size_t existing : positions)
      if (std::llabs(static_cast<long long>(existing) -
                     static_cast<long long>(c.pos)) <=
          static_cast<long long>(cfg_.min_separation)) {
        merged = true;
        break;
      }
    if (!merged) positions.push_back(c.pos);
  }

  // Power-step statistic for the optional gate: mean |rx|² over one
  // reference length after the candidate minus the same before it. A true
  // start adds the new sender's |h|²; an in-packet excursion adds nothing.
  const std::size_t step_win = corr.reference().size();
  const auto mean_power = [&](std::size_t lo, std::size_t hi) {
    if (hi <= lo) return 0.0;
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) acc += std::norm(rx[i]);
    return acc / static_cast<double>(hi - lo);
  };

  for (const std::size_t pk : positions) {
    const double power_step =
        cfg_.power_step_gate > 0.0
            ? mean_power(pk, std::min(pk + step_win, rx.size())) -
                  mean_power(pk > step_win ? pk - step_win : 0, pk)
            : 0.0;
    // Slope-based offset measurement (client-agnostic).
    const auto probe = phy::estimate_at_peak(rx, pk, 0.0, cfg_.preamble_len);

    // Peak-height consistency per client, in (0, 1]: ρ_i ≈ 1 when the
    // measured |Γ'| matches client i's expected E_pre·ĥ_i. min(ρ, 1/ρ)
    // ranks both too-weak spikes (threshold grazers) AND too-strong ones
    // (a stronger packet's data excursion crossing a weaker client's
    // threshold) below genuine starts, so the max_detections cap and the
    // decoder's phantom triage keep the real packets. The best consistency
    // over all clients is the detection's metric; the client itself is
    // resolved by the measured phase slope among the plausible ones —
    // magnitude separates power classes, the slope separates within one.
    // Consistency references the PHYSICAL expectation E_pre·ĥ — κ belongs
    // to the detection threshold only; folding it in here would make every
    // true peak score 1/κ and lose to data excursions near a weaker
    // client's height.
    std::vector<double> cons(profiles.size());
    double best_cons = 0.0;
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
      const double h2 =
          db_to_lin(profiles[pi].snr_db) * std::max(noise, 1e-12);
      // Power-step gate: this client could only have started here if the
      // received power rose by (a good fraction of) its |h|².
      if (cfg_.power_step_gate > 0.0 &&
          power_step < cfg_.power_step_gate * h2) {
        cons[pi] = 0.0;
        continue;
      }
      const double rho =
          probe.metric / (eref * std::sqrt(std::max(h2, 1e-12)));
      cons[pi] = rho > 1.0 ? 1.0 / rho : rho;
      best_cons = std::max(best_cons, cons[pi]);
    }
    // Every client gated out on the power step: the spike rides on power
    // that was already flowing — an in-packet excursion, not a start.
    if (cfg_.power_step_gate > 0.0 && best_cons == 0.0) continue;
    int best = -1;
    double best_d = 1e9;
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
      if (cons[pi] <= 0.0 || cons[pi] < 0.8 * best_cons) continue;
      const double d = std::abs(probe.freq_offset - profiles[pi].freq_offset);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(pi);
      }
    }
    const double coarse = best >= 0 ? profiles[static_cast<std::size_t>(best)].freq_offset : 0.0;
    const auto pe = phy::estimate_at_peak(rx, pk, coarse, cfg_.preamble_len);
    Detection d;
    d.origin = pe.origin;
    d.mu = pe.mu;
    d.h = pe.h;
    d.freq_offset = coarse;
    d.metric = best_cons;
    d.profile_index = best;
    if (is_finite(d)) out.push_back(d);
  }

  if (out.size() > cfg_.max_detections) {
    std::sort(out.begin(), out.end(),
              [](const Detection& a, const Detection& b) {
                return a.metric > b.metric;
              });
    out.resize(cfg_.max_detections);
  }
  std::sort(out.begin(), out.end(),
            [](const Detection& a, const Detection& b) {
              return a.origin < b.origin;
            });
  return out;
}

}  // namespace zz::zigzag
