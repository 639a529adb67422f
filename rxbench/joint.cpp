#include "joint.h"

#include "zz/chan/channel.h"
#include "zz/common/thread_pool.h"
#include "zz/testbed/scenario.h"
#include "zz/zigzag/decoder.h"
#include "zz/zigzag/scheduler.h"

namespace rxbench {

namespace zg = zz::zigzag;

namespace {
constexpr std::size_t kSenders = 4;
constexpr double kSnrDb = 12.0;
constexpr int kStage = 2;
constexpr std::size_t kTopUps = 4;
constexpr std::size_t kJointRounds = 48;
constexpr std::size_t kPayloadBytes = 300;  // the scenario engine's default

// One round: `collisions` holds its kSenders logged collisions of
// `frames`, then its pool of top-ups. Adds the round's figures to `st`.
void decode_round(const std::vector<phy::TxFrame>& frames,
                  const std::vector<emu::Reception>& collisions,
                  const std::vector<phy::SenderProfile>& profiles, Tracer& tr,
                  JointStats& st) {
  const std::size_t n = frames.size();
  const std::size_t pkt_syms = phy::layout_for(frames[0].header).total_syms;
  std::vector<zg::CollisionInput> inputs;
  const auto log_next = [&] {
    const emu::Reception& rec = collisions[inputs.size()];
    zg::CollisionInput in;
    in.samples = &rec.samples;
    in.is_retransmission = !inputs.empty();
    for (std::size_t i = 0; i < n; ++i) {
      const double f = profiles[i].freq_offset;
      const phy::PreambleEstimate pe = tr.span("phy.estimate", [&] {
        return phy::estimate_at_peak(rec.samples,
                                     static_cast<std::size_t>(rec.truth[i].start), f);
      });
      ++st.estimates;
      zg::Detection d;
      d.origin = pe.origin;
      d.mu = pe.mu;
      d.h = pe.h;
      d.freq_offset = f;
      d.metric = pe.metric;
      d.profile_index = static_cast<int>(i);
      in.placements.push_back({i, d});
    }
    inputs.push_back(std::move(in));
  };
  // Symbol-level geometry of the logged collisions, from the true starts.
  const auto pattern = [&] {
    zg::Pattern p;
    p.lengths.assign(n, pkt_syms);
    p.collisions.resize(inputs.size());
    for (std::size_t c = 0; c < inputs.size(); ++c)
      for (std::size_t i = 0; i < n; ++i)
        p.collisions[c].push_back(
            {i, collisions[c].truth[i].start / static_cast<std::ptrdiff_t>(chan::kSps)});
    return p;
  };
  const auto can_top_up = [&] { return inputs.size() < collisions.size(); };

  for (std::size_t k = 0; k < kSenders; ++k) log_next();
  while (can_top_up() && !tr.span("zigzag.scheduler.pairwise", [&] {
           return zg::pairwise_condition_holds(pattern());
         }))
    log_next();

  const zg::ZigZagDecoder decoder(zz::testbed::nway_decode_options());
  zg::DecodeCache cache;
  Ledger ledger;
  for (const auto& f : frames) ledger.offer(f);
  zg::DecodeResult res;
  for (;;) {
    const std::vector<std::size_t> order = tr.span(
        "zigzag.scheduler.order", [&] { return zg::order_equations(pattern()); });
    std::vector<zg::CollisionInput> ordered;
    for (const std::size_t k : order) ordered.push_back(inputs[k]);
    res = tr.span("zigzag.decoder",
                  [&] { return decoder.decode(ordered, profiles, n, &cache); });
    ++st.decodes;
    st.chunks += res.chunks;
    st.stall_breaks += res.stall_breaks;
    bool all = res.packets.size() == n;
    for (const auto& p : res.packets) {
      ++st.packets;
      st.symbols += p.symbols_decoded;
      st.crc_ok += p.crc_ok;
      all = all && p.header_ok &&
            ledger.judge(p.header, p.air_bits, p.crc_ok, p.payload) ==
                Ledger::Verdict::Delivered;
    }
    if (all || !can_top_up()) break;
    log_next();  // the retransmission an unacknowledged sender sends anyway
  }
  for (const auto& p : res.packets)
    if (p.header_ok) ledger.record(p.header, p.air_bits, p.crc_ok, p.payload);
  st.offered += ledger.offered();
  st.delivered += ledger.delivered();
  st.wrong_crc += ledger.wrong_crc();
  st.cache_hits += cache.hits();
  st.cache_misses += cache.misses();
  st.extra_equations += inputs.size() - kSenders;
}

}  // namespace

JointStats joint_probe(std::uint64_t seed, Tracer& tr) {
  zz::Rng rng(zz::shard_seed(seed, 3));
  JointStats total;
  for (std::size_t r = 0; r < kJointRounds; ++r) {
    std::vector<Client> clients;
    std::vector<phy::SenderProfile> profiles;
    std::vector<phy::TxFrame> frames;
    for (std::size_t i = 0; i < kSenders; ++i) {
      clients.push_back(make_client(rng, static_cast<std::uint8_t>(i + 1), kSnrDb));
      profiles.push_back(clients.back().profile);
      frames.push_back(make_frame(rng, static_cast<std::uint8_t>(i + 1), 0, kPayloadBytes));
    }
    std::vector<emu::Reception> collisions;
    for (std::size_t c = 0; c < kSenders + kTopUps; ++c)
      collisions.push_back(
          log_collision(rng, clients, frames, kStage + static_cast<int>(c), c > 0));
    decode_round(frames, collisions, profiles, tr, total);
  }
  return total;
}

void report_joint_layers(const JointStats& js, const Tracer& tr, Layers& layers) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  layers.set("phy.estimate_s", tr.busy("phy.estimate"));
  layers.set("phy.estimates", d(js.estimates));
  layers.set("zigzag.decoder.decode_s", tr.busy("zigzag.decoder"));
  layers.set("zigzag.decoder.calls", d(js.decodes));
  layers.set("zigzag.decoder.chunks", d(js.chunks));
  layers.set("zigzag.decoder.stall_breaks", d(js.stall_breaks));
  layers.set("zigzag.decoder.symbols", d(js.symbols));
  layers.set("zigzag.decoder.crc_ok_ratio", ratio(d(js.crc_ok), d(js.packets)));
  layers.set("zigzag.cache.hits", d(js.cache_hits));
  layers.set("zigzag.cache.misses", d(js.cache_misses));
  layers.set("zigzag.cache.hit_ratio",
             ratio(d(js.cache_hits), d(js.cache_hits + js.cache_misses)));
  layers.set("zigzag.scheduler.pairwise_s", tr.busy("zigzag.scheduler.pairwise"));
  layers.set("zigzag.scheduler.order_s", tr.busy("zigzag.scheduler.order"));
  layers.set("zigzag.scheduler.extra_equations", d(js.extra_equations));
}

}  // namespace rxbench
