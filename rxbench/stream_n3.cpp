// stream_n3: the AP's sample-in → packet-out pipeline. A StreamingReceiver
// with the n = 3 options replays a pre-generated stream closed-loop: three
// hidden senders at 12 dB whose packets are retransmitted in three
// collisions at 802.11 backoff offsets, exact-zero silence between
// receptions, pushed in fixed chunks of a prime size. §4.2.2 matching
// dominates, so matcher, FFT and detector changes show here; it is also
// the only workload that runs SampleRing, FrameSync and the hint scanner.
#include <cstdlib>
#include <string>

#include "workloads.h"
#include "zz/common/thread_pool.h"
#include "zz/zigzag/detector.h"
#include "zz/zigzag/matcher.h"
#include "zz/zigzag/streaming.h"

namespace rxbench {
namespace {

namespace zg = zz::zigzag;

constexpr std::size_t kClients = 3;
constexpr double kSnrDb = 12.0;
// Saturated hidden senders never back off from CWmin: collision c of a
// round draws from cw_after(kStage + c), as the scenario engine's
// backoff_stage does.
constexpr int kStage = 2;
// 100-byte packets (~1.8k samples) against backoff windows of 2.5k-10k
// samples: the offsets stay comparable to the packet, so the collisions
// overlap, and a run decodes ~250 rounds — enough for its medians and
// loss to repeat from seed to seed.
constexpr std::size_t kPayloadBytes = 100;
constexpr std::size_t kChunk = 509;  // prime: windows straddle pushes
constexpr std::size_t kGap = 64;     // > FramerConfig::gap_hang
// A session is one round of an AP with three fresh clients (their own
// channels), so a run sees many independent channel draws. The session
// count sets the list length (~27 s on a 4-core x86 box).
constexpr std::size_t kSessions = 220;
// The traced run probes the detector and matcher on the first sessions.
constexpr std::size_t kProbeSessions = 8;
constexpr int kSetupReps = 5;

struct Reception {
  std::size_t begin = 0, size = 0;     ///< where it sits in the stream
  std::vector<std::ptrdiff_t> starts;  ///< true start of client i's packet
};

struct Session {
  std::vector<phy::SenderProfile> profiles;
  std::vector<phy::TxFrame> frames;  ///< client i's packet, seq 0
  std::vector<Reception> receptions;
  CVec stream;  ///< the receptions, each followed by kGap zero samples

  CVec samples(const Reception& r) const {
    return CVec(stream.begin() + static_cast<std::ptrdiff_t>(r.begin),
                stream.begin() + static_cast<std::ptrdiff_t>(r.begin + r.size));
  }
};

Session make_session(zz::Rng& rng) {
  Session s;
  std::vector<Client> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(make_client(rng, static_cast<std::uint8_t>(i + 1), kSnrDb));
    s.profiles.push_back(clients.back().profile);
    s.frames.push_back(make_frame(rng, static_cast<std::uint8_t>(i + 1), 0, kPayloadBytes));
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    const emu::Reception rec =
        log_collision(rng, clients, s.frames, kStage + static_cast<int>(c), c > 0);
    Reception r{s.stream.size(), rec.samples.size(), {}};
    for (const auto& t : rec.truth) r.starts.push_back(t.start);
    s.receptions.push_back(std::move(r));
    s.stream.insert(s.stream.end(), rec.samples.begin(), rec.samples.end());
    s.stream.insert(s.stream.end(), kGap, zz::cplx{0.0, 0.0});
  }
  return s;
}

// Counts of one session, in this order.
enum Count : std::size_t {
  kPushes, kWindows, kJointWindows, kHints, kMaxPushWork, kMaxRetained,
  kPendingPeak, kDeliveries, kDelaySum, kOffered, kDelivered, kPhantoms,
  kDuplicates, kWrongCrc, kSamples, kNumCounts
};

struct Probes {
  double detections = 0, true_detections = 0, starts = 0, found_starts = 0;
  double scores = 0, prepares = 0, matched = 0, true_matched = 0,
         true_pairs = 0;
};

// The client whose packet starts within `tol` samples of `origin`, or -1.
// Every reception of a session carries the same three packets, so the
// client index identifies the packet.
int client_at(const Reception& r, std::ptrdiff_t origin, std::size_t tol) {
  for (std::size_t i = 0; i < r.starts.size(); ++i)
    if (std::abs(r.starts[i] - origin) <= static_cast<std::ptrdiff_t>(tol))
      return static_cast<int>(i);
  return -1;
}

// The detector and §4.2.2 matcher on a session's receptions, outside the
// receiver: detect every reception, then prepare each detection of a
// reception and score it against every detection of the previous
// max_pending receptions — the comparisons the receiver's matching makes.
void probe(const Session& s, Tracer& tr, Probes& p) {
  const zg::ReceiverOptions ro = zg::ReceiverOptions::for_clients(kClients);
  const zg::CollisionDetector det(ro.detector);
  zg::PacketMatcher matcher(ro.match);
  const std::size_t tol = ro.detector.min_separation;
  std::vector<CVec> rx;
  std::vector<std::vector<zg::Detection>> dets;
  for (std::size_t r = 0; r < s.receptions.size(); ++r) {
    const Reception& rec = s.receptions[r];
    rx.push_back(s.samples(rec));
    dets.push_back(tr.span("zigzag.detector",
                           [&] { return det.detect(rx[r], s.profiles); }));
    p.detections += static_cast<double>(dets[r].size());
    for (const auto& d : dets[r])
      if (client_at(rec, d.origin, tol) >= 0) ++p.true_detections;
    for (const std::ptrdiff_t start : rec.starts) {
      ++p.starts;
      for (const auto& d : dets[r])
        if (std::abs(start - d.origin) <= static_cast<std::ptrdiff_t>(tol)) {
          ++p.found_starts;
          break;
        }
    }
    const std::size_t lo = r > ro.max_pending ? r - ro.max_pending : 0;
    for (const auto& d : dets[r]) {
      const bool ok = tr.span("zigzag.matcher.prepare",
                              [&] { return matcher.prepare(rx[r], d.origin); });
      ++p.prepares;
      if (!ok) continue;
      const int who = client_at(rec, d.origin, tol);
      for (std::size_t o = lo; o < r; ++o)
        for (const auto& od : dets[o]) {
          const zg::MatchScore m = tr.span(
              "zigzag.matcher.score", [&] { return matcher.score(rx[o], od.origin); });
          ++p.scores;
          const bool same =
              who >= 0 && who == client_at(s.receptions[o], od.origin, tol);
          p.true_pairs += same;
          p.matched += m.matched;
          p.true_matched += m.matched && same;
        }
    }
  }
}

}  // namespace

void run_stream_n3(const Options& opt, Report& report) {
  std::vector<Session> sessions;
  double gen_s = 0.0;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    zz::Rng rng(zz::shard_seed(opt.seed, 2));
    const auto t0 = Clock::now();
    sessions.clear();
    for (std::size_t i = 0; i < kSessions; ++i) sessions.push_back(make_session(rng));
    gen_s = seconds_since(t0);
  });

  Tracer untraced(false), traced(true);
  Tracer* tr = &untraced;
  std::vector<double> round_push_s;

  const auto run_session = [&](std::size_t i) {
    const Session& s = sessions[i];
    // The AP associates the session's clients: a fresh receiver.
    zg::StreamingOptions so;
    so.receiver = zg::ReceiverOptions::for_clients(kClients);
    zg::StreamingReceiver rx(so);
    rx.add_clients(s.profiles);
    Ledger ledger;
    for (const auto& f : s.frames) ledger.offer(f);
    Counts c(kNumCounts, 0);
    const auto take = [&](const std::vector<zg::StreamDelivered>& out) {
      for (const auto& sd : out) {
        ++c[kDeliveries];
        c[kDelaySum] += sd.decoded_at - sd.window_end;
        ledger.record(sd.packet.header, sd.packet.air_bits, sd.packet.crc_ok,
                      sd.packet.payload);
      }
    };
    for (std::size_t off = 0; off < s.stream.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, s.stream.size() - off);
      const auto windows = rx.stats().windows;
      const auto t0 = Clock::now();
      auto out = tr->span("zigzag.streaming.push",
                          [&] { return rx.push(s.stream.data() + off, n); });
      const double dt = seconds_since(t0);
      ++c[kPushes];
      // The round's latency: the push that closes its last window, i.e.
      // host time from the round's final sample to its joint decode.
      if (rx.stats().windows > windows && rx.stats().windows == kClients)
        round_push_s.push_back(dt);
      c[kPendingPeak] = std::max<std::uint64_t>(c[kPendingPeak], rx.pending_collisions());
      take(out);
    }
    take(tr->span("zigzag.streaming.push", [&] { return rx.finish(); }));
    ++c[kPushes];
    const zg::StreamingStats& st = rx.stats();
    c[kWindows] = st.windows;
    c[kJointWindows] = st.joint_windows;
    c[kHints] = st.preamble_hints;
    c[kMaxPushWork] = st.max_push_work;
    c[kMaxRetained] = st.max_retained;
    c[kSamples] = st.samples_in;
    c[kOffered] = ledger.offered();
    c[kDelivered] = ledger.delivered();
    c[kPhantoms] = ledger.phantoms();
    c[kDuplicates] = ledger.duplicates();
    c[kWrongCrc] = ledger.wrong_crc();
    if (ledger.wrong_crc())
      report.fail("stream_n3: session " + std::to_string(i) +
                  ": a crc_ok packet does not match the transmitted packet");
    return c;
  };

  Passes passes(kSessions, report);
  // Untimed warm-up (lazy set-up inside the library); the timed rerun of
  // session 0 must reproduce it.
  passes.run(0, run_session);
  round_push_s.clear();
  double wall = 0.0;
  std::size_t units = kSessions / 2;  // the traced run's halves
  if (!opt.trace)
    std::tie(wall, units) = passes.timed(opt.seconds, run_session);
  else
    wall = passes.one_pass(units, run_session);

  const std::size_t distinct = std::min(units, kSessions);
  const Counts total = passes.sum(units), pass1 = passes.sum(distinct);
  const LossTally loss{pass1[kOffered], pass1[kDelivered], pass1[kPhantoms],
                       pass1[kDuplicates]};
  report.attempted = total[kPushes];
  report.failed = total[kWrongCrc];
  report.note("stream_n3: " + std::to_string(kSessions) + " sessions of " +
              std::to_string(kClients) + " receptions, " + std::to_string(units) +
              " sessions timed; the " + std::to_string(distinct) +
              " distinct sessions offered " + std::to_string(loss.offered) +
              " packets, delivered " + std::to_string(loss.delivered) + ", phantom " +
              std::to_string(loss.phantoms) + ", duplicate " +
              std::to_string(loss.duplicates));

  if (!opt.trace) {
    report.metric("setup_s", setup_s, "s",
                  "median of " + std::to_string(kSetupReps) + " stream generations");
    report.metric("pkts_per_s", static_cast<double>(total[kDelivered]) / wall, "pkt/s");
    report.metric("msamples_per_s", 1e-6 * static_cast<double>(total[kSamples]) / wall,
                  "Msample/s", "air rate 1.0");
    report.metric("patterns_per_s", static_cast<double>(units) / wall, "pattern/s",
                  "rounds of three collisions streamed");
    report_latency(report, summarize_latency(round_push_s), "round-closing pushes");
    report.metric("loss_ratio", loss.loss_ratio(), "fraction", "distinct sessions");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  tr = &traced;
  const double traced_wall = passes.one_pass(units, run_session);
  // Probes: the layers only reached inside push(), called from outside on
  // the same receptions.
  Probes probed;
  for (std::size_t i = 0; i < kProbeSessions; ++i) probe(sessions[i], traced, probed);

  std::uint64_t receptions = 0, samples = 0, max_work = 0, max_ret = 0, pending = 0;
  for (std::size_t u = 0; u < distinct; ++u) {
    receptions += sessions[u].receptions.size();
    for (const auto& r : sessions[u].receptions) samples += r.size;
    max_work = std::max(max_work, passes.first(u)[kMaxPushWork]);
    max_ret = std::max(max_ret, passes.first(u)[kMaxRetained]);
    pending = std::max(pending, passes.first(u)[kPendingPeak]);
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  Layers layers;
  layers.set("emu.build_s", gen_s);
  layers.set("emu.receptions", d(receptions));
  layers.set("emu.samples", d(samples));
  layers.set("zigzag.streaming.push_s", traced.busy("zigzag.streaming.push"));
  layers.set("zigzag.streaming.push_calls", d(pass1[kPushes]));
  layers.set("zigzag.streaming.windows", d(pass1[kWindows]));
  layers.set("zigzag.streaming.joint_windows", d(pass1[kJointWindows]));
  layers.set("zigzag.streaming.preamble_hints", d(pass1[kHints]));
  layers.set("zigzag.streaming.max_push_work", d(max_work));
  layers.set("zigzag.streaming.max_retained", d(max_ret));
  layers.set("zigzag.streaming.pending_peak", d(pending));
  layers.set("zigzag.streaming.decode_delay_samples",
             ratio(d(pass1[kDelaySum]), d(pass1[kDeliveries])));
  layers.set("zigzag.detector.detect_s", traced.busy("zigzag.detector"));
  layers.set("zigzag.detector.calls", d(traced.calls("zigzag.detector")));
  layers.set("zigzag.detector.detections", probed.detections);
  layers.set("zigzag.detector.precision", ratio(probed.true_detections, probed.detections));
  layers.set("zigzag.detector.recall", ratio(probed.found_starts, probed.starts));
  layers.set("zigzag.matcher.prepare_s", traced.busy("zigzag.matcher.prepare"));
  layers.set("zigzag.matcher.score_s", traced.busy("zigzag.matcher.score"));
  layers.set("zigzag.matcher.prepares", probed.prepares);
  layers.set("zigzag.matcher.scores", probed.scores);
  layers.set("zigzag.matcher.match_precision", ratio(probed.true_matched, probed.matched));
  layers.set("zigzag.matcher.match_recall", ratio(probed.true_matched, probed.true_pairs));
  layers.set("trace.overhead_ratio", traced_wall / wall - 1.0);
  layers.report(report);
  report.note("stream_n3 probes: detector and matcher on " +
              std::to_string(kProbeSessions * kClients) + " receptions");
}

}  // namespace rxbench
