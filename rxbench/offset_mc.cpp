// offset_mc: Fig 4-7 decodability. The §4.5 greedy scheduler judges
// pre-generated collision patterns — the only workload where
// zigzag::greedy_schedule is the cost. Pure integer work: waveform changes
// must leave it unchanged.
#include <string>

#include "workloads.h"
#include "zz/common/thread_pool.h"
#include "zz/mac/timing.h"
#include "zz/zigzag/scheduler.h"

namespace rxbench {
namespace {

using zz::zigzag::Pattern;
using zz::zigzag::ScheduleResult;

constexpr std::size_t kPacketSymbols = 120;
constexpr std::ptrdiff_t kSlotSymbols = 10;
constexpr std::size_t kMinSenders = 2, kMaxSenders = 9;
// Fixed contention windows of Fig 4-7(a); the fourth mode is 802.11 BEB,
// Fig 4-7(b), whose window doubles with each retransmission.
constexpr int kFixedCw[] = {8, 16, 32};
constexpr std::size_t kModes = 4;
// One block, the latency unit, draws thirty patterns of every (senders,
// mode) pair: long enough (~90 ms) that the median block moves with the
// host's speed, not with its scheduling jitter. The block count sets the
// list length (~3 s on a 4-core x86 box).
constexpr std::size_t kDrawsPerBlock = 30;
constexpr std::size_t kPatternsPerBlock =
    kDrawsPerBlock * (kMaxSenders - kMinSenders + 1) * kModes;
constexpr std::size_t kBlocks = 34;
constexpr int kSetupReps = 15;

// n senders, n collisions (one per (re)transmission round), each sender in
// a random backoff slot — the draw of mac::greedy_failure_probability.
Pattern draw_pattern(zz::Rng& rng, std::size_t n, std::size_t mode) {
  const zz::mac::DcfTiming timing;
  Pattern p;
  p.lengths.assign(n, kPacketSymbols);
  for (std::size_t round = 0; round < n; ++round) {
    const int cw = mode < 3 ? kFixedCw[mode]
                            : timing.cw_after(static_cast<int>(round));
    std::vector<Pattern::Placement> coll(n);
    std::ptrdiff_t min_off = 0;
    for (std::size_t i = 0; i < n; ++i) {
      coll[i] = {i, static_cast<std::ptrdiff_t>(rng.uniform_int(0, cw)) *
                        kSlotSymbols};
      min_off = i == 0 ? coll[i].offset : std::min(min_off, coll[i].offset);
    }
    for (auto& pl : coll) pl.offset -= min_off;
    p.collisions.push_back(std::move(coll));
  }
  return p;
}

// Independent check of one schedule (guard 0): every step decodes unknown
// symbols of a packet present in its collision, and each of those symbols
// overlaps only already-known symbols of the collision's other packets. A
// complete schedule must cover every symbol; an incomplete one must stop at
// a fixpoint where no unknown symbol is interference-free anywhere.
std::string check_schedule(const Pattern& p, const ScheduleResult& r) {
  std::vector<std::vector<char>> known(p.lengths.size());
  for (std::size_t i = 0; i < known.size(); ++i) known[i].assign(p.lengths[i], 0);
  // Known status of symbol j of packet q, out-of-range symbols count known.
  const auto known_at = [&](std::size_t q, std::ptrdiff_t j) {
    return j < 0 || j >= static_cast<std::ptrdiff_t>(p.lengths[q]) ||
           known[q][static_cast<std::size_t>(j)];
  };
  const auto clean = [&](const std::vector<Pattern::Placement>& coll,
                         std::size_t self, std::size_t k) {
    for (std::size_t o = 0; o < coll.size(); ++o)
      if (o != self &&
          !known_at(coll[o].packet, coll[self].offset +
                                        static_cast<std::ptrdiff_t>(k) -
                                        coll[o].offset))
        return false;
    return true;
  };
  for (const auto& st : r.steps) {
    if (st.collision >= p.collisions.size()) return "step names no collision";
    const auto& coll = p.collisions[st.collision];
    std::size_t self = coll.size();
    for (std::size_t i = 0; i < coll.size(); ++i)
      if (coll[i].packet == st.packet) self = i;
    if (self == coll.size()) return "step decodes a packet absent from its collision";
    if (st.k0 >= st.k1 || st.k1 > p.lengths[st.packet]) return "empty or out-of-range step";
    for (std::size_t k = st.k0; k < st.k1; ++k) {
      if (known[st.packet][k]) return "step re-decodes a known symbol";
      if (!clean(coll, self, k)) return "step overlaps an unknown symbol";
    }
    for (std::size_t k = st.k0; k < st.k1; ++k) known[st.packet][k] = 1;
  }
  std::vector<std::size_t> missing;
  for (std::size_t q = 0; q < known.size(); ++q)
    for (const char v : known[q])
      if (!v) {
        missing.push_back(q);
        break;
      }
  if (r.complete != missing.empty()) return "complete flag disagrees with coverage";
  if (missing != r.undecoded_packets) return "undecoded packet list is wrong";
  for (const auto& coll : p.collisions)
    for (std::size_t self = 0; self < coll.size(); ++self)
      for (std::size_t k = 0; k < p.lengths[coll[self].packet]; ++k)
        if (!known[coll[self].packet][k] && clean(coll, self, k))
          return "stopped while a symbol was still decodable";
  return {};
}

// Counts of one block, in this order.
enum Count : std::size_t { kCalls, kComplete, kPacketsDecoded, kSteps, kRounds, kNumCounts };

}  // namespace

void run_offset_mc(const Options& opt, Report& report) {
  std::vector<Pattern> patterns;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    zz::Rng rng(zz::shard_seed(opt.seed, 4));
    patterns.clear();
    patterns.reserve(kBlocks * kPatternsPerBlock);
    for (std::size_t b = 0; b < kBlocks * kDrawsPerBlock; ++b)
      for (std::size_t n = kMinSenders; n <= kMaxSenders; ++n)
        for (std::size_t mode = 0; mode < kModes; ++mode)
          patterns.push_back(draw_pattern(rng, n, mode));
  });

  Tracer untraced(false), traced(true);
  Tracer* tracer = &untraced;
  std::vector<double> block_s;
  std::vector<ScheduleResult> first_results(patterns.size());
  std::vector<char> have_result(patterns.size(), 0);
  const auto run_block = [&](std::size_t b) {
    Counts c(kNumCounts, 0);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kPatternsPerBlock; ++k) {
      const std::size_t idx = b * kPatternsPerBlock + k;
      ScheduleResult r = tracer->span("zigzag.scheduler.greedy", [&] {
        return zz::zigzag::greedy_schedule(patterns[idx], 0);
      });
      ++c[kCalls];
      if (r.complete) {
        ++c[kComplete];
        c[kPacketsDecoded] += patterns[idx].lengths.size();
      }
      c[kSteps] += r.steps.size();
      c[kRounds] += r.rounds;
      if (!have_result[idx]) {
        first_results[idx] = std::move(r);
        have_result[idx] = 1;
      }
    }
    block_s.push_back(seconds_since(t0));
    return c;
  };

  Passes passes(kBlocks, report);
  passes.run(0, run_block);  // untimed warm-up, pinned by the timed rerun
  block_s.clear();
  double wall = 0.0;
  std::size_t blocks_run = kBlocks / 2;  // the traced run's halves
  if (!opt.trace)
    std::tie(wall, blocks_run) = passes.timed(opt.seconds, run_block);
  else
    wall = passes.one_pass(blocks_run, run_block);

  // Correctness oracle over every pattern's first schedule.
  std::size_t bad = 0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (!have_result[i]) continue;
    const std::string why = check_schedule(patterns[i], first_results[i]);
    if (!why.empty() && bad++ == 0)
      report.fail("offset_mc: pattern " + std::to_string(i) + ": " + why);
  }
  report.attempted = blocks_run * kPatternsPerBlock;
  report.failed = bad;

  const std::size_t distinct = std::min(blocks_run, kBlocks);
  const Counts total = passes.sum(blocks_run), pass1 = passes.sum(distinct);
  const double fail_ratio =
      1.0 - ratio(static_cast<double>(pass1[kComplete]), static_cast<double>(pass1[kCalls]));
  report.note("offset_mc: " + std::to_string(kBlocks) + " blocks of " +
              std::to_string(kPatternsPerBlock) + " patterns, " +
              std::to_string(blocks_run) + " blocks timed");

  if (!opt.trace) {
    std::uint64_t symbol_slots = 0;
    for (std::size_t u = 0; u < blocks_run; ++u)
      for (std::size_t k = 0; k < kPatternsPerBlock; ++k) {
        const Pattern& p = patterns[(u % kBlocks) * kPatternsPerBlock + k];
        symbol_slots += p.collisions.size() * p.lengths.size() * kPacketSymbols;
      }
    report.metric("setup_s", setup_s, "s",
                  "median of " + std::to_string(kSetupReps) + " pattern generations");
    report.metric("pkts_per_s", static_cast<double>(total[kPacketsDecoded]) / wall, "pkt/s",
                  "packets in patterns the scheduler fully decodes");
    report.metric("msamples_per_s", 1e-6 * static_cast<double>(symbol_slots) / wall,
                  "Msample/s", "collision symbol slots judged");
    report.metric("patterns_per_s", static_cast<double>(total[kCalls]) / wall,
                  "pattern/s");
    report_latency(report, summarize_latency(block_s),
                   "blocks of " + std::to_string(kPatternsPerBlock) + " patterns");
    report.metric("loss_ratio", fail_ratio, "fraction",
                  "patterns the greedy schedule cannot decode");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  tracer = &traced;
  const double traced_wall = passes.one_pass(blocks_run, run_block);
  Layers layers;
  layers.set("mac.patterns_s", setup_s);
  layers.set("zigzag.scheduler.greedy_s", traced.busy("zigzag.scheduler.greedy"));
  layers.set("zigzag.scheduler.greedy_calls",
             static_cast<double>(traced.calls("zigzag.scheduler.greedy")));
  layers.set("zigzag.scheduler.steps", static_cast<double>(pass1[kSteps]));
  layers.set("zigzag.scheduler.rounds", static_cast<double>(pass1[kRounds]));
  layers.set("zigzag.scheduler.fail_ratio", fail_ratio);
  layers.set("trace.overhead_ratio", traced_wall / wall - 1.0);
  layers.report(report);
}

}  // namespace rxbench
