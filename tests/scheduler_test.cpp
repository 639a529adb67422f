// Direct unit coverage for the §4.5 greedy scheduler on 3+ overlapped
// packets: chunk ordering of the decode schedule, completeness bookkeeping,
// the equation-conditioning/selection entry points the n-sender scenario
// engine drives, the word-parallel scheduler's identity with a per-symbol
// reference walk, and its typed failures on hostile inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "zz/common/rng.h"
#include "zz/mac/timing.h"
#include "zz/zigzag/scheduler.h"

namespace zz::zigzag {
namespace {

// Fig 4-6(a): three packets, three collisions, distinct offset mixes.
Pattern fig_4_6a() {
  Pattern p;
  p.lengths = {100, 100, 100};
  p.collisions = {{{0, 0}, {1, 20}, {2, 50}},
                  {{0, 0}, {1, 60}, {2, 20}},
                  {{0, 0}, {1, 40}, {2, 80}}};
  return p;
}

TEST(SchedulerChunkOrder, FirstChunkIsAnInterferenceFreeOverhang) {
  // Step 1 of §4.5: decode an overhanging interference-free chunk. In
  // Fig 4-6(a) the earliest such chunk is packet 0's head before the first
  // interferer arrives at offset 20 in collision 0.
  const auto res = greedy_schedule(fig_4_6a());
  ASSERT_TRUE(res.complete);
  ASSERT_FALSE(res.steps.empty());
  const auto& first = res.steps.front();
  EXPECT_EQ(first.collision, 0u);
  EXPECT_EQ(first.packet, 0u);
  EXPECT_EQ(first.k0, 0u);
  EXPECT_EQ(first.k1, 20u);
}

TEST(SchedulerChunkOrder, EveryChunkBordersDecodedTerritoryOrAnEdge) {
  // The zigzag propagates: each decoded run either starts at a packet edge
  // or directly extends symbols decoded by an earlier chunk of the same
  // packet — there are no disconnected mid-packet islands in the schedule.
  const auto res = greedy_schedule(fig_4_6a());
  ASSERT_TRUE(res.complete);
  std::vector<std::vector<std::uint8_t>> known(3,
                                               std::vector<std::uint8_t>(100, 0));
  for (const auto& st : res.steps) {
    const bool at_edge = st.k0 == 0 || st.k1 == 100;
    const bool extends_prefix = st.k0 > 0 && known[st.packet][st.k0 - 1];
    const bool extends_suffix = st.k1 < 100 && known[st.packet][st.k1];
    EXPECT_TRUE(at_edge || extends_prefix || extends_suffix)
        << "chunk [" << st.k0 << ", " << st.k1 << ") of packet " << st.packet
        << " floats free";
    for (std::size_t k = st.k0; k < st.k1; ++k) known[st.packet][k] = 1;
  }
}

TEST(SchedulerChunkOrder, StepsCoverEverySymbolExactlyOnce) {
  const auto res = greedy_schedule(fig_4_6a());
  ASSERT_TRUE(res.complete);
  std::vector<std::vector<int>> cover(3, std::vector<int>(100, 0));
  for (const auto& st : res.steps) {
    ASSERT_LT(st.packet, 3u);
    ASSERT_LE(st.k1, 100u);
    for (std::size_t k = st.k0; k < st.k1; ++k) ++cover[st.packet][k];
  }
  for (const auto& pkt : cover)
    for (const int c : pkt) EXPECT_EQ(c, 1);
  EXPECT_TRUE(res.undecoded_packets.empty());
}

TEST(SchedulerChunkOrder, ThreePacketsNeedAThirdEquation) {
  // Two collisions of three mutually-overlapped packets leave one packet
  // pair tied (Assertion 4.5.1 needs n equations for n unknowns here).
  Pattern p;
  p.lengths = {100, 100, 100};
  p.collisions = {{{0, 0}, {1, 20}, {2, 50}}, {{0, 0}, {1, 60}, {2, 20}}};
  const auto res = greedy_schedule(p);
  EXPECT_FALSE(res.complete);
  EXPECT_FALSE(res.undecoded_packets.empty());
  // Adding the third distinct-offset collision resolves it.
  p.collisions.push_back({{0, 0}, {1, 40}, {2, 80}});
  EXPECT_TRUE(greedy_schedule(p).complete);
}

TEST(SchedulerChunkOrder, FivePacketsFiveRotatedCollisionsDecode) {
  // n = 5 packets × 5 collisions with rotated offset assignments — the
  // n-sender sweep's geometry in the abstract.
  Pattern p;
  const std::size_t n = 5;
  p.lengths.assign(n, 200);
  const std::ptrdiff_t offs[n] = {0, 35, 90, 140, 260};
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<Pattern::Placement> coll;
    for (std::size_t i = 0; i < n; ++i)
      coll.push_back({i, offs[(i + c) % n]});
    p.collisions.push_back(coll);
  }
  const auto res = greedy_schedule(p);
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(pairwise_condition_holds(p));
}

TEST(SchedulerChunkOrder, GuardCanStarveTightOffsets) {
  // A guard wider than the offset gap erases the bootstrap chunk.
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 4}}, {{0, 0}, {1, 8}}};
  EXPECT_TRUE(greedy_schedule(p, 0).complete);
  EXPECT_FALSE(greedy_schedule(p, 16).complete);
}

TEST(EquationSelection, ConditioningIsMinPairwiseSeparation) {
  Pattern p;
  p.lengths = {100, 100, 100};
  p.collisions = {{{0, 0}, {1, 7}, {2, 90}},    // min gap 7
                  {{0, 0}, {1, 55}, {2, 110}},  // min gap 55
                  {{0, 12}, {1, 12}, {2, 40}},  // duplicate offsets: 0
                  {{0, 5}}};                    // lone packet: unconstrained
  EXPECT_EQ(equation_conditioning(p, 0), 7u);
  EXPECT_EQ(equation_conditioning(p, 1), 55u);
  EXPECT_EQ(equation_conditioning(p, 2), 0u);
  EXPECT_EQ(equation_conditioning(p, 3), static_cast<std::size_t>(-1));
  EXPECT_THROW((void)equation_conditioning(p, 4), std::invalid_argument);
}

TEST(EquationSelection, OrdersBestConditionedFirstKeepingTies) {
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 10}},   // 10
                  {{0, 0}, {1, 80}},   // 80
                  {{0, 0}, {1, 10}},   // 10 again (tie with collision 0)
                  {{0, 0}, {1, 40}}};  // 40
  const auto order = order_equations(p);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 0u);  // stable: arrival order within the tie
  EXPECT_EQ(order[3], 2u);
}

TEST(EquationSelection, EmptyPatternYieldsEmptyOrder) {
  EXPECT_TRUE(order_equations(Pattern{}).empty());
}


// ---------------------------------------------------------------------------
// Per-symbol reference: the §4.5 walk one symbol at a time, each symbol
// checked against every other placement's guard window. greedy_schedule
// must reproduce its output exactly, for every pattern and guard.
// ---------------------------------------------------------------------------

// Is symbol k of `pl` free of interference from unknown symbols of every
// other placement in the same collision?
bool reference_symbol_clean(const Pattern& pattern,
                            const std::vector<std::vector<std::uint8_t>>& known,
                            const std::vector<Pattern::Placement>& coll,
                            std::size_t self, std::size_t k, std::ptrdiff_t guard) {
  const auto& pl = coll[self];
  const std::ptrdiff_t pos = pl.offset + static_cast<std::ptrdiff_t>(k);
  for (std::size_t oi = 0; oi < coll.size(); ++oi) {
    if (oi == self) continue;
    const auto& other = coll[oi];
    const auto olen = static_cast<std::ptrdiff_t>(pattern.lengths[other.packet]);
    // Unknown symbols j of `other` with |other.offset + j - pos| <= guard.
    const std::ptrdiff_t jlo =
        std::max<std::ptrdiff_t>(0, pos - guard - other.offset);
    const std::ptrdiff_t jhi =
        std::min<std::ptrdiff_t>(olen - 1, pos + guard - other.offset);
    for (std::ptrdiff_t j = jlo; j <= jhi; ++j)
      if (!known[other.packet][static_cast<std::size_t>(j)]) return false;
  }
  return true;
}

// Valid for guards and offsets whose sums fit in ptrdiff_t.
ScheduleResult reference_schedule(const Pattern& pattern, std::size_t guard) {
  const std::size_t npk = pattern.lengths.size();
  std::vector<std::vector<std::uint8_t>> known(npk);
  for (std::size_t p = 0; p < npk; ++p) known[p].assign(pattern.lengths[p], 0);

  ScheduleResult res;
  const auto g = static_cast<std::ptrdiff_t>(guard);

  bool progress = true;
  while (progress) {
    progress = false;
    ++res.rounds;
    for (std::size_t c = 0; c < pattern.collisions.size(); ++c) {
      const auto& coll = pattern.collisions[c];
      for (std::size_t self = 0; self < coll.size(); ++self) {
        const auto& pl = coll[self];
        const std::size_t len = pattern.lengths[pl.packet];
        std::size_t k = 0;
        while (k < len) {
          if (known[pl.packet][k] ||
              !reference_symbol_clean(pattern, known, coll, self, k, g)) {
            ++k;
            continue;
          }
          // Extend a maximal decodable run.
          std::size_t k1 = k;
          while (k1 < len && !known[pl.packet][k1] &&
                 reference_symbol_clean(pattern, known, coll, self, k1, g))
            ++k1;
          for (std::size_t j = k; j < k1; ++j) known[pl.packet][j] = 1;
          res.steps.push_back({c, pl.packet, k, k1});
          progress = true;
          k = k1;
        }
      }
    }
  }

  res.complete = true;
  for (std::size_t p = 0; p < npk; ++p) {
    const bool all = std::all_of(known[p].begin(), known[p].end(),
                                 [](std::uint8_t v) { return v != 0; });
    if (!all) {
      res.complete = false;
      res.undecoded_packets.push_back(p);
    }
  }
  return res;
}

// First difference between two schedules, or empty when identical.
std::string schedule_diff(const ScheduleResult& got, const ScheduleResult& want) {
  std::ostringstream os;
  if (got.rounds != want.rounds)
    os << "rounds " << got.rounds << " vs " << want.rounds;
  else if (got.complete != want.complete)
    os << "complete " << got.complete << " vs " << want.complete;
  else if (got.undecoded_packets != want.undecoded_packets)
    os << "undecoded_packets differ";
  else if (got.steps.size() != want.steps.size())
    os << got.steps.size() << " steps vs " << want.steps.size();
  for (std::size_t i = 0; os.tellp() == 0 && i < got.steps.size(); ++i) {
    const auto& a = got.steps[i];
    const auto& b = want.steps[i];
    if (a.collision != b.collision || a.packet != b.packet || a.k0 != b.k0 ||
        a.k1 != b.k1)
      os << "step " << i << ": (" << a.collision << ", " << a.packet << ", "
         << a.k0 << ", " << a.k1 << ") vs (" << b.collision << ", " << b.packet
         << ", " << b.k0 << ", " << b.k1 << ")";
  }
  return os.str();
}

std::string describe(const Pattern& p, std::size_t guard) {
  std::ostringstream os;
  os << "guard " << guard << ", lengths {";
  for (const std::size_t len : p.lengths) os << ' ' << len;
  os << " }, collisions {";
  for (const auto& coll : p.collisions) {
    os << " {";
    for (const auto& pl : coll) os << ' ' << pl.packet << '@' << pl.offset;
    os << " }";
  }
  os << " }";
  return os.str();
}

// Random geometry: 1-9 packets of 0-300 symbols (word edges drawn often),
// collisions of up to six placements that may repeat a packet, negative
// offsets, spreads from none to far beyond a packet.
Pattern random_pattern(Rng& rng) {
  static constexpr std::size_t kEdgeLengths[] = {0,   1,   2,   63,  64,  65, 127,
                                                 128, 129, 191, 192, 193, 300};
  constexpr auto kEdges = static_cast<std::int64_t>(std::size(kEdgeLengths));
  static constexpr std::int64_t kSpreads[] = {0, 3, 20, 80, 400};
  Pattern p;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 9));
  for (std::size_t i = 0; i < n; ++i)
    p.lengths.push_back(
        rng.uniform_int(0, 2) == 0
            ? kEdgeLengths[rng.uniform_int(0, kEdges - 1)]
            : static_cast<std::size_t>(rng.uniform_int(0, 300)));
  const std::int64_t spread = kSpreads[rng.uniform_int(0, 4)];
  const auto ncoll = rng.uniform_int(0, static_cast<std::int64_t>(n) + 2);
  for (std::int64_t c = 0; c < ncoll; ++c) {
    std::vector<Pattern::Placement> coll;
    const auto m = rng.uniform_int(1, std::min<std::int64_t>(static_cast<std::int64_t>(n) + 1, 6));
    const bool with_repeats = rng.uniform_int(0, 1) == 0;
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::int64_t j = 0; j < m; ++j) {
      std::size_t pk;
      if (with_repeats) {
        pk = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      } else {
        if (static_cast<std::size_t>(j) == n) break;
        // Partial Fisher-Yates: distinct packets.
        const auto r = static_cast<std::size_t>(
            rng.uniform_int(j, static_cast<std::int64_t>(n) - 1));
        std::swap(order[static_cast<std::size_t>(j)], order[r]);
        pk = order[static_cast<std::size_t>(j)];
      }
      coll.push_back({pk, static_cast<std::ptrdiff_t>(rng.uniform_int(-spread, spread))});
    }
    p.collisions.push_back(std::move(coll));
  }
  return p;
}

// The offset_mc / Fig 4-7 draw: n senders, n collisions, 120-symbol
// packets, each sender in a random 10-symbol backoff slot of a fixed
// window (8/16/32) or of 802.11's doubling window (mode 3).
Pattern backoff_pattern(Rng& rng, std::size_t n, std::size_t mode) {
  static constexpr int kCw[] = {8, 16, 32};
  const mac::DcfTiming timing;
  Pattern p;
  p.lengths.assign(n, 120);
  for (std::size_t round = 0; round < n; ++round) {
    const int cw = mode < 3 ? kCw[mode] : timing.cw_after(static_cast<int>(round));
    std::vector<Pattern::Placement> coll(n);
    std::ptrdiff_t min_off = 0;
    for (std::size_t i = 0; i < n; ++i) {
      coll[i] = {i, static_cast<std::ptrdiff_t>(rng.uniform_int(0, cw)) * 10};
      min_off = i == 0 ? coll[i].offset : std::min(min_off, coll[i].offset);
    }
    for (auto& pl : coll) pl.offset -= min_off;
    p.collisions.push_back(std::move(coll));
  }
  return p;
}

TEST(Scheduler, WordParallelMatchesPerSymbolReference) {
  Rng rng(0x9e3779b97f4a7c15ull);
  std::size_t checked = 0, repeated = 0, negative = 0, wide_guard = 0;
  const auto check = [&](const Pattern& p, std::size_t guard) {
    const std::string diff =
        schedule_diff(greedy_schedule(p, guard), reference_schedule(p, guard));
    ++checked;
    if (diff.empty()) return true;
    ADD_FAILURE() << "pattern " << checked << ": " << diff << "\n  "
                  << describe(p, guard);
    return false;
  };
  // Random geometry, guards 0-70 (most draws near the waveform engine's
  // small guards, where tails interact with word edges).
  for (int trial = 0; trial < 60000; ++trial) {
    const Pattern p = random_pattern(rng);
    const auto pick = rng.uniform_int(0, 3);
    const auto guard = static_cast<std::size_t>(
        pick == 0 ? 0 : pick == 1 ? rng.uniform_int(1, 8) : rng.uniform_int(0, 70));
    for (const auto& coll : p.collisions) {
      bool dup = false, neg = false;
      for (std::size_t a = 0; a < coll.size(); ++a) {
        neg |= coll[a].offset < 0;
        for (std::size_t b = a + 1; b < coll.size(); ++b)
          dup |= coll[a].packet == coll[b].packet;
      }
      repeated += dup;
      negative += neg;
    }
    wide_guard += guard > 64;
    if (!check(p, guard)) return;
  }
  // The offset_mc draw shape, every (senders, window) pair.
  for (int trial = 0; trial < 1250; ++trial)
    for (std::size_t n = 2; n <= 9; ++n)
      for (std::size_t mode = 0; mode < 4; ++mode)
        if (!check(backoff_pattern(rng, n, mode), 0)) return;
  EXPECT_EQ(checked, 100000u);
  // The draw reaches the cases the word-parallel walk treats specially.
  EXPECT_GT(repeated, 10000u);
  EXPECT_GT(negative, 10000u);
  EXPECT_GT(wide_guard, 1000u);
}

TEST(Scheduler, HostileInputsFailTyped) {
  constexpr auto kMax = std::numeric_limits<std::ptrdiff_t>::max();
  constexpr auto kMin = std::numeric_limits<std::ptrdiff_t>::min();
  const std::vector<std::size_t> kHugeGuards = {
      std::numeric_limits<std::size_t>::max(), std::size_t{1} << 63};

  // A guard past every reachable symbol distance blocks everything an
  // unknown symbol shares a collision with; it must not wrap to "nothing".
  Pattern tied;
  tied.lengths = {100, 100};
  tied.collisions = {{{0, 0}, {1, 0}}};
  for (const std::size_t guard : kHugeGuards) {
    const auto r = greedy_schedule(tied, guard);
    EXPECT_FALSE(r.complete) << guard;
    EXPECT_TRUE(r.steps.empty()) << guard;
    EXPECT_EQ(r.undecoded_packets, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(r.rounds, 1u);
  }
  // ... and means exactly what the widest reachable distance means.
  Rng rng(0x4057);
  for (int trial = 0; trial < 300; ++trial) {
    const Pattern p = random_pattern(rng);
    const auto want = reference_schedule(p, 2000);  // > 800 spread + 300 length
    for (const std::size_t guard : kHugeGuards)
      EXPECT_EQ(schedule_diff(greedy_schedule(p, guard), want), "")
          << describe(p, guard);
  }

  // Offsets at the ends of ptrdiff_t: a narrow spread is the same geometry
  // as its translate to zero; a spread whose difference overflows is
  // rejected.
  Pattern near;
  near.lengths = {100, 100};
  Pattern at_zero = near;
  at_zero.collisions = {{{0, 0}, {1, 30}}, {{0, 5}, {1, 0}}};
  near.collisions = {{{0, kMax - 30}, {1, kMax}}, {{0, kMin + 5}, {1, kMin}}};
  for (const std::size_t guard : {std::size_t{0}, std::size_t{3}})
    EXPECT_EQ(schedule_diff(greedy_schedule(near, guard),
                            reference_schedule(at_zero, guard)),
              "");
  Pattern lone;
  lone.lengths = {10};
  lone.collisions = {{{0, kMax}}, {{0, kMin}}};
  EXPECT_TRUE(greedy_schedule(lone, std::numeric_limits<std::size_t>::max()).complete);
  Pattern far;
  far.lengths = {100, 100};
  far.collisions = {{{0, 0}, {1, std::ptrdiff_t{1} << 60}}};
  EXPECT_TRUE(greedy_schedule(far, 0).complete);
  EXPECT_FALSE(greedy_schedule(far, std::numeric_limits<std::size_t>::max()).complete);
  far.collisions = {{{0, kMin}, {1, kMax}}};
  for (const std::size_t guard : {std::size_t{0}, std::size_t{1} << 63})
    EXPECT_THROW((void)greedy_schedule(far, guard), std::invalid_argument);
  far.collisions = {{{0, -(std::ptrdiff_t{1} << 61)}, {1, std::ptrdiff_t{1} << 61}}};
  EXPECT_THROW((void)greedy_schedule(far, 0), std::invalid_argument);

  // Conditioning and the pairwise condition take any offsets exactly.
  Pattern extreme;
  extreme.lengths = {10, 10};
  extreme.collisions = {{{0, kMin}, {1, kMax}}, {{0, kMin}, {1, kMin + 7}},
                        {{0, kMax}, {1, -1}}, {{0, kMin}, {1, 0}}};
  EXPECT_EQ(equation_conditioning(extreme, 0), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(equation_conditioning(extreme, 1), 7u);
  EXPECT_EQ(equation_conditioning(extreme, 2), std::size_t{1} << 63);
  EXPECT_EQ(equation_conditioning(extreme, 3), std::size_t{1} << 63);
  EXPECT_EQ(order_equations(extreme), (std::vector<std::size_t>{0, 2, 3, 1}));
  // Relative offsets +2^63 and -2^63: equal modulo 2^64, yet distinct.
  Pattern wrap;
  wrap.lengths = {10, 10};
  wrap.collisions = {{{0, kMax}, {1, -1}}, {{0, kMin}, {1, 0}}};
  EXPECT_TRUE(pairwise_condition_holds(wrap));
  wrap.collisions = {{{0, kMax}, {1, -1}}, {{0, kMax}, {1, -1}}};
  EXPECT_FALSE(pairwise_condition_holds(wrap));

  // Degenerate shapes.
  const auto empty = greedy_schedule(Pattern{}, std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(empty.complete);
  EXPECT_TRUE(empty.steps.empty());
  EXPECT_EQ(empty.rounds, 1u);
  Pattern unheard;
  unheard.lengths = {5, 0};
  unheard.collisions = {{}};
  const auto u = greedy_schedule(unheard);
  EXPECT_FALSE(u.complete);
  EXPECT_EQ(u.undecoded_packets, (std::vector<std::size_t>{0}));
  Pattern hollow;
  hollow.lengths = {0, 0, 5};
  hollow.collisions = {{{0, 0}, {1, 0}, {2, 0}, {0, 3}}};
  const auto h = greedy_schedule(hollow, std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(h.complete);
  ASSERT_EQ(h.steps.size(), 1u);
  EXPECT_EQ(h.steps[0].packet, 2u);
  EXPECT_EQ(h.steps[0].k1, 5u);
  Pattern huge;
  huge.lengths = {std::numeric_limits<std::size_t>::max()};
  EXPECT_THROW((void)greedy_schedule(huge), std::invalid_argument);
  Pattern stray;
  stray.lengths = {10};
  stray.collisions = {{{0, 0}, {1, 4}}};
  EXPECT_THROW((void)greedy_schedule(stray), std::invalid_argument);
}

}  // namespace
}  // namespace zz::zigzag
