#include "zz/zigzag/scheduler.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

namespace zz::zigzag {
namespace {

// Symbol sets are bitsets: symbol k is bit k % 64 of word k / 64, and the
// bits past a packet's length are always zero.
using Word = std::uint64_t;
constexpr std::size_t kWordBits = 64;

// Longest packet, and widest offset spread within one collision, that
// greedy_schedule accepts. Every distance it forms sums at most four such
// terms, so none overflows ptrdiff_t.
constexpr std::size_t kMaxSpan = std::size_t{1} << 60;

std::size_t words_for(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

// The 64 bits of `set` starting at bit `pos` (any sign); bits outside the
// stored words read as zero.
Word bits_at(std::span<const Word> set, std::ptrdiff_t pos) {
  const std::ptrdiff_t q = pos >> 6;  // floor division
  const auto r = static_cast<unsigned>(pos & 63);
  const auto word = [&](std::ptrdiff_t i) {
    return i >= 0 && i < static_cast<std::ptrdiff_t>(set.size())
               ? set[static_cast<std::size_t>(i)]
               : Word{0};
  };
  Word w = word(q) >> r;
  if (r != 0) w |= word(q + 1) << (kWordBits - r);
  return w;
}

// The bits of [lo, hi) that fall in word w.
Word range_bits(std::size_t w, std::ptrdiff_t lo, std::ptrdiff_t hi) {
  const auto base = static_cast<std::ptrdiff_t>(w * kWordBits);
  lo = std::max(lo, base);
  hi = std::min(hi, base + static_cast<std::ptrdiff_t>(kWordBits));
  if (lo >= hi) return 0;
  const auto n = static_cast<unsigned>(hi - lo);
  const Word ones = n == kWordBits ? ~Word{0} : (Word{1} << n) - 1;
  return ones << (lo - base);
}

// First bit at or after k that is set in `bits` (or clear, with `invert`);
// bits.size() * 64 when there is none.
std::size_t find_bit(std::span<const Word> bits, std::size_t k, bool invert) {
  const Word flip = invert ? ~Word{0} : Word{0};
  std::size_t w = k / kWordBits;
  if (w >= bits.size()) return bits.size() * kWordBits;
  Word cur = (bits[w] ^ flip) & (~Word{0} << (k % kWordBits));
  while (cur == 0) {
    if (++w == bits.size()) return bits.size() * kWordBits;
    cur = bits[w] ^ flip;
  }
  return w * kWordBits + static_cast<std::size_t>(std::countr_zero(cur));
}

// a − b as (a < b, |a − b|): exact for every pair, where the signed
// difference could overflow.
std::pair<bool, std::uint64_t> offset_gap(std::ptrdiff_t a, std::ptrdiff_t b) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  return a < b ? std::pair{true, ub - ua} : std::pair{false, ua - ub};
}

// The §4.5 greedy walk over word-parallel known-sets. Symbol k of placement
// `self` is decodable when it is unknown and no unknown symbol of another
// placement lies within `guard` of it; one word of that test is
// unknown(self) & ~OR_o blocked(o) shifted by offset_self − offset_o, where
// blocked(o) is o's unknown set dilated by ±guard.
class GreedyWalk {
 public:
  GreedyWalk(const Pattern& pattern, std::size_t guard) : pattern_(pattern) {
    std::size_t widest = 0;
    for (const auto& coll : pattern.collisions) {
      for (const auto& pl : coll)
        if (pl.packet >= pattern.lengths.size())
          throw std::invalid_argument("greedy_schedule: placement out of range");
      if (coll.empty()) continue;
      const auto [lo, hi] = std::minmax_element(
          coll.begin(), coll.end(),
          [](const auto& a, const auto& b) { return a.offset < b.offset; });
      const std::uint64_t spread = offset_gap(hi->offset, lo->offset).second;
      if (spread > kMaxSpan)
        throw std::invalid_argument("greedy_schedule: offset spread too wide");
      widest = std::max(widest, static_cast<std::size_t>(spread));
    }
    std::size_t longest = 0, total_words = 0, widest_packet = 0;
    for (const std::size_t len : pattern.lengths) {
      if (len > kMaxSpan)
        throw std::invalid_argument("greedy_schedule: packet too long");
      longest = std::max(longest, len);
      total_words += words_for(len);
    }
    // No two symbols of one collision are further apart than this, so a
    // wider guard blocks exactly what this one does.
    guard_ = static_cast<std::ptrdiff_t>(std::min(guard, widest + longest));

    const std::size_t npk = pattern.lengths.size();
    packets_.resize(npk);
    unknown_.assign(total_words, ~Word{0});
    std::size_t base = 0;
    for (std::size_t p = 0; p < npk; ++p) {
      Packet& pk = packets_[p];
      pk.len = pattern.lengths[p];
      pk.base = base;
      pk.words = words_for(pk.len);
      pk.remaining = pk.len;
      base += pk.words;
      if (pk.len % kWordBits != 0)
        unknown_[base - 1] = (Word{1} << (pk.len % kWordBits)) - 1;
      widest_packet = std::max(widest_packet, pk.words);
    }
    if (guard_ > 0) blocked_.assign(total_words, 0);
    mask_.resize(widest_packet);
  }

  ScheduleResult run() {
    ScheduleResult res;
    // Per (collision, placement): the sum of the collision's packet
    // versions before its last scan. An unchanged sum means an unchanged
    // collision, which the scan would again find nothing in.
    std::size_t slots = 0;
    for (const auto& coll : pattern_.collisions) slots += coll.size();
    std::vector<std::uint64_t> scanned_at(slots, ~std::uint64_t{0});

    bool progress = true;
    while (progress) {
      progress = false;
      ++res.rounds;
      std::size_t slot = 0;
      for (std::size_t c = 0; c < pattern_.collisions.size(); ++c) {
        const auto& coll = pattern_.collisions[c];
        for (std::size_t self = 0; self < coll.size(); ++self, ++slot) {
          std::uint64_t sum = 0;
          for (const auto& pl : coll) sum += packets_[pl.packet].version;
          if (sum == scanned_at[slot]) continue;
          scanned_at[slot] = sum;
          if (scan(c, self, res.steps)) progress = true;
        }
      }
    }

    res.complete = true;
    for (std::size_t p = 0; p < packets_.size(); ++p)
      if (packets_[p].remaining != 0) {
        res.complete = false;
        res.undecoded_packets.push_back(p);
      }
    return res;
  }

 private:
  struct Packet {
    std::size_t len = 0;
    std::size_t base = 0;       // first word in unknown_ / blocked_
    std::size_t words = 0;
    std::size_t remaining = 0;  // unknown symbols
    std::uint64_t version = 0;  // bumped by every decoded run
    std::uint64_t blocked_version = ~std::uint64_t{0};
    std::ptrdiff_t first = 0;   // first and last unknown symbol, as of the
    std::ptrdiff_t last = 0;    // blocked set (valid while remaining > 0)
  };

  std::span<Word> unknown(std::size_t p) {
    return {unknown_.data() + packets_[p].base, packets_[p].words};
  }

  // Unknown symbols of p dilated by ±guard, within [0, len). Rebuilt only
  // when p has changed, by doubling shifts: O(words · log guard).
  std::span<const Word> blocked(std::size_t p) {
    if (guard_ == 0) return unknown(p);
    Packet& pk = packets_[p];
    const std::span<Word> b(blocked_.data() + pk.base, pk.words);
    if (pk.blocked_version == pk.version) return b;
    pk.blocked_version = pk.version;
    const std::span<const Word> u = unknown(p);
    std::copy(u.begin(), u.end(), b.begin());
    pk.first = static_cast<std::ptrdiff_t>(find_bit(u, 0, false));
    pk.last = pk.first;
    for (std::size_t w = pk.words; w-- > 0;)
      if (u[w] != 0) {
        pk.last = static_cast<std::ptrdiff_t>(w * kWordBits + kWordBits - 1 -
                                              std::countl_zero(u[w]));
        break;
      }
    // Radius r grows by s <= r + 1 per step, so the dilation stays gap-free;
    // past len it can add nothing within [0, len).
    const auto g = std::min(static_cast<std::size_t>(guard_), pk.len);
    std::vector<Word>& prev = dilate_scratch_;
    for (std::size_t r = 0; r < g;) {
      const std::size_t s = std::min(r + 1, g - r);
      prev.assign(b.begin(), b.end());
      const auto sh = static_cast<std::ptrdiff_t>(s);
      for (std::size_t w = 0; w < pk.words; ++w) {
        const auto at = static_cast<std::ptrdiff_t>(w * kWordBits);
        b[w] |= bits_at(prev, at + sh) | bits_at(prev, at - sh);
      }
      if (pk.len % kWordBits != 0)
        b[pk.words - 1] &= (Word{1} << (pk.len % kWordBits)) - 1;
      r += s;
    }
    return b;
  }

  // mask_[w] for w >= w0: the unknown symbols of coll[self] that no unknown
  // symbol of another placement comes within the guard of.
  void build_mask(const std::vector<Pattern::Placement>& coll,
                  std::size_t self, std::size_t w0) {
    const auto& me = coll[self];
    const std::size_t nw = packets_[me.packet].words;
    const std::span<const Word> u = unknown(me.packet);
    std::copy(u.begin() + static_cast<std::ptrdiff_t>(w0), u.end(),
              mask_.begin() + static_cast<std::ptrdiff_t>(w0));
    for (std::size_t o = 0; o < coll.size(); ++o) {
      if (o == self) continue;
      const auto& other = coll[o];
      if (packets_[other.packet].remaining == 0) continue;
      const std::span<const Word> b = blocked(other.packet);
      const std::ptrdiff_t d = me.offset - other.offset;
      for (std::size_t w = w0; w < nw; ++w)
        mask_[w] &= ~bits_at(b, static_cast<std::ptrdiff_t>(w * kWordBits) + d);
      if (guard_ == 0) continue;
      // blocked(o) stops at o's ends; its ±guard tails beyond them, in
      // self's symbol index.
      const Packet& op = packets_[other.packet];
      const auto olen = static_cast<std::ptrdiff_t>(op.len);
      for (std::size_t w = w0; w < nw; ++w)
        mask_[w] &= ~(range_bits(w, op.first - guard_ - d, -d) |
                      range_bits(w, olen - d, op.last + guard_ + 1 - d));
    }
  }

  // One placement's pass: decode every maximal decodable run, in order.
  bool scan(std::size_t c, std::size_t self, std::vector<ScheduleStep>& steps) {
    const auto& coll = pattern_.collisions[c];
    const std::size_t p = coll[self].packet;
    Packet& pk = packets_[p];
    if (pk.remaining == 0) return false;
    // A packet placed twice in one collision blocks itself: each decoded run
    // changes the rest of its own mask.
    bool repeated = false;
    for (std::size_t o = 0; o < coll.size(); ++o)
      repeated |= o != self && coll[o].packet == p;

    const std::span<const Word> mask(mask_.data(), pk.words);
    const std::span<Word> u = unknown(p);
    build_mask(coll, self, 0);
    bool decoded = false;
    std::size_t k = 0;
    for (;;) {
      const std::size_t k0 = find_bit(mask, k, false);
      if (k0 >= pk.len) break;
      const std::size_t k1 = std::min(find_bit(mask, k0, true), pk.len);
      for (std::size_t w = k0 / kWordBits; w * kWordBits < k1; ++w)
        u[w] &= ~range_bits(w, static_cast<std::ptrdiff_t>(k0),
                            static_cast<std::ptrdiff_t>(k1));
      pk.remaining -= k1 - k0;
      ++pk.version;
      steps.push_back({c, p, k0, k1});
      decoded = true;
      k = k1;
      if (k >= pk.len) break;
      if (repeated) build_mask(coll, self, k / kWordBits);
    }
    return decoded;
  }

  const Pattern& pattern_;
  std::ptrdiff_t guard_ = 0;
  std::vector<Packet> packets_;
  std::vector<Word> unknown_;  // every packet's unknown set, packed
  std::vector<Word> blocked_;  // every packet's blocked set (guard > 0)
  std::vector<Word> mask_;     // decodable symbols of the placement in scan
  std::vector<Word> dilate_scratch_;
};

}  // namespace

ScheduleResult greedy_schedule(const Pattern& pattern, std::size_t guard) {
  return GreedyWalk(pattern, guard).run();
}

std::size_t equation_conditioning(const Pattern& pattern,
                                  std::size_t collision) {
  if (collision >= pattern.collisions.size())
    throw std::invalid_argument("equation_conditioning: collision out of range");
  const auto& coll = pattern.collisions[collision];
  std::size_t best = static_cast<std::size_t>(-1);
  for (std::size_t a = 0; a < coll.size(); ++a)
    for (std::size_t b = a + 1; b < coll.size(); ++b)
      best = std::min<std::size_t>(
          best, offset_gap(coll[a].offset, coll[b].offset).second);
  return best;
}

std::vector<std::size_t> order_equations(const Pattern& pattern) {
  std::vector<std::size_t> order(pattern.collisions.size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
  std::vector<std::size_t> cond(order.size());
  for (std::size_t c = 0; c < order.size(); ++c)
    cond[c] = equation_conditioning(pattern, c);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cond[a] > cond[b]; });
  return order;
}

bool pairwise_condition_holds(const Pattern& pattern) {
  const std::size_t npk = pattern.lengths.size();
  // For every unordered pair: the set of relative offsets across collisions
  // where both appear, and whether either ever appears without the other.
  for (std::size_t a = 0; a < npk; ++a) {
    for (std::size_t b = a + 1; b < npk; ++b) {
      std::set<std::pair<bool, std::uint64_t>> rel;
      bool ever_together = false;
      bool ever_apart = false;
      for (const auto& coll : pattern.collisions) {
        std::ptrdiff_t oa = 0, ob = 0;
        bool ha = false, hb = false;
        for (const auto& pl : coll) {
          if (pl.packet == a) {
            ha = true;
            oa = pl.offset;
          }
          if (pl.packet == b) {
            hb = true;
            ob = pl.offset;
          }
        }
        if (ha && hb) {
          ever_together = true;
          rel.insert(offset_gap(oa, ob));
        } else if (ha != hb) {
          ever_apart = true;
        }
      }
      if (ever_together && rel.size() < 2 && !ever_apart) return false;
    }
  }
  return true;
}

}  // namespace zz::zigzag
