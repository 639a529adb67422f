// The greedy chunk-scheduling algorithm of §4.5, on abstract collision
// patterns.
//
//   Step 1: decode all overhanging interference-free chunks.
//   Step 2: subtract the known chunks wherever they appear in all collisions.
//   Step 3: decode the new chunks that became interference-free.
//   Repeat until all chunks of all packets are decoded.
//
// This module works on pure geometry (packet lengths + per-collision
// offsets), with no waveforms: it answers "is this set of collisions
// decodable, and in what order?" — the question behind Fig 4-7's failure
// probability curves and Assertion 4.5.1. The waveform decoder
// (zz::zigzag::ZigZagDecoder) applies the same greedy rule to real samples.
//
// greedy_schedule runs word-parallel. Each packet's unknown symbols are a
// 64-bit-word bitset, next to a "blocked" bitset: the unknown set dilated
// by ±guard, rebuilt only when the packet changes. For placement `self` of
// a collision, the decodable symbols are
//   unknown(self) & ~OR_o shift(blocked(o), offset_self - offset_o),
// and each maximal run of that mask is one ScheduleStep. A collision none
// of whose packets changed since a placement's last scan is not rescanned.
// The output (steps in order, rounds, complete, undecoded_packets) is
// identical to the per-symbol walk, which tests/scheduler_test.cpp keeps
// as `reference_schedule` and checks against on 100,000 seeded patterns
// (Scheduler.WordParallelMatchesPerSymbolReference).
#pragma once

#include <cstddef>
#include <vector>

namespace zz::zigzag {

/// An abstract collision pattern: which packets appear in which collisions
/// at which symbol offsets.
struct Pattern {
  /// Length, in symbols, of each packet.
  std::vector<std::size_t> lengths;

  struct Placement {
    std::size_t packet = 0;      ///< index into `lengths`
    std::ptrdiff_t offset = 0;   ///< symbol offset within the collision
  };
  /// collisions[c] lists the packets present in collision c.
  std::vector<std::vector<Placement>> collisions;
};

/// One decode action: symbols [k0, k1) of `packet` from `collision`.
struct ScheduleStep {
  std::size_t collision = 0;
  std::size_t packet = 0;
  std::size_t k0 = 0;
  std::size_t k1 = 0;
};

struct ScheduleResult {
  bool complete = false;              ///< every symbol of every packet decoded
  std::vector<ScheduleStep> steps;    ///< greedy decode order
  std::vector<std::size_t> undecoded_packets;  ///< ids with missing symbols
  std::size_t rounds = 0;             ///< greedy iterations used
};

/// Run the §4.5 greedy algorithm. `guard` is the number of symbols of
/// separation a decodable symbol needs from any *unknown* symbol of another
/// packet (0 reproduces the paper's idealized chunk model; the waveform
/// engine uses a small guard for pulse tails). Any guard is valid: one wider
/// than every symbol distance in the pattern blocks what that distance does.
/// Throws std::invalid_argument for a placement naming no packet, a packet
/// longer than 2^60 symbols, or a collision whose offsets spread over more
/// than 2^60 symbols.
ScheduleResult greedy_schedule(const Pattern& pattern, std::size_t guard = 0);

/// The feasibility condition of §4.5 / Assertion 4.5.1: for every pair of
/// packets that ever collide together, there exist two collisions in which
/// the pair combined at different relative offsets (or some collision where
/// one of them appears without the other, which breaks the tie trivially).
bool pairwise_condition_holds(const Pattern& pattern);

/// Conditioning of one equation (collision) for the greedy schedule: the
/// minimum pairwise offset separation, in symbols, between any two packets
/// present in it. Larger is better — a collision whose packets are well
/// separated yields long interference-free head/tail chunks, so the n-way
/// zigzag bootstraps from it with the least error propagation. A collision
/// holding fewer than two packets is trivially clean (max conditioning).
/// Exact for any offsets, including a full-range PTRDIFF_MIN/MAX pair.
std::size_t equation_conditioning(const Pattern& pattern, std::size_t collision);

/// Equation-selection order for joint decoding: the collision indices of
/// `pattern` sorted by decreasing conditioning (ties keep arrival order).
/// The n-sender scenario engine feeds collisions to the waveform decoder in
/// this order; the decoder's ChunkOrder::BestFirst then refines the same
/// idea per chunk.
std::vector<std::size_t> order_equations(const Pattern& pattern);

}  // namespace zz::zigzag
