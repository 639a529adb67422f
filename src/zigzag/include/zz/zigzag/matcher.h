// "Did the AP Receive Two Matching Collisions?" — §4.2.2.
//
// The AP keeps recent unmatched collisions (raw samples). When a new
// collision arrives it aligns candidate packet starts across the two
// receptions and correlates: two copies of the same packet are identical up
// to channel phase, noise and the retransmission flag, so the normalized
// correlation is large; unrelated (scrambled) packets decorrelate.
//
// The score is one normalized correlation at the two aligned starts,
// computed by one O(span) loop. `match_same_packet` runs it on a pair of
// receptions; `PacketMatcher` keeps the comparison window of a new
// reception so an n-way registry match prepares that window once and
// scores every stored packet against it.
#pragma once

#include <cstddef>

#include "zz/common/types.h"

namespace zz::zigzag {

struct MatchConfig {
  std::size_t skip = 192;    ///< samples to skip past preamble+header
  std::size_t span = 512;    ///< samples to correlate
  double threshold = 0.30;   ///< normalized score required for a match
};

struct MatchScore {
  double score = 0.0;  ///< |<s1, s2>| / sqrt(E1·E2) over the compared span
  bool matched = false;
};

/// Compare the transmissions starting at `start1` in `rx1` and `start2` in
/// `rx2`: are they the same packet? Starts are the detected packet origins.
/// Any start whose window falls outside its buffer, an overlap shorter than
/// 64 samples, a silent window or non-finite samples give no match.
MatchScore match_same_packet(const CVec& rx1, std::ptrdiff_t start1,
                             const CVec& rx2, std::ptrdiff_t start2,
                             const MatchConfig& cfg = {});

/// The same §4.2.2 score with one side held: prepare(rx2, start2) once for
/// a new detection, then score() every stored packet against it. Not
/// thread-safe; one per thread.
class PacketMatcher {
 public:
  explicit PacketMatcher(MatchConfig cfg = {});

  const MatchConfig& config() const { return cfg_; }

  /// Keep the comparison window of `rx2` (up to span samples past
  /// start2 + skip). Returns false when the window is too short to judge;
  /// score() then reports no match until the next successful prepare().
  bool prepare(const CVec& rx2, std::ptrdiff_t start2);

  /// Score the packet starting at `start1` in `rx1` against the prepared
  /// window: equal to match_same_packet(rx1, start1, rx2, start2, cfg).
  MatchScore score(const CVec& rx1, std::ptrdiff_t start1) const;

 private:
  MatchConfig cfg_;
  CVec window_;  ///< prepared comparison window; empty when none
};

}  // namespace zz::zigzag
