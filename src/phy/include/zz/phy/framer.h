// Frame synchronisation for the streaming receiver — turns an unbounded
// sample stream into bounded reception windows.
//
// The paper's AP (§4) never sees "a logged buffer"; it sees samples
// arriving and must decide, online, where a reception starts and ends.
// FrameSync is that decision, and only that: whether a window holds one
// packet or a collision is §4.2.1's question, answered once per closed
// window by the collision detector downstream (zigzag::StreamingReceiver
// hands each window to ZigZagReceiver).
//
// Window framing is energy-based: the emulated medium is exactly zero
// between receptions (receiver noise is part of each reception's buffer,
// lead-in and tail included — see emu::CollisionBuilder), so a run of
// `gap_hang` silent samples closes the window at the last active sample.
// That makes the recovered window bit-identical to the buffer the offline
// route decodes, independent of how the stream was chunked into push()
// calls — the property the streaming-vs-offline pins gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "zz/common/types.h"

namespace zz::phy {

struct FramerConfig {
  /// |x|² at or below this is silence. Exact zero by default: the emulated
  /// inter-reception medium is exactly zero, so window recovery is exact.
  double silence_eps = 0.0;
  /// Consecutive silent samples that close an open window.
  std::size_t gap_hang = 24;
  /// Hard cap on one window's length: a never-silent stream is cut here
  /// rather than retained without bound.
  std::size_t max_window = std::size_t{1} << 22;
};

/// One closed reception window [begin, end) in absolute stream positions.
struct FrameWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// Stream position at which closure was decided (end + the silence hang,
  /// or the cut position) — when the window's decode can be scheduled.
  std::uint64_t decided_at = 0;
};

/// The framer. Feed samples with push(); closed windows come back in
/// stream order.
class FrameSync {
 public:
  explicit FrameSync(FramerConfig cfg = {});

  const FramerConfig& config() const { return cfg_; }

  /// Consume samples; any windows closed by them are appended to `out`.
  void push(const cplx* data, std::size_t count, std::vector<FrameWindow>& out);
  void push(const CVec& samples, std::vector<FrameWindow>& out) {
    push(samples.data(), samples.size(), out);
  }

  /// End of stream: close the open window (if any) at the current position.
  void finish(std::vector<FrameWindow>& out);

  bool in_window() const { return open_; }
  std::uint64_t position() const { return pos_; }

 private:
  void close(std::uint64_t end, std::uint64_t decided_at,
             std::vector<FrameWindow>& out);

  FramerConfig cfg_;
  std::uint64_t pos_ = 0;          ///< samples consumed so far
  bool open_ = false;
  std::uint64_t wbegin_ = 0;
  std::uint64_t active_end_ = 0;   ///< one past the last active sample
  std::size_t silent_run_ = 0;
};

}  // namespace zz::phy
