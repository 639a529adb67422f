#include "zz/phy/framer.h"

#include <complex>

#include "zz/common/check.h"

namespace zz::phy {

FrameSync::FrameSync(FramerConfig cfg) : cfg_(cfg) {
  ZZ_CHECK_GE(cfg_.gap_hang, 1u);
  ZZ_CHECK_GT(cfg_.max_window, cfg_.gap_hang);
}

void FrameSync::close(std::uint64_t end, std::uint64_t decided_at,
                      std::vector<FrameWindow>& out) {
  out.push_back(FrameWindow{wbegin_, end, decided_at});
  open_ = false;
  silent_run_ = 0;
}

void FrameSync::push(const cplx* data, std::size_t count,
                     std::vector<FrameWindow>& out) {
  for (std::size_t i = 0; i < count; ++i) {
    const bool active = std::norm(data[i]) > cfg_.silence_eps;
    const std::uint64_t p = pos_++;
    if (!open_) {
      if (!active) continue;
      open_ = true;
      wbegin_ = p;
      active_end_ = p + 1;
      silent_run_ = 0;
      continue;
    }
    if (active) {
      active_end_ = p + 1;
      silent_run_ = 0;
    } else if (++silent_run_ >= cfg_.gap_hang) {
      // The window ends at the last active sample: the silence hang is a
      // closure *decision* delay, not window content, so the recovered
      // buffer matches the offline reception exactly.
      close(active_end_, p + 1, out);
      continue;
    }
    if (open_ && p + 1 - wbegin_ >= cfg_.max_window)
      close(p + 1, p + 1, out);
  }
}

void FrameSync::finish(std::vector<FrameWindow>& out) {
  if (open_) close(active_end_, pos_, out);
}

}  // namespace zz::phy
