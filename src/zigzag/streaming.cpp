#include "zz/zigzag/streaming.h"

#include <algorithm>

namespace zz::zigzag {

StreamingReceiver::StreamingReceiver(StreamingOptions opt)
    : rx_(std::move(opt.receiver)), ring_(4096), framer_(opt.framer) {}

void StreamingReceiver::add_client(const phy::SenderProfile& profile) {
  rx_.add_client(profile);
}

void StreamingReceiver::add_clients(
    std::span<const phy::SenderProfile> profiles) {
  for (const auto& p : profiles) add_client(p);
}

void StreamingReceiver::handle_closed(const phy::FrameWindow& w,
                                      std::vector<StreamDelivered>& out) {
  // Decode the materialized window through the unmodified offline engine.
  // The window IS the logged reception — bit for bit — so everything
  // downstream (detector, matcher, chunk decoder, DecodeCache, pending
  // store) behaves exactly as the offline route.
  ring_.copy_range(w.begin, w.end, window_buf_);
  last_work_ += window_buf_.size();
  ++stats_.windows;
  for (auto& d : rx_.receive(window_buf_))
    out.push_back(StreamDelivered{std::move(d), w.begin, w.end, w.decided_at});
  // The window decode's own §4.2.1 detection is the one preamble count:
  // ≥2 starts in one window is a collision.
  const std::size_t starts = rx_.last_detections();
  stats_.preamble_hints += starts;
  if (starts >= 2) ++stats_.joint_windows;

  ring_.drop_before(w.end);
}

std::vector<StreamDelivered> StreamingReceiver::push(const cplx* data,
                                                     std::size_t count) {
  const ReentryScope guard(busy_, "StreamingReceiver::push");
  last_work_ = 0;
  stats_.samples_in += count;
  ring_.push(data, count);
  stats_.max_retained = std::max(stats_.max_retained, ring_.size());
  windows_.clear();
  framer_.push(data, count, windows_);
  last_work_ += 2 * count;  // ring ingest + framing

  std::vector<StreamDelivered> out;
  for (const auto& w : windows_) handle_closed(w, out);

  // Idle medium: nothing retained — the ring stays bounded by the largest
  // window, not by stream length.
  if (!framer_.in_window()) ring_.drop_before(ring_.end_pos());
  stats_.max_push_work = std::max(stats_.max_push_work, last_work_);
  return out;
}

std::vector<StreamDelivered> StreamingReceiver::finish() {
  const ReentryScope guard(busy_, "StreamingReceiver::finish");
  last_work_ = 0;
  windows_.clear();
  framer_.finish(windows_);
  std::vector<StreamDelivered> out;
  for (const auto& w : windows_) handle_closed(w, out);
  ring_.drop_before(ring_.end_pos());
  stats_.max_push_work = std::max(stats_.max_push_work, last_work_);
  return out;
}

}  // namespace zz::zigzag
