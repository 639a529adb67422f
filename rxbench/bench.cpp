#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "zz/common/mathutil.h"
#include "zz/mac/timing.h"

namespace rxbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ Report

void Report::metric(std::string name, double value, std::string unit,
                    std::string note) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Report::print(const Options& opt) const {
  for (const auto& n : notes_) std::printf("# %s\n", n.c_str());
  for (const auto& f : failures_) std::printf("# CHECK FAILED: %s\n", f.c_str());
  for (const auto& m : metrics_)
    std::printf("%-40s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  std::printf("# workload=%s seed=%llu trace=%d attempted=%llu failed=%llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::string js = "{\"correct\": ";
  js += correct() ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(attempted);
  js += ", \"failed\": " + std::to_string(failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
    js += (i ? ", \"" : "\"") + json_escape(metrics_[i].name) +
          "\": {\"value\": " + num + ", \"unit\": \"" +
          json_escape(metrics_[i].unit) + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
}

// ----------------------------------------------------------------- Latency

Latency summarize_latency(std::vector<double> seconds) {
  if (seconds.size() < 20)
    throw std::runtime_error("latency: fewer than 20 samples (" +
                             std::to_string(seconds.size()) + ")");
  std::sort(seconds.begin(), seconds.end());
  const std::size_t n = seconds.size();
  Latency l;
  l.samples = n;
  l.p50_ms = 1e3 * (n % 2 ? seconds[n / 2]
                          : 0.5 * (seconds[n / 2 - 1] + seconds[n / 2]));
  // Rank N−10 (1-based) leaves exactly ten samples above it.
  l.tail_ms = 1e3 * seconds[n - 11];
  l.tail_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return l;
}

void report_latency(Report& r, const Latency& lat, std::string_view unit_name) {
  char note[128];
  std::snprintf(note, sizeof note, "median of %zu %.*s", lat.samples,
                static_cast<int>(unit_name.size()), unit_name.data());
  r.metric("latency_p50_ms", lat.p50_ms, "ms", note);
  std::snprintf(note, sizeof note, "p%.1f of %zu %.*s, 10 beyond", lat.tail_pct,
                lat.samples, static_cast<int>(unit_name.size()),
                unit_name.data());
  r.metric("latency_tail_ms", lat.tail_ms, "ms", note);
}

// ------------------------------------------------------------------ Tracer

void Tracer::add(std::string_view layer, double seconds) {
  auto it = layers_.find(layer);
  if (it == layers_.end()) it = layers_.emplace(std::string(layer), Totals{}).first;
  it->second.seconds += seconds;
  ++it->second.calls;
}

double Tracer::busy(std::string_view layer) const {
  const auto it = layers_.find(layer);
  return it == layers_.end() ? 0.0 : it->second.seconds;
}

std::uint64_t Tracer::calls(std::string_view layer) const {
  const auto it = layers_.find(layer);
  return it == layers_.end() ? 0 : it->second.calls;
}

// ------------------------------------------------------------------ Ledger

namespace {
constexpr double kBerThreshold = 1e-3;  // §5.1(f)
}

void Ledger::offer(const phy::TxFrame& frame) {
  Truth t;
  t.air[0] = phy::with_retry(frame, false).air_bits();
  t.air[1] = phy::with_retry(frame, true).air_bits();
  t.payload = frame.payload;
  const Key key{frame.header.sender_id, frame.header.seq};
  if (!truth_.emplace(key, std::move(t)).second)
    throw std::logic_error("ledger: packet offered twice");
}

Ledger::Verdict Ledger::judge(const phy::FrameHeader& h, const Bits& air_bits,
                              bool crc_ok, const Bytes& payload) const {
  const auto it = truth_.find({h.sender_id, h.seq});
  if (it == truth_.end()) return crc_ok ? Verdict::WrongCrc : Verdict::Phantom;
  const Truth& t = it->second;
  const bool good =
      zz::bit_error_rate(t.air[h.retry ? 1 : 0], air_bits) < kBerThreshold;
  if (crc_ok && (!good || payload != t.payload)) return Verdict::WrongCrc;
  return good ? Verdict::Delivered : Verdict::Undelivered;
}

void Ledger::record(const phy::FrameHeader& h, const Bits& air_bits,
                    bool crc_ok, const Bytes& payload) {
  Verdict v = judge(h, air_bits, crc_ok, payload);
  if (v == Verdict::Delivered) {
    Truth& t = truth_.at({h.sender_id, h.seq});
    if (t.delivered) {
      v = Verdict::Duplicate;
    } else {
      t.delivered = true;
      ++delivered_;
    }
  }
  if (v == Verdict::Duplicate) ++duplicates_;
  if (v == Verdict::Phantom) ++phantoms_;
  if (v == Verdict::WrongCrc) ++wrong_crc_;
}

double LossTally::loss_ratio() const {
  if (!offered) return 0.0;
  return static_cast<double>(offered - delivered + phantoms + duplicates) /
         static_cast<double>(offered);
}

// ------------------------------------------------------------------ Layers

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Names are <module>[.<file>].<metric>; README.md maps each to the
// end-to-end metric it should move.
constexpr LayerSpec kLayers[] = {
    {"farm.run_s", "s"},
    {"farm.cpu_util", "ratio"},
    {"farm.episodes", "count"},
    {"farm.rounds", "count"},
    {"farm.delivered", "count"},
    {"farm.collisions_resolved", "count"},
    {"farm.episode_allocs", "count"},
    {"farm.decode_cache_hit_ratio", "ratio"},
    {"farm.decode_cache_entries", "count"},
    {"farm.stream_windows", "count"},
    {"farm.stream_latency_samples", "samples"},
    {"emu.build_s", "s"},
    {"emu.receptions", "count"},
    {"emu.samples", "samples"},
    {"mac.patterns_s", "s"},
    {"zigzag.streaming.push_s", "s"},
    {"zigzag.streaming.push_calls", "count"},
    {"zigzag.streaming.windows", "count"},
    {"zigzag.streaming.joint_windows", "count"},
    {"zigzag.streaming.preamble_hints", "count"},
    {"zigzag.streaming.max_push_work", "samples"},
    {"zigzag.streaming.max_retained", "samples"},
    {"zigzag.streaming.decode_delay_samples", "samples"},
    {"zigzag.streaming.pending_peak", "count"},
    {"zigzag.detector.detect_s", "s"},
    {"zigzag.detector.calls", "count"},
    {"zigzag.detector.detections", "count"},
    {"zigzag.detector.precision", "ratio"},
    {"zigzag.detector.recall", "ratio"},
    {"zigzag.matcher.prepare_s", "s"},
    {"zigzag.matcher.score_s", "s"},
    {"zigzag.matcher.prepares", "count"},
    {"zigzag.matcher.scores", "count"},
    {"zigzag.matcher.match_precision", "ratio"},
    {"zigzag.matcher.match_recall", "ratio"},
    {"phy.estimate_s", "s"},
    {"phy.estimates", "count"},
    {"zigzag.decoder.decode_s", "s"},
    {"zigzag.decoder.calls", "count"},
    {"zigzag.decoder.chunks", "count"},
    {"zigzag.decoder.stall_breaks", "count"},
    {"zigzag.decoder.symbols", "count"},
    {"zigzag.decoder.crc_ok_ratio", "ratio"},
    {"zigzag.cache.hits", "count"},
    {"zigzag.cache.misses", "count"},
    {"zigzag.cache.hit_ratio", "ratio"},
    {"zigzag.scheduler.pairwise_s", "s"},
    {"zigzag.scheduler.order_s", "s"},
    {"zigzag.scheduler.extra_equations", "count"},
    {"zigzag.scheduler.greedy_s", "s"},
    {"zigzag.scheduler.greedy_calls", "count"},
    {"zigzag.scheduler.steps", "count"},
    {"zigzag.scheduler.rounds", "count"},
    {"zigzag.scheduler.fail_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

}  // namespace

void Layers::set(const std::string& name, double value) {
  for (const auto& l : kLayers)
    if (name == l.name) {
      values_[name] = value;
      return;
    }
  throw std::logic_error("unknown layer metric " + name);
}

void Layers::report(Report& r) const {
  for (const auto& l : kLayers) {
    const auto it = values_.find(l.name);
    r.metric(l.name, it == values_.end() ? 0.0 : it->second, l.unit);
  }
}

// ------------------------------------------------------------------ Inputs

Client make_client(zz::Rng& rng, std::uint8_t id, double snr_db) {
  Client c;
  chan::ImpairmentConfig icfg;
  icfg.snr_db = snr_db;
  icfg.freq_offset_max = 2e-3;
  c.channel = chan::random_channel(rng, icfg);
  c.profile.id = id;
  c.profile.freq_offset = c.channel.freq_offset + rng.uniform(-2e-5, 2e-5);
  c.profile.snr_db = snr_db;
  c.profile.mod = phy::Modulation::BPSK;
  c.profile.isi = c.channel.isi;
  if (!c.channel.isi.is_identity())
    c.profile.equalizer = c.channel.isi.inverse(7, 3);
  return c;
}

phy::TxFrame make_frame(zz::Rng& rng, std::uint8_t id, std::uint16_t seq,
                        std::size_t payload_bytes) {
  phy::FrameHeader h;
  h.sender_id = id;
  h.seq = seq;
  h.payload_mod = phy::Modulation::BPSK;
  h.payload_bytes = static_cast<std::uint16_t>(payload_bytes);
  return phy::build_frame(h, rng.bytes(payload_bytes));
}

emu::Reception log_collision(zz::Rng& rng, const std::vector<Client>& clients,
                             const std::vector<phy::TxFrame>& frames,
                             int stage, bool retry) {
  constexpr std::ptrdiff_t kSlotSamples = 20;  // 20 µs at 500 kb/s, 2 sps
  const zz::mac::DcfTiming timing;
  std::vector<std::ptrdiff_t> offs(clients.size());
  for (auto& o : offs)
    o = rng.uniform_int(0, timing.cw_after(stage)) * kSlotSamples;
  const std::ptrdiff_t base = *std::min_element(offs.begin(), offs.end());
  emu::CollisionBuilder builder;
  builder.lead(64);
  for (std::size_t i = 0; i < clients.size(); ++i)
    builder.add(phy::with_retry(frames[i], retry),
                chan::retransmission_channel(rng, clients[i].channel, 0.0),
                offs[i] - base);
  return builder.build(rng);
}

}  // namespace rxbench
