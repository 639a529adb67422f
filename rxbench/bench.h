// Shared machinery of the receiver benchmark: run options, the metric
// report, latency summaries, the out-of-program span tracer, §5.1(f)
// delivery scoring against the emulator's ground truth, and the input
// generators the decode workloads share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "zz/chan/channel.h"
#include "zz/common/rng.h"
#include "zz/common/types.h"
#include "zz/emu/collision.h"
#include "zz/phy/frame.h"
#include "zz/phy/receiver.h"
#include "zz/phy/transmitter.h"

namespace rxbench {

namespace chan = zz::chan;
namespace emu = zz::emu;
namespace phy = zz::phy;
using zz::Bits;
using zz::Bytes;
using zz::CVec;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (all threads), seconds.
double process_cpu_seconds();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< traced run: per-layer metrics instead
};

/// Everything one run prints: the metrics, the operation counts and the
/// verdict of the correctness checks.
class Report {
 public:
  void metric(std::string name, double value, std::string unit,
              std::string note = {});
  /// Records a failed check; the run then exits non-zero.
  void fail(const std::string& why);
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failures_.empty(); }
  std::uint64_t attempted = 0;  ///< receiver operations issued
  std::uint64_t failed = 0;     ///< operations that threw or lied

  /// Human-readable lines, then the one-line JSON result.
  void print(const Options& opt) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

/// Median and tail of per-unit latencies. The tail is the highest
/// percentile that still has at least ten samples beyond it — the
/// (N−10)-th smallest of N samples, at percentile 100·(N−10)/N.
struct Latency {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_pct = 0.0;
  std::size_t samples = 0;
};
/// Needs at least 20 samples (so the median has ten beyond it too).
Latency summarize_latency(std::vector<double> seconds);
/// Adds latency_p50_ms and latency_tail_ms to the report, with the tail
/// percentile and the sample count beside them.
void report_latency(Report& r, const Latency& lat, std::string_view unit_name);

/// Spans recorded from outside the program: per layer, the summed duration
/// and the number of the calls wrapped. Off, span() is a plain call.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  /// Calls f() and returns its result, timed as a call of `layer`.
  template <class F>
  auto span(std::string_view layer, F&& f) {
    if (!on_) return f();
    const auto t0 = Clock::now();
    auto out = f();
    add(layer, seconds_since(t0));
    return out;
  }

  /// Summed duration of the layer's calls, seconds.
  double busy(std::string_view layer) const;
  std::uint64_t calls(std::string_view layer) const;

 private:
  struct Totals {
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };
  void add(std::string_view layer, double seconds);

  bool on_;
  std::map<std::string, Totals, std::less<>> layers_;
};

/// §5.1(f) delivery scoring: a handed-up packet delivers an offered packet
/// when its header names it and its uncoded BER against the transmitted
/// bits (with the retry flag matched) is below 1e-3.
class Ledger {
 public:
  enum class Verdict {
    Delivered,    ///< a new offered packet delivered
    Duplicate,    ///< an already-delivered packet again (a failure)
    Phantom,      ///< names no offered packet (a failure)
    Undelivered,  ///< best-effort decode above the BER threshold
    WrongCrc,     ///< crc_ok vouches for bits that are not the truth
  };

  void offer(const phy::TxFrame& frame);
  /// Classify without recording (Duplicate is never returned).
  Verdict judge(const phy::FrameHeader& h, const Bits& air_bits, bool crc_ok,
                const Bytes& payload) const;
  /// Classify and count the delivery.
  void record(const phy::FrameHeader& h, const Bits& air_bits, bool crc_ok,
              const Bytes& payload);

  std::size_t offered() const { return truth_.size(); }
  std::size_t delivered() const { return delivered_; }
  std::size_t phantoms() const { return phantoms_; }
  std::size_t duplicates() const { return duplicates_; }
  std::size_t wrong_crc() const { return wrong_crc_; }

 private:
  struct Truth {
    Bits air[2];  ///< air bits with the retry flag clear / set
    Bytes payload;
    bool delivered = false;
  };
  using Key = std::pair<std::uint8_t, std::uint16_t>;
  std::map<Key, Truth> truth_;
  std::size_t delivered_ = 0, phantoms_ = 0, duplicates_ = 0, wrong_crc_ = 0;
};

/// Packets offered and lost: loss counts every offered packet not
/// delivered plus every phantom or duplicate delivery.
struct LossTally {
  std::uint64_t offered = 0, delivered = 0, phantoms = 0, duplicates = 0;
  double loss_ratio() const;
};

/// One associated client: its long-term channel and the profile the AP
/// learned at association (as the scenario engine draws them).
struct Client {
  chan::ChannelParams channel;
  phy::SenderProfile profile;
};
Client make_client(zz::Rng& rng, std::uint8_t id, double snr_db);

/// A BPSK frame of sender `id` with `payload_bytes` random bytes.
phy::TxFrame make_frame(zz::Rng& rng, std::uint8_t id, std::uint16_t seq,
                        std::size_t payload_bytes);

/// One logged collision of `frames` (one per client), each sender backing
/// off uniformly in [0, cw_after(stage)] slots of 20 samples; the retry
/// flag is set when `retry`.
emu::Reception log_collision(zz::Rng& rng, const std::vector<Client>& clients,
                             const std::vector<phy::TxFrame>& frames,
                             int stage, bool retry);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Median of `v` (the upper one of an even count).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Runs `setup` `reps` times and returns the median duration, seconds.
/// Each call must rebuild the same state from the seed.
template <class F>
double median_setup_seconds(int reps, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

/// The machine-independent work counters of one unit of a workload (a
/// batch, session, round or block). Re-running a unit at the same seed must
/// reproduce them exactly.
using Counts = std::vector<std::uint64_t>;

/// Runs a workload's fixed list of units. Every run of a unit after its
/// first must reproduce the first run's counts (the determinism pin);
/// run_unit(i) runs unit i and returns its counts.
class Passes {
 public:
  Passes(std::size_t units, Report& report)
      : first_(units), seen_(units, false), report_(report) {}

  template <class F>
  void run(std::size_t i, F&& run_unit) {
    Counts c = run_unit(i);
    if (!seen_[i]) {
      first_[i] = std::move(c);
      seen_[i] = true;
    } else if (c != first_[i]) {
      report_.fail("determinism: a rerun of unit " + std::to_string(i) +
                   " changed its counts");
    }
  }

  /// The untraced timed phase: the whole list once, then again from unit 0
  /// until `seconds` have gone by. Returns wall seconds and units run.
  template <class F>
  std::pair<double, std::size_t> timed(double seconds, F&& run_unit) {
    const auto t0 = Clock::now();
    std::size_t done = 0;
    for (;;)
      for (std::size_t i = 0; i < first_.size(); ++i) {
        if (done >= first_.size() && seconds_since(t0) >= seconds)
          return {seconds_since(t0), done};
        run(i, run_unit);
        ++done;
      }
  }

  /// Units 0..n-1 once; wall seconds.
  template <class F>
  double one_pass(std::size_t n, F&& run_unit) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) run(i, run_unit);
    return seconds_since(t0);
  }

  /// Counts of unit i's first run.
  const Counts& first(std::size_t i) const { return first_[i]; }
  /// Sum of the first-run counts of units 0..n-1 taken cyclically, i.e.
  /// of the first n units a timed phase ran.
  Counts sum(std::size_t n) const {
    Counts total(first_[0].size(), 0);
    for (std::size_t u = 0; u < n; ++u)
      for (std::size_t k = 0; k < total.size(); ++k)
        total[k] += first_[u % first_.size()][k];
    return total;
  }

 private:
  std::vector<Counts> first_;
  std::vector<bool> seen_;
  Report& report_;
};

/// The per-layer metrics of the traced run. Every workload prints the
/// whole list; a layer the workload never reaches reads 0.
class Layers {
 public:
  void set(const std::string& name, double value);
  void report(Report& r) const;

 private:
  std::map<std::string, double> values_;
};

/// Ratio a/b, 0 when b is 0.
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace rxbench
