// Bench driver: runs the paper-reproduction benches that live next to this
// binary and emits a machine-readable BENCH_decoder.json baseline.
//
// Usage:
//   run_all [--quick | --full] [--check] [--bin-dir <dir>] [--out <file>]
//           [--only <name,name,...>] [--wall-scale <x>]
//
// --only restricts the run to a comma-separated subset of the baseline
// benches (ci.sh --sanitize uses it for a fast deterministic subset sized
// for sanitizer overhead). --wall-scale multiplies every wall-time budget —
// sanitizer instrumentation slows the benches 2-10x, and without the
// multiplier --check would hard-fail budgets that measure the tool, not a
// regression.
//
// The committed baseline covers EVERY deterministic paper bench: the
// headline subset the ROADMAP's perf/accuracy trajectory tracks
// (table_5_1_micro, fig_5_3_ber, n_sender_sweep, baseline_comparison)
// plus the remaining fig_*/lemma_* benches — all sharded-RNG reproducible,
// so all drift-gated. Each bench's stdout is captured verbatim into the
// JSON together with its wall-clock time, so later PRs can diff both the
// numbers and the cost of producing them.
//
// --check turns the driver into a regression gate: it parses the captured
// tables and fails the run when the detector accuracy drifts off the
// Table 5.1(a) operating point, the Fig 5-3 BER curve loses its
// monotonicity (the high-SNR anomaly this repo once shipped), an n-sender
// fairness or head-to-head ordering gate breaks (n_sender_sweep,
// baseline_comparison), any deterministic bench's stdout drifts from the
// committed baseline, or a bench's wall time blows past its recorded
// budget (~2.5x measured cost).
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

struct BenchRun {
  std::string name;
  int exit_code = -1;
  double wall_ms = 0.0;
  std::vector<std::string> stdout_lines;
};

// The committed baseline: the headline perf/accuracy subset first, then
// the remaining deterministic fig_*/lemma_* benches (folded into the
// baseline + drift gate once the decode hot path made them cheap enough to
// run gated in CI). complexity is excluded: it is a Google Benchmark
// binary with its own JSON emitter.
const char* const kBaselineBenches[] = {
    "table_5_1_micro",      "fig_5_3_ber",
    "n_sender_sweep",       "baseline_comparison",
    "error_propagation",    "fig_4_2_correlation",
    "fig_4_7_greedy_failure", "fig_5_2_tracking_isi",
    "fig_5_4_capture",      "fig_5_5_throughput_cdf",
    "fig_5_6_loss_cdf",     "fig_5_7_scatter",
    "fig_5_8_hidden_loss",  "fig_5_9_three_senders",
    "lemma_4_4_1_ack",      "streaming_pipeline",
    "ap_farm"};

// Every bench's stdout is fully deterministic (sharded RNG, thread-count
// independent — test-pinned for the sweeps), so --check --baseline diffs
// every bench verbatim against the committed baseline.

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

BenchRun run_bench(const std::string& bin_dir, const std::string& name) {
  BenchRun r;
  r.name = name;
  // Merge stderr into the captured stream so failures are visible in the
  // baseline file, not lost to the console. bin_dir is single-quoted so
  // spaces/metacharacters in the path survive the shell.
  const std::string cmd = "'" + bin_dir + "/" + name + "' 2>&1";
  const auto t0 = std::chrono::steady_clock::now();
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) {
    r.exit_code = 127;
    r.stdout_lines.push_back("run_all: failed to spawn " + cmd);
    return r;
  }
  std::string line;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe)) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      r.stdout_lines.push_back(line);
      line.clear();
    }
  }
  if (!line.empty()) r.stdout_lines.push_back(line);
  const int status = pclose(pipe);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (status < 0) {
    r.exit_code = status;
  } else if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    // Shell convention: a bench killed by a signal must not read as a pass.
    r.exit_code = 128 + WTERMSIG(status);
  } else {
    r.exit_code = -1;
  }
  return r;
}

void write_json(const std::string& path, const std::string& scale,
                const std::vector<BenchRun>& runs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "run_all: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"zz-bench-baseline-v1\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.c_str());
  std::fprintf(f, "  \"benches\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", json_escape(r.name).c_str());
    std::fprintf(f, "      \"exit_code\": %d,\n", r.exit_code);
    std::fprintf(f, "      \"wall_ms\": %.1f,\n", r.wall_ms);
    std::fprintf(f, "      \"stdout\": [\n");
    for (std::size_t j = 0; j < r.stdout_lines.size(); ++j) {
      std::fprintf(f, "        \"%s\"%s\n", json_escape(r.stdout_lines[j]).c_str(),
                   j + 1 < r.stdout_lines.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

std::string dir_of(const char* argv0) {
  std::string s(argv0);
  const auto slash = s.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : s.substr(0, slash);
}

// ------------------------------------------------------------------ checks

// Split a markdown-ish table row "| a | b | c |" into cell strings.
std::vector<std::string> row_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  bool in = false;
  for (const char c : line) {
    if (c == '|') {
      if (in) {
        while (!cur.empty() && cur.back() == ' ') cur.pop_back();
        cells.push_back(cur);
      }
      cur.clear();
      in = true;
    } else if (in && !(cur.empty() && c == ' ')) {
      cur += c;
    }
  }
  return cells;
}

int check_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "run_all --check FAILED: %s\n", what.c_str());
    ++check_failures;
  }
}

// Table 5.1(a): the β = 0.65 row must stay at the calibrated operating
// point. Quick runs use a quarter of the samples, so their gates carry
// binomial slack.
void check_table_5_1(const BenchRun& r, bool quick) {
  const double fp_max = quick ? 15.0 : 10.0;
  const double fn_max = quick ? 10.0 : 5.0;
  bool seen = false;
  for (const auto& line : r.stdout_lines) {
    const auto cells = row_cells(line);
    if (cells.size() != 3 || cells[0] != "0.65") continue;
    seen = true;
    const double fp = std::strtod(cells[1].c_str(), nullptr);
    const double fn = std::strtod(cells[2].c_str(), nullptr);
    check(fp <= fp_max, "table_5_1(a) beta=0.65 FP " + cells[1] +
                            " above " + std::to_string(fp_max) + "%");
    check(fn <= fn_max, "table_5_1(a) beta=0.65 FN " + cells[2] +
                            " above " + std::to_string(fn_max) + "%");
  }
  check(seen, "table_5_1(a): beta=0.65 row not found in output");
}

// Fig 5-3: the fwd+bwd BER column must be monotonically non-increasing
// from 5 to 12 dB (within a small slack for single-bit noise) and free of
// the high-SNR anomaly (BER at >= 10 dB back above 5e-4).
void check_fig_5_3(const BenchRun& r, bool quick) {
  const double slack = quick ? 1e-3 : 5e-5;
  const double tail_max = quick ? 2e-3 : 5e-4;
  double prev = -1.0;
  std::size_t rows = 0;
  for (const auto& line : r.stdout_lines) {
    const auto cells = row_cells(line);
    if (cells.size() != 5) continue;
    char* end = nullptr;
    const double snr = std::strtod(cells[0].c_str(), &end);
    if (end == cells[0].c_str() || snr < 5.0 || snr > 12.0) continue;
    const double ber = std::strtod(cells[3].c_str(), nullptr);
    ++rows;
    if (prev >= 0.0)
      check(ber <= prev + slack,
            "fig_5_3 fwd+bwd BER not monotone at " + cells[0] + " dB (" +
                cells[3] + " after " + std::to_string(prev) + ")");
    if (snr >= 10.0)
      check(ber <= tail_max, "fig_5_3 fwd+bwd BER " + cells[3] + " at " +
                                 cells[0] + " dB above the high-SNR gate");
    prev = ber;
  }
  check(rows == 8, "fig_5_3: expected 8 SNR rows, found " +
                       std::to_string(rows));
}

// n_sender_sweep: every n = 2..6 must hold its fair ~1/n share under
// ZigZag (the §5.7 result generalized). The fairness table's rows carry
// | n | mean tput | fair share | ratio | fairness | loss |; the CDF table
// above it also has 6-cell rows, so rows only count once the fairness
// header has been seen.
void check_n_sender_sweep(const BenchRun& r, bool quick) {
  const double ratio_min = quick ? 0.85 : 0.90;
  const double fairness_min = quick ? 0.90 : 0.95;
  bool in_fair = false;
  std::size_t rows = 0;
  for (const auto& line : r.stdout_lines) {
    const auto cells = row_cells(line);
    if (cells.size() != 6) continue;
    if (cells[2] == "fair share") {
      in_fair = true;
      continue;
    }
    if (!in_fair) continue;
    char* end = nullptr;
    const double n = std::strtod(cells[0].c_str(), &end);
    if (end == cells[0].c_str() || n < 2.0 || n > 6.0) continue;
    ++rows;
    const double ratio = std::strtod(cells[3].c_str(), nullptr);
    const double fairness = std::strtod(cells[4].c_str(), nullptr);
    check(ratio >= ratio_min, "n_sender_sweep n=" + cells[0] +
                                  " fair-share ratio " + cells[3] +
                                  " below " + std::to_string(ratio_min));
    check(fairness >= fairness_min, "n_sender_sweep n=" + cells[0] +
                                        " Jain fairness " + cells[4] +
                                        " below " +
                                        std::to_string(fairness_min));
  }
  check(rows == 5, "n_sender_sweep: expected 5 n-rows, found " +
                       std::to_string(rows));
}

// baseline_comparison: the head-to-head ordering must hold at every
// n = 2..6 (see bench/README.md for the documented bands):
//   * zigzag mean per-sender throughput >= stock 802.11's (the paper's
//     core claim, generalized),
//   * algebraic-mp within [kMpBandLo, kMpBandHi] of zigzag — clearly
//     working (it decodes the same logs) but not mysteriously beating the
//     full §4.2.4 tracking receiver,
//   * slotted-ALOHA-zigzag above a positive floor (collision recovery
//     working despite idle slots and k>2 pileups).
// Rows are parsed from the 7-cell CDF table: | n | receiver | p0 | p50 |
// p100 | mean tput | mean loss |.
void check_baseline_comparison(const BenchRun& r, bool quick) {
  const double mp_lo = quick ? 0.45 : 0.60;
  const double mp_hi = quick ? 1.15 : 1.05;
  const double slotted_min = quick ? 0.03 : 0.04;
  struct Row {
    double zz = -1.0, mp = -1.0, slotted = -1.0, dot11 = -1.0;
  };
  Row rows[7];  // indexed by n
  std::size_t seen = 0;
  for (const auto& line : r.stdout_lines) {
    const auto cells = row_cells(line);
    if (cells.size() != 7 || cells[1] == "receiver") continue;
    char* end = nullptr;
    const double nd = std::strtod(cells[0].c_str(), &end);
    if (end == cells[0].c_str() || nd < 2.0 || nd > 6.0) continue;
    const auto n = static_cast<std::size_t>(nd);
    const double mean = std::strtod(cells[5].c_str(), nullptr);
    if (cells[1] == "zigzag") rows[n].zz = mean;
    else if (cells[1] == "algebraic-mp") rows[n].mp = mean;
    else if (cells[1] == "slotted-zz") rows[n].slotted = mean;
    else if (cells[1] == "802.11") rows[n].dot11 = mean;
    else continue;
    ++seen;
  }
  check(seen == 20, "baseline_comparison: expected 20 head rows, found " +
                        std::to_string(seen));
  for (std::size_t n = 2; n <= 6; ++n) {
    const Row& row = rows[n];
    if (row.zz < 0.0 || row.mp < 0.0 || row.slotted < 0.0 || row.dot11 < 0.0)
      continue;  // the row-count check already fired
    const std::string at = " at n=" + std::to_string(n);
    check(row.zz >= row.dot11, "baseline_comparison: zigzag throughput " +
                                   std::to_string(row.zz) + " below 802.11 " +
                                   std::to_string(row.dot11) + at);
    check(row.zz > 0.0, "baseline_comparison: zigzag throughput zero" + at);
    const double ratio = row.zz > 0.0 ? row.mp / row.zz : 0.0;
    check(ratio >= mp_lo && ratio <= mp_hi,
          "baseline_comparison: algebraic-mp/zigzag ratio " +
              std::to_string(ratio) + " outside [" + std::to_string(mp_lo) +
              ", " + std::to_string(mp_hi) + "]" + at);
    check(row.slotted >= slotted_min,
          "baseline_comparison: slotted-zz throughput " +
              std::to_string(row.slotted) + " below " +
              std::to_string(slotted_min) + at);
  }
}

// streaming_pipeline: the streaming contract and the streaming-route
// fairness, gated structurally (the exact numbers are drift-gated by the
// baseline diff like every other deterministic bench):
//   * every Live-vs-Streaming identity row must read "yes" — the stream
//     delivering different packets than the offline route is a pipeline
//     bug, never a tuning choice;
//   * the latency table must show a bounded per-push work figure and a
//     nonzero delivery count at every n;
//   * the streaming-route n-sender sweep must hold Jain fairness >= 0.90
//     at n = 3 — the gate the live route could not pass before the n-way
//     matching fixes. (The fair-share RATIO is not gated here: on the
//     live/streaming route airtime includes idle contention rounds, so
//     ratio << 1 is the methodology, not a regression — n_sender_sweep's
//     LoggedJoint rounds are lockstep and carry that gate. n = 4 is
//     reported but ungated: at quick scale its single run is degenerate.)
void check_streaming_pipeline(const BenchRun& r, bool quick) {
  const double fairness_min = quick ? 0.80 : 0.90;
  std::size_t ident_rows = 0, lat_rows = 0, fair_rows = 0;
  bool in_fair = false;
  for (const auto& line : r.stdout_lines) {
    const auto cells = row_cells(line);
    if (cells.size() == 6 && cells[1] != "seed" && cells[5] != "loss" &&
        !in_fair && cells[2] != "fair share") {
      // | n | seed | live | stream | airtime | identical |
      ++ident_rows;
      check(cells[5] == "yes", "streaming_pipeline: n=" + cells[0] +
                                   " seed=" + cells[1] +
                                   " stream diverged from live");
    }
    if (cells.size() == 7 && cells[1] != "samples") {
      // | n | samples | windows | delivered | first at | mean lat | max push |
      ++lat_rows;
      check(std::strtod(cells[3].c_str(), nullptr) > 0.0,
            "streaming_pipeline: no deliveries at n=" + cells[0]);
      check(std::strtod(cells[6].c_str(), nullptr) > 0.0,
            "streaming_pipeline: missing per-push work pin at n=" + cells[0]);
    }
    if (cells.size() == 6 && cells[2] == "fair share") {
      in_fair = true;
      continue;
    }
    if (in_fair && cells.size() == 6) {
      char* end = nullptr;
      const double n = std::strtod(cells[0].c_str(), &end);
      if (end == cells[0].c_str() || n < 2.0 || n > 4.0) continue;
      ++fair_rows;
      if (n == 3.0)
        check(std::strtod(cells[4].c_str(), nullptr) >= fairness_min,
              "streaming_pipeline: streaming Jain fairness " + cells[4] +
                  " below " + std::to_string(fairness_min) + " at n=" + cells[0]);
    }
  }
  check(ident_rows == 6, "streaming_pipeline: expected 6 identity rows, found " +
                             std::to_string(ident_rows));
  check(lat_rows == 3, "streaming_pipeline: expected 3 latency rows, found " +
                           std::to_string(lat_rows));
  check(fair_rows == 3, "streaming_pipeline: expected 3 fairness rows, found " +
                            std::to_string(fair_rows));
}

// Multiplier applied to every wall budget and perf floor (--wall-scale);
// 1.0 in plain runs, >1 under sanitizer instrumentation.
double wall_scale = 1.0;

// ap_farm: the farm determinism and soak gates plus the perf floors:
//   * every determinism row must read "yes" — the merged farm result is
//     bit-identical at any worker count, by construction and by gate;
//   * every steady-state soak row must report ZERO episode allocations and
//     zero memo misses — the endless-stream steady state is memo replay;
//   * the 1-worker sustained packet rate must clear a floor (scaled down
//     under --quick and by --wall-scale, which measures the sanitizer, not
//     the code);
//   * scaling efficiency at 4 workers must clear 0.7 — but only when the
//     machine actually has >= 4 hardware cores (the bench reports
//     hw_cores); oversubscribed 1-core containers measure the scheduler.
void check_ap_farm(const BenchRun& r, bool quick) {
  // The floor is a collapse detector, not a perf target (the recorded
  // perf lines carry the trajectory): sized for a loaded 1-core CI
  // container at ~1/6 of the measured 34 pkts/s.
  const double pkts_floor = (quick ? 3.0 : 5.0) / wall_scale;
  std::size_t det_rows = 0, steady_rows = 0;
  bool grid_total = false;
  unsigned hw_cores = 0;
  double eff4 = -1.0, pkts1 = -1.0;
  for (const auto& line : r.stdout_lines) {
    if (line.rfind("perf:", 0) == 0) {
      unsigned hw = 0;
      if (std::sscanf(line.c_str(), "perf: hw_cores=%u", &hw) == 1)
        hw_cores = hw;
      std::size_t w = 0;
      double wall = 0.0, eps = 0.0, pkts = 0.0, res = 0.0, eff = 0.0;
      if (std::sscanf(line.c_str(),
                      "perf: workers=%zu wall_ms=%lf episodes/s=%lf "
                      "pkts/s=%lf resolved/s=%lf eff=%lf",
                      &w, &wall, &eps, &pkts, &res, &eff) == 6) {
        if (w == 1) pkts1 = pkts;
        if (w == 4) eff4 = eff;
      }
      continue;
    }
    const auto cells = row_cells(line);
    if (cells.size() == 2 && cells[1] != "identical") {
      ++det_rows;
      check(cells[1] == "yes", "ap_farm: result at workers=" + cells[0] +
                                   " diverged from the 1-worker farm");
    }
    if (cells.size() == 6 && cells[0].rfind("steady-", 0) == 0) {
      ++steady_rows;
      check(cells[2] == "0", "ap_farm: soak run " + cells[0] +
                                 " allocated (" + cells[2] +
                                 " episode allocs; steady state must be 0)");
      check(cells[4] == "0", "ap_farm: soak run " + cells[0] +
                                 " missed the episode memo " + cells[4] +
                                 " times");
    }
    if (cells.size() == 7 && cells[0] == "all") {
      grid_total = true;
      check(std::strtod(cells[4].c_str(), nullptr) > 0.0,
            "ap_farm: farm delivered nothing");
      check(std::strtod(cells[5].c_str(), nullptr) > 0.0,
            "ap_farm: farm resolved no collisions");
    }
  }
  check(grid_total, "ap_farm: grid total row not found");
  check(det_rows == 3, "ap_farm: expected 3 determinism rows, found " +
                           std::to_string(det_rows));
  check(steady_rows == 2, "ap_farm: expected 2 steady soak rows, found " +
                              std::to_string(steady_rows));
  check(pkts1 >= pkts_floor,
        "ap_farm: 1-worker sustained rate " + std::to_string(pkts1) +
            " pkts/s below the " + std::to_string(pkts_floor) + " floor");
  if (hw_cores >= 4)
    check(eff4 >= 0.7, "ap_farm: 4-worker scaling efficiency " +
                           std::to_string(eff4) + " below 0.7 on " +
                           std::to_string(hw_cores) + " cores");
}

// Wall-time guard: ~2.5x the recorded cost of each bench at the given
// scale; a regression to the old O(N·M) correlation path or per-symbol
// interpolation route trips this. Budgets were tightened to the batched
// decode-engine numbers (PR 5); tiny benches get a 2 s floor so machine
// noise cannot flake them. --full runs 4x the samples (bench_util
// run_scale), so its budgets scale.
void check_wall_time(const BenchRun& r, bool quick, bool full) {
  double budget_ms = 0.0;
  // Headline subset (measured single-core: 5.9 s / 2.2 s / 8.8 s / 9.0 s).
  if (r.name == "table_5_1_micro") budget_ms = quick ? 8000.0 : 15000.0;
  if (r.name == "fig_5_3_ber") budget_ms = quick ? 4000.0 : 6000.0;
  if (r.name == "n_sender_sweep") budget_ms = quick ? 5000.0 : 22000.0;
  if (r.name == "baseline_comparison") budget_ms = quick ? 10000.0 : 25000.0;
  // Measured 25 s single-core: every identity row runs its scenario twice
  // (Live then Streaming), plus the streaming-route sweep.
  if (r.name == "streaming_pipeline") budget_ms = quick ? 15000.0 : 60000.0;
  // The saturation grid runs 6x (1/2/4/8-worker sweep + warm soak runs);
  // oversubscribed worker counts cost scheduler time on small machines.
  if (r.name == "ap_farm") budget_ms = quick ? 20000.0 : 60000.0;
  if (budget_ms == 0.0) {
    // Folded fig_*/lemma_* benches (measured 0.01-9.1 s single-core).
    // Quick runs quarter the samples, so their budgets scale to 0.4x with
    // the same 2 s machine-noise floor.
    if (r.name == "fig_4_7_greedy_failure") budget_ms = 7000.0;
    if (r.name == "fig_5_4_capture") budget_ms = 20000.0;
    if (r.name == "fig_5_8_hidden_loss") budget_ms = 20000.0;
    if (r.name == "fig_5_5_throughput_cdf") budget_ms = 5000.0;
    if (r.name == "fig_5_6_loss_cdf") budget_ms = 4000.0;
    if (r.name == "fig_5_7_scatter") budget_ms = 6000.0;
    if (r.name == "fig_5_9_three_senders") budget_ms = 7000.0;
    if (r.name == "error_propagation" || r.name == "fig_4_2_correlation" ||
        r.name == "fig_5_2_tracking_isi" || r.name == "lemma_4_4_1_ack")
      budget_ms = 2000.0;
    if (quick && budget_ms > 0.0)
      budget_ms = std::max(2000.0, 0.4 * budget_ms);
  }
  if (full) budget_ms *= 4.0;
  budget_ms *= wall_scale;
  if (budget_ms > 0.0)
    check(r.wall_ms <= budget_ms,
          r.name + " took " + std::to_string(r.wall_ms) + " ms (budget " +
              std::to_string(budget_ms) + " ms)");
}

// ------------------------------------------------- baseline drift (--check)

// Minimal reader for the committed baseline: the per-bench "stdout" arrays
// in their escaped on-disk form, plus the recorded scale.
struct Baseline {
  std::string scale;
  std::vector<std::pair<std::string, std::vector<std::string>>> benches;
};

std::string strip(const std::string& s) {
  std::size_t a = 0, b = s.size();
  while (a < b && (s[a] == ' ' || s[a] == '\t')) ++a;
  while (b > a && (s[b - 1] == ' ' || s[b - 1] == '\t' || s[b - 1] == '\r' ||
                   s[b - 1] == '\n'))
    --b;
  return s.substr(a, b - a);
}

// Extract the value of a `"key": "value"` line (escaped form, no unescape).
bool quoted_value(const std::string& line, const std::string& key,
                  std::string* out) {
  const std::string prefix = "\"" + key + "\": \"";
  const auto at = line.find(prefix);
  if (at == std::string::npos) return false;
  const auto start = at + prefix.size();
  auto end = line.rfind('"');
  if (end == std::string::npos || end <= start) return false;
  *out = line.substr(start, end - start);
  return true;
}

bool load_baseline(const std::string& path, Baseline* out) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return false;
  char buf[1 << 16];
  std::string cur_name;
  bool in_stdout = false;
  while (std::fgets(buf, sizeof buf, f)) {
    const std::string line = strip(buf);
    std::string v;
    if (quoted_value(line, "scale", &v)) {
      out->scale = v;
    } else if (quoted_value(line, "name", &v)) {
      cur_name = v;
      out->benches.push_back({cur_name, {}});
    } else if (line.rfind("\"stdout\":", 0) == 0) {
      // A malformed file can present a stdout array before any bench
      // name; there is nowhere to attach those lines, so skip the array.
      in_stdout = !out->benches.empty();
    } else if (in_stdout) {
      if (line == "]" || line == "],") {
        in_stdout = false;
      } else if (line.size() >= 2 && line.front() == '"') {
        std::string s = line;
        if (!s.empty() && s.back() == ',') s.pop_back();
        if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
          out->benches.back().second.push_back(s.substr(1, s.size() - 2));
      }
    }
  }
  std::fclose(f);
  return true;
}

// Diff a deterministic bench's captured stdout against the committed
// baseline (both sides in escaped form). Only meaningful when the run's
// scale matches the baseline's — the caller guards that. Lines prefixed
// "perf:" are wall-clock measurements (ap_farm's throughput sweep) — they
// are recorded in the baseline for the trajectory but excluded from the
// diff on both sides, since they measure the machine, not the code.
void check_drift(const BenchRun& r, const Baseline& base) {
  const auto is_perf = [](const std::string& escaped) {
    return escaped.rfind("perf:", 0) == 0;
  };
  for (const auto& [name, lines] : base.benches) {
    if (name != r.name) continue;
    std::vector<std::string> want_lines, got_lines;
    for (const auto& l : lines)
      if (!is_perf(l)) want_lines.push_back(l);
    for (const auto& l : r.stdout_lines) {
      std::string e = json_escape(l);
      if (!is_perf(e)) got_lines.push_back(std::move(e));
    }
    std::size_t n = std::max(want_lines.size(), got_lines.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::string want = i < want_lines.size() ? want_lines[i]
                                                     : "<missing>";
      const std::string got =
          i < got_lines.size() ? got_lines[i] : "<missing>";
      if (want != got) {
        check(false, r.name + " drifted from baseline at line " +
                         std::to_string(i + 1) + ": baseline \"" + want +
                         "\" vs run \"" + got + "\"");
        return;  // first divergence is enough
      }
    }
    return;
  }
  check(false, r.name + " not present in baseline file");
}

void run_checks(const std::vector<BenchRun>& runs, const std::string& scale,
                const std::string& baseline_path) {
  const bool quick = scale == "quick";
  const bool full = scale == "full";

  Baseline base;
  bool have_base = false;
  if (!baseline_path.empty()) {
    have_base = load_baseline(baseline_path, &base);
    check(have_base, "cannot read baseline file " + baseline_path);
    if (have_base && base.scale != scale) {
      std::printf(
          "run_all --check: baseline scale \"%s\" != run scale \"%s\", "
          "skipping drift diff\n",
          base.scale.c_str(), scale.c_str());
      have_base = false;
    }
  }

  for (const auto& r : runs) {
    check(r.exit_code == 0, r.name + " exited with " +
                                std::to_string(r.exit_code));
    if (r.name == "table_5_1_micro") check_table_5_1(r, quick);
    if (r.name == "fig_5_3_ber") check_fig_5_3(r, quick);
    if (r.name == "n_sender_sweep") check_n_sender_sweep(r, quick);
    if (r.name == "baseline_comparison") check_baseline_comparison(r, quick);
    if (r.name == "streaming_pipeline") check_streaming_pipeline(r, quick);
    if (r.name == "ap_farm") check_ap_farm(r, quick);
    check_wall_time(r, quick, full);
    if (have_base) check_drift(r, base);
  }
  if (check_failures == 0)
    std::printf("run_all --check: all gates green\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool do_check = false;
  std::string scale = "default";
  std::string bin_dir = dir_of(argv[0]);
  std::string out = "BENCH_decoder.json";
  std::string baseline_path;
  std::vector<std::string> only;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check") {
      do_check = true;
    } else if (a == "--quick") {
      scale = "quick";
    } else if (a == "--full") {
      scale = "full";
    } else if (a == "--bin-dir" && i + 1 < argc) {
      bin_dir = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (a == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (a == "--only" && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const auto comma = list.find(',', pos);
        const auto end = comma == std::string::npos ? list.size() : comma;
        if (end > pos) only.push_back(list.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (a == "--wall-scale" && i + 1 < argc) {
      wall_scale = std::strtod(argv[++i], nullptr);
      if (!(wall_scale > 0.0)) {
        std::fprintf(stderr, "run_all: --wall-scale must be > 0\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick|--full] [--check] "
                   "[--baseline <file>] [--bin-dir <dir>] [--out <file>] "
                   "[--only <name,...>] [--wall-scale <x>]\n",
                   argv[0]);
      return 2;
    }
  }

  // The benches read ZZ_QUICK / ZZ_FULL themselves (bench_util.h); the
  // driver just forwards the requested scale through the environment.
  if (scale == "quick") setenv("ZZ_QUICK", "1", 1);
  if (scale == "full") setenv("ZZ_FULL", "1", 1);

  std::vector<std::string> names(std::begin(kBaselineBenches),
                                 std::end(kBaselineBenches));
  if (!only.empty()) {
    // Subset runs keep baseline order and reject unknown names loudly — a
    // typo in a CI matrix leg must not silently run nothing.
    std::vector<std::string> subset;
    for (const auto& name : names)
      if (std::find(only.begin(), only.end(), name) != only.end())
        subset.push_back(name);
    if (subset.size() != only.size()) {
      for (const auto& o : only)
        if (std::find(names.begin(), names.end(), o) == names.end())
          std::fprintf(stderr, "run_all: --only names unknown bench '%s'\n",
                       o.c_str());
      return 2;
    }
    names = std::move(subset);
  }

  std::vector<BenchRun> runs;
  int failures = 0;
  for (const auto& name : names) {
    std::printf("run_all: %s ...\n", name.c_str());
    std::fflush(stdout);
    runs.push_back(run_bench(bin_dir, name));
    const auto& r = runs.back();
    std::printf("run_all: %s exit=%d wall=%.0f ms\n", name.c_str(), r.exit_code,
                r.wall_ms);
    if (r.exit_code != 0) ++failures;
  }

  write_json(out, scale, runs);
  std::printf("run_all: wrote %s (%zu benches, %d failed)\n", out.c_str(),
              runs.size(), failures);
  if (do_check) run_checks(runs, scale, baseline_path);
  return failures == 0 && check_failures == 0 ? 0 : 1;
}
