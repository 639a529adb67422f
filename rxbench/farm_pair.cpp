// farm_pair: the paper's hidden-terminal pair at scale. An ApFarm of four
// heterogeneous two-sender cells (12/12 dB Live, 12/12 dB Streaming, a
// 15/9 dB capture pair Live, 8/8 dB Streaming) in throughput mode on two
// workers. The only workload whose timed phase runs farm, ThreadPool,
// EpisodeStream, DecodeCacheShards and in-episode emu synthesis; Live and
// Streaming cells side by side show what merging the two loops costs.
#include <algorithm>
#include <string>

#include "joint.h"
#include "workloads.h"
#include "zz/common/thread_pool.h"
#include "zz/farm/farm.h"
#include "zz/testbed/scenario.h"

namespace rxbench {
namespace {

namespace tb = zz::testbed;

constexpr std::size_t kWorkers = 2;
// Packets each sender offers per episode. Short episodes give each run
// many independent channel draws.
constexpr std::size_t kPacketsPerSender = 1;
// A batch is one ApFarm::run of this many episodes of every cell, so the
// pool balances 4 × kEpisodesPerCell uneven episodes and each worker's
// cache shard and arena serve several of them. ApFarm::run restarts
// episode numbering at 0, so every batch runs on a fresh farm seeded for
// that batch. Batches per list set the list length (25–40 s on a shared
// 4-core x86 VM).
constexpr std::size_t kEpisodesPerCell = 3;
constexpr std::size_t kBatches = 28;
constexpr std::size_t kSetupBuilds = 101;

std::vector<zz::farm::CellSpec> make_cells() {
  const auto cell = [](double snr_a, double snr_b, tb::CollectMode mode) {
    zz::farm::CellSpec c;
    c.scenario = tb::hidden_n_scenario(2, snr_a, tb::ReceiverKind::ZigZag);
    c.scenario.senders = {{snr_a, 0}, {snr_b, 0}};
    c.scenario.mode = mode;
    c.scenario.cfg.packets_per_sender = kPacketsPerSender;
    return c;
  };
  return {cell(12, 12, tb::CollectMode::Live), cell(12, 12, tb::CollectMode::Streaming),
          cell(15, 9, tb::CollectMode::Live), cell(8, 8, tb::CollectMode::Streaming)};
}
constexpr std::size_t kCells = 4;

zz::farm::FarmOptions farm_options(std::uint64_t seed, std::size_t batch,
                                   std::size_t workers) {
  zz::farm::FarmOptions o;
  o.seed = zz::shard_seed(seed, batch);
  o.workers = workers;
  o.distinct_seeds = 0;  // throughput mode: every episode a fresh seed
  return o;
}

// Counts of one cell of a batch, in this order.
enum CellCount : std::size_t {
  kEpisodes, kRounds, kConcurrentRounds, kDelivered, kCollisionsResolved,
  kStreamSamples, kStreamWindows, kStreamDeliveries, kLatencySum, kFlow0,
  kFlow1, kCellCounts
};
// A batch's counts: every cell's, then the decode-cache totals.
enum CacheCount : std::size_t { kCacheHits, kCacheMisses, kCacheEntries };

Counts cell_counts(const zz::farm::CellResult& r) {
  return {r.episodes, r.rounds, r.concurrent_rounds, r.delivered, r.collisions_resolved,
          r.stream_samples, r.stream_windows, r.stream_deliveries, r.latency_sum,
          r.per_flow_delivered[0], r.per_flow_delivered[1]};
}

Counts counts_of(const zz::farm::FarmResult& r) {
  Counts c;
  for (const auto& cell : r.cells) {
    const Counts cc = cell_counts(cell);
    c.insert(c.end(), cc.begin(), cc.end());
  }
  c.insert(c.end(), {r.decode_cache_hits, r.decode_cache_misses, r.decode_cache_entries});
  return c;
}

// Count k summed over the cells of a batch's counts.
std::uint64_t cell_sum(const Counts& c, std::size_t k) {
  std::uint64_t s = 0;
  for (std::size_t cell = 0; cell < kCells; ++cell) s += c[cell * kCellCounts + k];
  return s;
}

std::uint64_t cache_count(const Counts& c, std::size_t k) {
  return c[kCells * kCellCounts + k];
}

}  // namespace

void run_farm_pair(const Options& opt, Report& report) {
  const std::vector<zz::farm::CellSpec> cells = make_cells();
  const std::uint64_t offered_per_batch =
      kCells * kEpisodesPerCell * 2 * kPacketsPerSender;

  // Set-up is building a farm: validating the cells, starting the pool and
  // the per-worker cache shards and arenas. The farm draws its inputs
  // inside the episodes, which are timed. Each build is timed up to the
  // end of its constructor; its destructor runs outside the timing.
  std::vector<double> build_s;
  for (std::size_t i = 0; i < kSetupBuilds; ++i) {
    const auto t0 = Clock::now();
    const zz::farm::ApFarm farm(cells, farm_options(opt.seed, 0, kWorkers));
    build_s.push_back(seconds_since(t0));
  }
  const double setup_s = median(build_s);

  Tracer untraced(false), traced(true);
  Tracer* tr = &untraced;
  std::vector<double> batch_s;
  // Heap allocations depend on which worker's arena an episode lands on,
  // so they are summed here, outside the pinned counts.
  std::uint64_t allocs = 0;
  const auto play = [&](std::size_t b, std::size_t workers) {
    zz::farm::ApFarm farm(cells, farm_options(opt.seed, b, workers));
    const auto t0 = Clock::now();
    const zz::farm::FarmResult r =
        tr->span("farm", [&] { return farm.run(kEpisodesPerCell); });
    batch_s.push_back(seconds_since(t0));
    allocs += r.episode_allocs;
    return counts_of(r);
  };
  const auto run_batch = [&](std::size_t b) { return play(b, kWorkers); };

  Passes passes(kBatches, report);
  // Untimed warm-up, and the determinism pin across worker counts: batch 0
  // on one worker. The timed run of batch 0 on two workers must reproduce
  // its counts.
  passes.run(0, [&](std::size_t b) { return play(b, 1); });
  batch_s.clear();
  allocs = 0;
  double wall = 0.0;
  std::size_t units = kBatches / 2;  // the traced run's halves
  if (!opt.trace)
    std::tie(wall, units) = passes.timed(opt.seconds, run_batch);
  else
    wall = passes.one_pass(units, run_batch);

  // The farm scores its deliveries itself (§5.1f, inside EpisodeStream)
  // and reports only aggregates. What the benchmark can check is the
  // scale-out: every cell of batch 0 must give the counts of the serial
  // reference farm::run_cell (no pool, cache, arena or memo).
  bool batch0_ok = true;
  for (std::size_t c = 0; c < kCells; ++c) {
    const Counts ref = cell_counts(zz::farm::run_cell(
        cells[c], c, farm_options(opt.seed, 0, 1).seed, kEpisodesPerCell));
    if (!std::equal(ref.begin(), ref.end(), passes.first(0).begin() + c * kCellCounts)) {
      report.fail("farm_pair: cell " + std::to_string(c) +
                  " of batch 0 differs from the serial run_cell reference");
      batch0_ok = false;
    }
  }

  const std::size_t distinct = std::min(units, kBatches);
  const Counts total = passes.sum(units), pass1 = passes.sum(distinct);
  const std::uint64_t offered = offered_per_batch * distinct;
  const LossTally loss{offered, cell_sum(pass1, kDelivered), 0, 0};
  report.attempted = units;
  report.failed = batch0_ok ? 0 : 1;
  report.note("farm_pair: " + std::to_string(kBatches) + " batches of " +
              std::to_string(kCells * kEpisodesPerCell) + " episodes, " +
              std::to_string(units) + " batches timed; the " +
              std::to_string(distinct) + " distinct batches offered " +
              std::to_string(offered) + ", delivered " +
              std::to_string(loss.delivered));

  if (!opt.trace) {
    report.metric("setup_s", setup_s, "s",
                  "median of " + std::to_string(kSetupBuilds) + " farm builds");
    report.metric("pkts_per_s", static_cast<double>(cell_sum(total, kDelivered)) / wall,
                  "pkt/s");
    report.metric("msamples_per_s",
                  1e-6 * static_cast<double>(cell_sum(total, kStreamSamples)) / wall,
                  "Msample/s", "samples through the Streaming cells");
    report.metric("patterns_per_s", static_cast<double>(cell_sum(total, kRounds)) / wall,
                  "pattern/s", "contention rounds played");
    report_latency(report, summarize_latency(batch_s), "batches");
    report.metric("loss_ratio", loss.loss_ratio(), "fraction", "distinct batches");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  tr = &traced;
  allocs = 0;
  const double cpu0 = process_cpu_seconds();
  const double traced_wall = passes.one_pass(units, run_batch);
  const double traced_cpu = process_cpu_seconds() - cpu0;
  // The decoder layers run inside the farm's episodes; the probe calls
  // them from outside on §5.7 joint-decode rounds.
  const JointStats js = joint_probe(opt.seed, traced);
  if (js.wrong_crc) report.fail("farm_pair: a joint-decode probe packet lies about its crc");
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  Layers layers;
  layers.set("farm.run_s", traced.busy("farm"));
  layers.set("farm.cpu_util", traced_cpu / (traced_wall * kWorkers));
  layers.set("farm.episodes", d(cell_sum(pass1, kEpisodes)));
  layers.set("farm.rounds", d(cell_sum(pass1, kRounds)));
  layers.set("farm.delivered", d(cell_sum(pass1, kDelivered)));
  layers.set("farm.collisions_resolved", d(cell_sum(pass1, kCollisionsResolved)));
  layers.set("farm.episode_allocs", d(allocs));
  const std::uint64_t hits = cache_count(pass1, kCacheHits),
                      misses = cache_count(pass1, kCacheMisses);
  layers.set("farm.decode_cache_hit_ratio", ratio(d(hits), d(hits + misses)));
  layers.set("farm.decode_cache_entries", d(cache_count(pass1, kCacheEntries)));
  layers.set("farm.stream_windows", d(cell_sum(pass1, kStreamWindows)));
  layers.set("farm.stream_latency_samples",
             ratio(d(cell_sum(pass1, kLatencySum)), d(cell_sum(pass1, kStreamDeliveries))));
  report_joint_layers(js, traced, layers);
  layers.set("trace.overhead_ratio", traced_wall / wall - 1.0);
  layers.report(report);
  report.note("farm_pair probe: joint decode delivered " + std::to_string(js.delivered) +
              " of " + std::to_string(js.offered) + " packets");
}

}  // namespace rxbench
