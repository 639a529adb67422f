// The §5.7 offline joint decode — the route of the scenario engine's
// LoggedJoint mode — called from outside the receivers as the traced run's
// probe of the decoder layers (phy.estimate, zigzag.decoder, zigzag.cache,
// zigzag.scheduler pairwise/order).
#pragma once

#include <cstdint>

#include "bench.h"

namespace rxbench {

struct JointStats {
  std::uint64_t offered = 0, delivered = 0, wrong_crc = 0;
  std::uint64_t estimates = 0, decodes = 0, chunks = 0, stall_breaks = 0,
                symbols = 0, packets = 0, crc_ok = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, extra_equations = 0;
};

/// The probe: 48 rounds of four hidden senders at 12 dB, each logging four
/// collisions at elevated backoff (stage 2, as testbed::hidden_n_scenario)
/// plus a pool of four top-ups, drawn from `seed`. A round estimates each
/// placement at its true start (phy.estimate), tops up while Assertion
/// 4.5.1 fails (zigzag.scheduler.pairwise), orders the equations
/// best-conditioned first (zigzag.scheduler.order), and decodes with
/// testbed::nway_decode_options() and one DecodeCache (zigzag.decoder),
/// topping up after each decode that leaves a packet undelivered until the
/// pool runs out.
JointStats joint_probe(std::uint64_t seed, Tracer& tr);

/// Reports the probe's per-layer metrics.
void report_joint_layers(const JointStats& js, const Tracer& tr, Layers& layers);

}  // namespace rxbench
