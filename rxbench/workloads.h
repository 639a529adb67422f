// The workloads of the receiver benchmark. Each generates its inputs
// from opt.seed, times the receiver-side calls and fills the report: the
// end-to-end metrics untraced, the per-layer metrics traced.
#pragma once

#include "bench.h"

namespace rxbench {

void run_farm_pair(const Options& opt, Report& report);
void run_stream_n3(const Options& opt, Report& report);
void run_offset_mc(const Options& opt, Report& report);

}  // namespace rxbench
