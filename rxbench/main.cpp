// Receiver benchmark entry point:
//   rxbench --workload <farm_pair|stream_n3|offset_mc>
//           --seed <n> --seconds <s> --trace <0|1>
// Prints the build and machine it ran on, the metrics, and as its last
// line one JSON object {correct, attempted, failed, metrics}. Exits 1 when
// a correctness or determinism check fails, 2 on bad usage or a build that
// would measure a different program.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "workloads.h"

#ifndef RXBENCH_CXX_FLAGS
#define RXBENCH_CXX_FLAGS ""
#endif
#ifndef RXBENCH_LIB_FLAGS
#define RXBENCH_LIB_FLAGS ""
#endif

namespace {

using WorkloadFn = void (*)(const rxbench::Options&, rxbench::Report&);
struct Workload {
  const char* name;
  WorkloadFn run;
};
constexpr Workload kWorkloads[] = {
    {"farm_pair", rxbench::run_farm_pair},
    {"stream_n3", rxbench::run_stream_n3},
    {"offset_mc", rxbench::run_offset_mc},
};

// Builds that time a different program than the one users run: debug
// assertions, ZZ_DCHECK contracts, the model-checking atomics, sanitizers
// or coverage instrumentation, in the benchmark or in the libraries.
std::string build_refusal() {
#ifndef NDEBUG
  return "NDEBUG is not defined (assertions are on)";
#endif
#if defined(ZZ_ENABLE_DCHECKS) || defined(ZZ_MODEL_CHECK) || \
    defined(ZZ_DEBUG_THREAD_CHECKS)
  return "ZZ_DCHECK, ZZ_MODEL_CHECK or thread checks are compiled in";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  const std::string flags =
      std::string(RXBENCH_CXX_FLAGS) + " " + RXBENCH_LIB_FLAGS;
  for (const char* bad :
       {"-fsanitize", "--coverage", "-fprofile-arcs", "-ftest-coverage",
        "ZZ_ENABLE_DCHECKS", "ZZ_MODEL_CHECK", "ZZ_DEBUG_THREAD_CHECKS"})
    if (flags.find(bad) != std::string::npos)
      return std::string("build flags contain ") + bad;
  if (flags.find("NDEBUG") == std::string::npos)
    return "build flags do not define NDEBUG";
  return {};
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rxbench: %s\nusage: rxbench --workload "
               "<farm_pair|stream_n3|offset_mc> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

rxbench::Options parse(int argc, char** argv, WorkloadFn* run) {
  rxbench::Options opt;
  *run = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      for (const Workload& w : kWorkloads)
        if (v == w.name) *run = w.run;
      if (!*run) usage("unknown workload");
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) usage("bad --seed");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(opt.seconds > 0 && opt.seconds <= 600))
        usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      opt.trace = v == "1";
    } else {
      usage("unknown option");
    }
  }
  if (!*run) usage("missing --workload");
  return opt;
}

void print_environment(const rxbench::Options& opt) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::printf("# rxbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("# nproc=%u loadavg=%.2f %.2f %.2f\n",
              std::thread::hardware_concurrency(), load[0], load[1], load[2]);
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "c++";
#endif
  std::printf("# compiler=%s %s\n# flags=%s | libraries: %s\n", compiler,
              __VERSION__, RXBENCH_CXX_FLAGS, RXBENCH_LIB_FLAGS);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadFn run = nullptr;
  const rxbench::Options opt = parse(argc, argv, &run);
  print_environment(opt);
  if (const std::string why = build_refusal(); !why.empty()) {
    std::fprintf(stderr, "rxbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }

  rxbench::Report report;
  try {
    run(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rxbench: %s\n", e.what());
    return 1;
  }
  report.print(opt);
  return report.correct() ? 0 : 1;
}
