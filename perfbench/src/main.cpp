// kdbench — the repository benchmark program (see ../README.md).
//
//   kdbench --workload NAME --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0): set-ups repeated, one timed window of S seconds,
// every output verified, and the five end-to-end metrics printed. Traced
// (--trace 1): the named workload runs S/2 untraced and S/2 traced, the
// other two run S/4 traced, then the build probe and the FrameTuner pass;
// every per-layer metric is printed. The last stdout line is the result
// object; the line before it states the seed and the tail percentile.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

using RunFn = WorkloadResult (*)(std::uint64_t, const RunSpec&);

struct Workload {
  const char* name;
  RunFn run;
  int setups;  ///< untraced set-up repetitions behind setup_s
};

constexpr Workload kWorkloads[] = {
    {"frames_rebuild", run_frames_rebuild, 7},
    {"serve_mixed", run_serve_mixed, 7},
    {"serve_sharded", run_serve_sharded, 7},
};

/// Chrome traces above this many events are not written (a traced
/// serve_mixed window records about a hundred thousand per second).
constexpr std::size_t kMaxTraceEvents = 400'000;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "kdbench: %s\nusage: kdbench --workload "
               "frames_rebuild|serve_mixed|serve_sharded --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage(("unknown workload " + value).c_str());
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
      if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

void add_checks(WorkloadResult& total, const WorkloadResult& r) {
  total.attempted += r.attempted;
  total.failed += r.failed;
  total.reference_misses += r.reference_misses;
}

/// `r` gives the tail and thread facts; `checks` the verification totals.
void print_info(const Args& a, const WorkloadResult& r,
                const WorkloadResult& checks) {
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %.17g, \"trace\": %d, \"pool_workers\": %u, "
      "\"generator_threads\": %zu, \"op_ms_tail_percentile\": %g, "
      "\"ops_per_chunk\": %zu, \"chunks\": %zu, \"attempted\": %" PRIu64
      ", \"reference_misses\": %" PRIu64 "}}\n",
      a.workload->name, a.seed, a.seconds, a.trace ? 1 : 0, pool_workers(),
      r.generator_threads, r.tail_percentile, r.chunk_ops, r.chunks,
      checks.attempted, checks.reference_misses);
}

int print_result(const WorkloadResult& total, const Metrics& metrics) {
  const bool correct = total.failed == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(total.attempted);
  out += ", \"failed\": " + std::to_string(total.failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run_untraced(const Args& a) {
  const WorkloadResult r = a.workload->run(
      a.seed, {a.seconds, a.workload->setups, false});
  print_info(a, r, r);
  return print_result(r, {
                             {"setup_s", r.setup_s, "s"},
                             {"op_ms_p50", r.op_ms_p50, "ms"},
                             {"op_ms_tail", r.op_ms_tail, "ms"},
                             {"ops_per_s", r.ops_per_s, "1/s"},
                             {"peak_rss_mb", r.peak_rss_mb, "MB"},
                         });
}

int run_traced(const Args& a) {
  WorkloadResult total;
  Metrics layers;
  const WorkloadResult plain =
      a.workload->run(a.seed, {a.seconds / 2, 1, false});
  add_checks(total, plain);

  kdtune::TraceRecorder& recorder = kdtune::TraceRecorder::instance();
  recorder.reset();
  const WorkloadResult traced =
      a.workload->run(a.seed, {a.seconds / 2, 1, true});
  add_checks(total, traced);
  if (recorder.event_count() > kMaxTraceEvents) {
    std::fprintf(stderr, "kdbench: %zu trace events; Chrome trace not kept\n",
                 recorder.event_count());
  } else {
    std::filesystem::create_directories(".bench_out");
    const std::string path = std::string(".bench_out/trace_") +
                             a.workload->name + "_" + std::to_string(a.seed) +
                             ".json";
    if (!recorder.write_json(path)) {
      std::fprintf(stderr, "kdbench: could not write %s\n", path.c_str());
    }
  }
  recorder.reset();
  layers.insert(layers.end(), traced.layers.begin(), traced.layers.end());

  double frame_objective_ms = traced.frame_objective_ms;
  for (const Workload& w : kWorkloads) {
    if (&w == a.workload) continue;
    const WorkloadResult other =
        w.run(a.seed, {a.seconds / 4, 1, true});
    add_checks(total, other);
    layers.insert(layers.end(), other.layers.begin(), other.layers.end());
    if (other.frame_objective_ms > 0.0) {
      frame_objective_ms = other.frame_objective_ms;
    }
    recorder.reset();
  }

  const Metrics build = run_build_probe();
  layers.insert(layers.end(), build.begin(), build.end());
  const WorkloadResult tuner =
      run_tuner_pass(a.seed, frame_objective_ms);
  add_checks(total, tuner);
  layers.insert(layers.end(), tuner.layers.begin(), tuner.layers.end());

  layers.push_back({"scene.gen_s", std::min(plain.gen_s, traced.gen_s), "s"});
  layers.push_back(
      {"obs.trace_overhead", traced.ops_per_s / plain.ops_per_s, "x"});
  print_info(a, traced, total);
  return print_result(total, layers);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  return args.trace ? run_traced(args) : run_untraced(args);
}
