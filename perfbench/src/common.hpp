#pragma once

// Shared plumbing of the benchmark program: clocks, order statistics, the
// chunked best-of-N op statistics, peak memory, and the per-workload result
// record.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms(double seconds) { return seconds * 1e3; }

inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Pool workers for every workload: one core is left to the generator
/// thread.
unsigned pool_workers();

/// Restarts the peak-resident-set high-water mark at the current RSS, so
/// the inputs and references built before set-up do not count.
void reset_peak_rss();

/// Peak resident set since the last reset_peak_rss(), in MiB.
double peak_rss_mb();

/// Nearest-rank median (the lower middle of an even count); 0 when empty.
double median(std::vector<double> v);

/// Op statistics over consecutive chunks of a fixed number of ops. Each
/// chunk yields its median latency, its tail — the highest percentile with
/// at least ten samples beyond it, p(100 - 1000 / chunk_ops) — and its
/// throughput (chunk ops over the wall time since the previous chunk
/// ended). The run reports the best chunk of each (best-of-N): other
/// tenants of the host only ever slow a chunk down, so the best chunk is
/// the steadiest estimate of the program's own speed. Memory is constant:
/// one chunk of latencies. A trailing partial chunk is dropped unless it is
/// the only one.
class ChunkStats {
 public:
  ChunkStats(std::size_t chunk_ops, Clock::time_point start);

  void add(double latency_ms, Clock::time_point done);

  /// Closes the window: a run too short for one full chunk reports its
  /// partial chunk instead of nothing.
  void finish(Clock::time_point done);

  std::size_t chunk_ops() const noexcept { return chunk_ops_; }
  std::size_t chunks() const noexcept { return chunks_; }
  double tail_percentile() const noexcept;
  double best_p50_ms() const noexcept { return best_p50_; }
  double best_tail_ms() const noexcept { return best_tail_; }
  double best_ops_per_s() const noexcept { return best_rate_; }

 private:
  void close_chunk(Clock::time_point done);

  std::size_t chunk_ops_;
  std::vector<double> latency_;
  Clock::time_point chunk_start_;
  std::size_t chunks_ = 0;
  double best_p50_ = std::numeric_limits<double>::infinity();
  double best_tail_ = std::numeric_limits<double>::infinity();
  double best_rate_ = 0.0;
};

/// Runs `fn(last)` `setups` times, each on a freshly torn-down `last`, and
/// returns the wall time of the fastest set-up (best-of-N, like the chunk
/// statistics: other tenants only ever slow a set-up down); `fn` returns
/// its scene generation seconds, appended to `gen`. The final set-up stays
/// in `last` for the measured window.
template <class T, class Fn>
double repeat_setup(int setups, Fn&& fn, T& last, std::vector<double>& gen) {
  double fastest = std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::max(setups, 1); ++i) {
    last = T{};
    const Clock::time_point t0 = Clock::now();
    gen.push_back(fn(last));
    fastest = std::min(fastest, seconds_between(t0, Clock::now()));
  }
  return fastest;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// One workload invocation: `setups` repeated set-ups (the last one is
/// measured), then a timed window of `seconds`. Traced windows record
/// spans and per-layer numbers; untraced windows give end-to-end numbers.
struct RunSpec {
  double seconds = 20.0;
  int setups = 1;
  bool traced = false;
  float detail = 1.0f;  ///< scene detail; the benchmark always runs 1.0
};

struct WorkloadResult {
  // End to end (untraced windows).
  double setup_s = 0.0;  ///< fastest of the set-ups
  double op_ms_p50 = 0.0;
  double op_ms_tail = 0.0;
  double ops_per_s = 0.0;
  double peak_rss_mb = 0.0;
  double tail_percentile = 0.0;
  std::size_t chunk_ops = 0;
  std::size_t chunks = 0;
  // Verification.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Ops where the BVH reference was wrong and brute force confirmed the
  /// program's answer (not failures; reported on the info line).
  std::uint64_t reference_misses = 0;
  /// Distinct threads that issued requests or frame queries.
  std::size_t generator_threads = 0;
  // Per layer (traced windows only).
  double gen_s = 0.0;  ///< median scene generation time over the set-ups
  /// frames_rebuild: median C_base frame objective (build + query), the
  /// FrameTuner's m with w = 1; the tuner pass's baseline.
  double frame_objective_ms = 0.0;
  Metrics layers;

  void take(const ChunkStats& c) {
    op_ms_p50 = c.best_p50_ms();
    op_ms_tail = c.best_tail_ms();
    ops_per_s = c.best_ops_per_s();
    tail_percentile = c.tail_percentile();
    chunk_ops = c.chunk_ops();
    chunks = c.chunks();
  }
};

}  // namespace perfbench
