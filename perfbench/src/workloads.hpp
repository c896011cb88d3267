#pragma once

// The three benchmark workloads. Each runs its set-ups, one timed window
// driven from the calling thread only, and verifies every output afterwards.
// See README.md for why each exists and what each per-layer metric should
// move.

#include <cstdint>
#include <future>
#include <string>

#include "common.hpp"
#include "inputs.hpp"
#include "serve/query_service.hpp"

namespace perfbench {

/// Submits `r` to a QueryService (`key` = scene name) or a ShardRouter
/// (`key` = tenant); both expose the same submit_* family.
template <class Target>
std::future<kdtune::QueryResponse> submit_to(Target& target,
                                             const std::string& key,
                                             const Request& r) {
  switch (r.family) {
    case Family::kClosestHit: return target.submit_closest_hit(key, r.ray);
    case Family::kAnyHit: return target.submit_any_hit(key, r.ray);
    case Family::kRange: return target.submit_range(key, r.box);
    case Family::kKnn: return target.submit_nearest(key, r.point, r.k);
    case Family::kClosestPoint:
      return target.submit_closest_point(key, r.point, r.radius);
  }
  return {};
}

/// `toasters` through FramePipeline: an op is one frame (4,000 closest-hit
/// rays against the served snapshot, then advance()). Traced windows add
/// the build/wait/boundary/query split and the C_base frame objective.
WorkloadResult run_frames_rebuild(std::uint64_t seed, const RunSpec& spec);

/// `bunny` + `sponza` behind one QueryService, 64 requests outstanding.
/// Traced windows add per-family service latency, batch counters and
/// single-thread direct tree calls on the same inputs.
WorkloadResult run_serve_mixed(std::uint64_t seed, const RunSpec& spec);

/// `sponza` behind a 4-shard ShardRouter, 16 requests outstanding. Traced
/// windows add fan-out counters and the gap to a direct QueryService
/// serving the same stream at the same window.
WorkloadResult run_serve_sharded(std::uint64_t seed, const RunSpec& spec);

/// Standalone builds of toasters frame 0: 0-worker vs pool-worker build time
/// and the tree's structure counts (parallel.*, kdtree.nodes/leaves/sah_cost).
Metrics run_build_probe();

/// One FrameTuner pass over the frames_rebuild inputs (tuning.*). Ungated:
/// convergence is bimodal today. `base_objective_ms` is the C_base frame
/// objective from a frames_rebuild traced window.
WorkloadResult run_tuner_pass(std::uint64_t seed, double base_objective_ms);

}  // namespace perfbench
