// frames_rebuild, the standalone build probe and the FrameTuner pass: the
// `toasters` animation through FramePipeline with overlap on, one generator
// thread tracing a fixed seeded ray set against each served frame.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>

#include "dynamic/frame_pipeline.hpp"
#include "dynamic/frame_tuner.hpp"
#include "geom/intersect.hpp"
#include "inputs.hpp"
#include "kdtree/build_config.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "scene/generators.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {

using kdtune::AnimatedScene;
using kdtune::Ray;

namespace {

constexpr std::size_t kRaysPerFrame = 4000;
constexpr int kWarmupFrames = 16;
/// Frames per statistics chunk: the tail is p90 (ten frames beyond).
constexpr std::size_t kFrameChunk = 100;
/// Rays per frame whose reference answer brute force fixes up front.
constexpr std::size_t kOracleRays = 32;

float t_of(const kdtune::Hit& hit) {
  return hit.valid() ? hit.t : std::numeric_limits<float>::infinity();
}

std::shared_ptr<const AnimatedScene> make_animation(float detail) {
  return kdtune::make_toasters(detail);
}

/// The rays and every frame's expected hit distances, built before any
/// set-up or timing and shared by every window of the process: a BVH per
/// frame, with brute force authoritative on the first kOracleRays rays.
struct FrameInputs {
  std::shared_ptr<const AnimatedScene> anim;
  std::vector<Ray> rays;
  std::vector<std::vector<float>> ts;  ///< per frame, per ray
  std::vector<std::uint64_t> hash;     ///< per frame
};

const FrameInputs& frame_inputs(std::uint64_t seed, float detail) {
  static std::map<std::pair<std::uint64_t, float>,
                  std::unique_ptr<FrameInputs>> cache;
  auto& slot = cache[{seed, detail}];
  if (slot) return *slot;
  slot = std::make_unique<FrameInputs>();
  FrameInputs& in = *slot;
  in.anim = make_animation(detail);
  in.rays = make_rays(seed, in.anim->frame(0).bounds(), kRaysPerFrame);
  const std::size_t frames = in.anim->frame_count();
  in.ts.assign(frames, std::vector<float>(in.rays.size()));
  in.hash.assign(frames, 0);
  kdtune::ThreadPool pool(pool_workers());
  kdtune::parallel_for(pool, 0, frames, 1, [&](std::size_t f) {
    kdtune::ThreadPool inline_pool(0);
    const kdtune::Scene scene = in.anim->frame(f);
    const auto bvh = make_reference(scene, inline_pool);
    const auto tris = scene.triangles();
    for (std::size_t i = 0; i < in.rays.size(); ++i) {
      in.ts[f][i] =
          t_of(i < kOracleRays
                   ? kdtune::brute_force_closest_hit(in.rays[i], tris)
                   : bvh->closest_hit(in.rays[i]));
    }
    in.hash[f] = hash_hit_distances(in.ts[f]);
  });
  return in;
}

/// One pipeline and what it runs on. Destroyed in reverse member order:
/// the pipeline (which waits out its in-flight build), registry, pool; held
/// by unique_ptr so no member-wise move can break that order.
struct Frames {
  std::unique_ptr<kdtune::ThreadPool> pool;
  std::unique_ptr<kdtune::SceneRegistry> registry;
  std::unique_ptr<kdtune::FramePipeline> pipeline;
  kdtune::FrameTick tick;  ///< the frame now serving
};

std::unique_ptr<Frames> start_frames(
    std::shared_ptr<const AnimatedScene> anim, kdtune::FrameTuner* tuner) {
  auto f = std::make_unique<Frames>();
  f->pool = std::make_unique<kdtune::ThreadPool>(pool_workers());
  f->registry = std::make_unique<kdtune::SceneRegistry>(*f->pool);
  kdtune::FramePipelineOptions opts;
  opts.algorithm = kdtune::Algorithm::kInPlace;
  opts.config = kdtune::kBaseConfig;
  opts.compact = true;
  opts.backend = kdtune::QueryBackend::kCompact;
  opts.overlap = true;
  opts.loop = tuner == nullptr;  // the tuner pass runs the animation once
  opts.tuner = tuner;
  f->pipeline = std::make_unique<kdtune::FramePipeline>(std::move(anim),
                                                        *f->registry, opts);
  f->tick = f->pipeline->begin();
  return f;
}

struct FrameOp {
  double seconds = 0.0;  ///< queries start to advance() return
  double query_seconds = 0.0;
  double advance_seconds = 0.0;
  std::size_t frame = 0;  ///< the animation frame the queries ran against
  bool version_ok = false;
  kdtune::FrameTick next;
};

/// One op: trace `rays` against the served snapshot into `ts`, then cross
/// the frame boundary.
FrameOp run_frame(Frames& f, std::span<const Ray> rays,
                  std::vector<float>& ts) {
  FrameOp op;
  op.frame = f.tick.frame;
  const Clock::time_point t0 = Clock::now();
  {
    kdtune::TraceSpan span("bench.frame.queries", "bench");
    auto snap = f.registry->acquire(f.pipeline->scene_name());
    op.version_ok = snap != nullptr && snap->version == f.tick.version;
    if (snap != nullptr) {
      for (std::size_t i = 0; i < rays.size(); ++i) {
        ts[i] = t_of(snap->tree->closest_hit(rays[i]));
      }
    }
  }
  const Clock::time_point t1 = Clock::now();
  {
    kdtune::TraceSpan span("bench.frame.advance", "bench");
    op.next = f.pipeline->advance(seconds_between(t0, t1));
  }
  const Clock::time_point t2 = Clock::now();
  op.query_seconds = seconds_between(t0, t1);
  op.advance_seconds = seconds_between(t1, t2);
  op.seconds = seconds_between(t0, t2);
  if (op.next.published) f.tick = op.next;
  return op;
}

/// Per-op verification bookkeeping: the served distances are hashed and
/// compared with the frame's expected hash; rays of a differing frame are
/// kept for brute force to settle after the window.
struct FrameChecks {
  struct Suspect {
    std::uint64_t op = 0;
    std::size_t frame = 0;
    std::size_t ray = 0;
    float t = 0.0f;
  };
  std::uint64_t ops = 0;
  std::uint64_t bad_version = 0;
  std::vector<Suspect> suspects;

  void check(const FrameInputs& in, const FrameOp& op,
             std::span<const float> ts) {
    const std::uint64_t id = ops++;
    if (!op.version_ok) {
      ++bad_version;
      return;
    }
    if (hash_hit_distances(ts) == in.hash[op.frame]) return;
    const std::vector<float>& want = in.ts[op.frame];
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (std::bit_cast<std::uint32_t>(ts[i]) !=
          std::bit_cast<std::uint32_t>(want[i])) {
        suspects.push_back({id, op.frame, i, ts[i]});
      }
    }
  }

  /// Brute force settles every suspect ray; an op fails when any of its
  /// rays, or its snapshot version, is wrong.
  void settle(const FrameInputs& in, WorkloadResult& r) const {
    std::map<std::uint64_t, bool> op_ok;  // suspect ops: all rays right?
    std::map<std::size_t, kdtune::Scene> scenes;
    for (const Suspect& s : suspects) {
      auto it = scenes.find(s.frame);
      if (it == scenes.end()) {
        it = scenes.emplace(s.frame, in.anim->frame(s.frame)).first;
      }
      const float brute = t_of(kdtune::brute_force_closest_hit(
          in.rays[s.ray], it->second.triangles()));
      const bool ok = std::bit_cast<std::uint32_t>(brute) ==
                      std::bit_cast<std::uint32_t>(s.t);
      auto [entry, fresh] = op_ok.emplace(s.op, ok);
      if (!fresh) entry->second = entry->second && ok;
    }
    std::uint64_t wrong = bad_version;
    for (const auto& [op, ok] : op_ok) {
      if (ok) {
        ++r.reference_misses;
      } else if (++wrong <= 5) {
        std::fprintf(stderr, "verify: frame op %llu mismatch\n",
                     static_cast<unsigned long long>(op));
      }
    }
    r.attempted += ops;
    r.failed += wrong;
  }
};

}  // namespace

WorkloadResult run_frames_rebuild(std::uint64_t seed, const RunSpec& spec) {
  const FrameInputs& in = frame_inputs(seed, spec.detail);
  std::vector<float> ts(in.rays.size());
  reset_peak_rss();

  WorkloadResult r;
  std::vector<double> gen;
  std::unique_ptr<Frames> f;
  r.setup_s = repeat_setup(
      spec.setups,
      [&](std::unique_ptr<Frames>& fresh) {
        const Clock::time_point t0 = Clock::now();
        std::shared_ptr<const AnimatedScene> scene =
            make_animation(spec.detail);
        const double gen_s = seconds_between(t0, Clock::now());
        fresh = start_frames(std::move(scene), nullptr);
        for (int i = 0; i < kWarmupFrames; ++i) run_frame(*fresh, in.rays, ts);
        return gen_s;
      },
      f, gen);
  r.gen_s = median(gen);

  // Per-layer series; one entry per frame, traced windows only.
  std::vector<double> build_ms, wait_ms, boundary_ms, query_ms, objective_ms;
  FrameChecks checks;
  if (spec.traced) kdtune::TraceRecorder::instance().set_enabled(true);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = after(start, spec.seconds);
  ChunkStats stats(kFrameChunk, start);
  Clock::time_point last = start;
  while ((last = Clock::now()) < deadline) {
    const double served_build_seconds = f->tick.build_seconds;
    const FrameOp op = run_frame(*f, in.rays, ts);
    last = Clock::now();
    stats.add(ms(op.seconds), last);
    checks.check(in, op, ts);
    objective_ms.push_back(ms(served_build_seconds + op.query_seconds));
    if (!spec.traced) continue;
    build_ms.push_back(ms(op.next.build_seconds));
    wait_ms.push_back(ms(op.next.wait_seconds));
    boundary_ms.push_back(ms(op.advance_seconds - op.next.wait_seconds));
    query_ms.push_back(ms(op.query_seconds));
  }
  stats.finish(last);
  kdtune::TraceRecorder::instance().set_enabled(false);

  r.peak_rss_mb = peak_rss_mb();
  r.take(stats);
  r.generator_threads = 1;  // every query and advance() ran right here
  r.frame_objective_ms = median(objective_ms);
  if (spec.traced) {
    r.layers.push_back({"kdtree.build_ms_p50", median(build_ms), "ms"});
    r.layers.push_back({"dynamic.wait_ms_p50", median(wait_ms), "ms"});
    r.layers.push_back(
        {"dynamic.boundary_ms_p50", median(boundary_ms), "ms"});
    r.layers.push_back(
        {"kdtree.frame_query_ms_p50", median(query_ms), "ms"});
  }
  f.reset();
  checks.settle(in, r);
  return r;
}

Metrics run_build_probe() {
  const auto anim = make_animation(1.0f);
  const kdtune::Scene frame0 = anim->frame(0);
  const auto builder = kdtune::make_builder(kdtune::Algorithm::kInPlace);
  kdtune::ThreadPool serial(0);
  kdtune::ThreadPool parallel(pool_workers());
  std::vector<double> serial_s, parallel_s;
  kdtune::TreeStats stats;
  kdtune::TraceSpan span("bench.build_probe", "bench");
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point t0 = Clock::now();
    const auto tree =
        builder->build(frame0.triangles(), kdtune::kBaseConfig, serial);
    serial_s.push_back(seconds_between(t0, Clock::now()));
    stats = tree->stats();
    t0 = Clock::now();
    builder->build(frame0.triangles(), kdtune::kBaseConfig, parallel);
    parallel_s.push_back(seconds_between(t0, Clock::now()));
  }
  return {
      {"parallel.build_speedup", median(serial_s) / median(parallel_s), "x"},
      {"kdtree.nodes", static_cast<double>(stats.node_count), "count"},
      {"kdtree.leaves", static_cast<double>(stats.leaf_count), "count"},
      {"kdtree.sah_cost", stats.sah_cost, "cost"},
  };
}

WorkloadResult run_tuner_pass(std::uint64_t seed, double base_objective_ms) {
  const FrameInputs& in = frame_inputs(seed, 1.0f);
  std::vector<float> ts(in.rays.size());

  kdtune::FrameTuner tuner;  // the in-place candidate, cold start
  FrameChecks checks;
  std::size_t frames = 0;
  std::size_t converged_at = 0;
  double worst_probe_s = 0.0;
  {
    kdtune::TraceSpan span("bench.tuner.pass", "bench");
    const std::unique_ptr<Frames> f = start_frames(in.anim, &tuner);
    double served_build_seconds = f->tick.build_seconds;
    for (;;) {
      const std::size_t iterations = tuner.iterations();
      const FrameOp op = run_frame(*f, in.rays, ts);
      checks.check(in, op, ts);
      ++frames;
      if (tuner.iterations() > iterations) {  // the retired frame was a probe
        worst_probe_s =
            std::max(worst_probe_s, served_build_seconds + op.query_seconds);
      }
      if (converged_at == 0 && tuner.converged()) converged_at = frames;
      if (!op.next.published) break;
      served_build_seconds = op.next.build_seconds;
    }
  }
  if (converged_at == 0) {
    std::fprintf(stderr,
                 "tuner pass: not converged after %zu frames; "
                 "tuning.frames_to_converge reports the pass length\n",
                 frames);
    converged_at = frames;
  }

  WorkloadResult r;
  r.layers = {
      {"tuning.frames_to_converge", static_cast<double>(converged_at),
       "frames"},
      {"tuning.worst_probe_ms", ms(worst_probe_s), "ms"},
      {"tuning.best_over_base", ms(tuner.best_objective()) / base_objective_ms,
       "x"},
  };
  checks.settle(in, r);
  r.generator_threads = 1;
  return r;
}

}  // namespace perfbench
