// serve_mixed and serve_sharded: a single generator thread keeps a fixed
// number of requests outstanding (closed loop) against QueryService or
// ShardRouter, cycling through a pre-generated seeded request pool.

#include <algorithm>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "inputs.hpp"
#include "kdtree/build_config.hpp"
#include "obs/trace.hpp"
#include "scene/generators.hpp"
#include "serve/query_service.hpp"
#include "serve/scene_registry.hpp"
#include "shard/shard_router.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {

using kdtune::QueryKind;
using kdtune::QueryResponse;
using kdtune::QueryStatus;
using kdtune::Scene;

namespace {

constexpr std::size_t kRequestPool = std::size_t{1} << 16;
constexpr std::size_t kMixedOutstanding = 64;
constexpr std::size_t kShardedOutstanding = 16;
/// Ops per statistics chunk: the tail is p99.9 for serve_mixed and p99
/// for serve_sharded (ten samples beyond), with ten to a hundred chunks in
/// a 20 s window.
constexpr std::size_t kMixedChunk = 10000;
constexpr std::size_t kShardedChunk = 1000;
constexpr std::size_t kWarmupOps = 1024;
constexpr std::size_t kOracleSample = 128;
constexpr std::size_t kDirectPerFamily = 512;
constexpr double kForever = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();
const std::string kTenant = "bench";

/// The named scenes (bunny or sponza) at `detail`.
std::vector<Scene> generate(const std::vector<std::string>& names,
                            float detail) {
  std::vector<Scene> out;
  for (const std::string& n : names) {
    out.push_back(n == "bunny" ? kdtune::make_bunny(detail)
                               : kdtune::make_sponza(detail));
  }
  return out;
}

/// Inputs and references of one serving workload, built before any
/// set-up or timing and shared by every window of the process.
struct ServeInputs {
  std::vector<std::string> names;
  std::vector<Scene> scenes;
  std::vector<Request> requests;
  std::vector<Outcome> expected;
};

const ServeInputs& serve_inputs(const std::vector<std::string>& names,
                                std::uint64_t seed, float detail) {
  static std::map<std::string, std::unique_ptr<ServeInputs>> cache;
  std::string key = std::to_string(seed) + "/" + std::to_string(detail);
  for (const std::string& n : names) key += "/" + n;
  auto& slot = cache[key];
  if (slot) return *slot;
  slot = std::make_unique<ServeInputs>();
  ServeInputs& in = *slot;
  in.names = names;
  in.scenes = generate(names, detail);
  std::vector<kdtune::AABB> bounds;
  for (const Scene& s : in.scenes) bounds.push_back(s.bounds());
  in.requests = make_requests(seed, bounds, kRequestPool);
  kdtune::ThreadPool pool(pool_workers());
  in.expected =
      expected_outcomes(in.requests, in.scenes, kOracleSample, pool);
  return in;
}

QueryKind kind_of(Family f) {
  switch (f) {
    case Family::kClosestHit: return QueryKind::kClosestHit;
    case Family::kAnyHit: return QueryKind::kAnyHit;
    case Family::kRange: return QueryKind::kRange;
    case Family::kKnn: return QueryKind::kNearest;
    case Family::kClosestPoint: return QueryKind::kClosestPoint;
  }
  return QueryKind::kClosestHit;
}

struct LoopLog {
  ChunkStats stats;
  std::uint64_t attempted = 0;
  std::uint64_t status_failures = 0;
  std::vector<Suspect> suspects;
  std::vector<std::thread::id> submitters;
};

/// Keeps `outstanding` requests in flight from the calling thread until
/// `seconds` pass or `max_ops` were sent, then collects the rest. Requests
/// are taken in pool order, wrapping around, from `*cursor`. Latency is
/// submit call to response in hand; after stamping it, the answer is
/// compared with `in.expected` and kept as a suspect when it differs.
template <class Submit>
LoopLog closed_loop(const ServeInputs& in, std::size_t* cursor,
                    std::size_t outstanding, std::size_t chunk_ops,
                    double seconds, std::size_t max_ops, Submit&& submit) {
  struct Slot {
    std::future<QueryResponse> response;
    Clock::time_point sent{};
    std::uint32_t request = 0;
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      seconds == kForever ? Clock::time_point::max() : after(start, seconds);
  LoopLog log{ChunkStats(chunk_ops, start), 0, 0, {}, {}};
  std::vector<Slot> ring(outstanding);
  const auto send = [&](Slot& slot) {
    slot.request = static_cast<std::uint32_t>(*cursor % in.requests.size());
    ++*cursor;
    const std::thread::id self = std::this_thread::get_id();
    if (std::find(log.submitters.begin(), log.submitters.end(), self) ==
        log.submitters.end()) {
      log.submitters.push_back(self);
    }
    slot.sent = Clock::now();
    slot.response = submit(in.requests[slot.request]);
    ++log.attempted;
  };
  const auto may_send = [&] {
    return log.attempted < max_ops && Clock::now() < deadline;
  };

  std::size_t inflight = 0;
  for (Slot& slot : ring) {
    if (!may_send()) break;
    send(slot);
    ++inflight;
  }
  Clock::time_point last = start;
  for (std::size_t head = 0; inflight > 0; head = (head + 1) % ring.size()) {
    Slot& slot = ring[head];
    if (!slot.response.valid()) continue;
    const QueryResponse resp = slot.response.get();
    last = Clock::now();
    log.stats.add(ms(seconds_between(slot.sent, last)), last);
    const std::uint32_t request = slot.request;
    if (may_send()) {
      send(slot);
    } else {
      --inflight;
    }
    if (resp.status != QueryStatus::kOk) {
      ++log.status_failures;
      continue;
    }
    const Outcome got = outcome_of(in.requests[request], resp);
    if (!same(got, in.expected[request])) {
      log.suspects.push_back({request, got});
    }
  }
  log.stats.finish(last);
  return log;
}

void record_checks(const ServeInputs& in, const LoopLog& log,
                   WorkloadResult& r) {
  const VerifyResult v = adjudicate(in.requests, log.suspects, in.scenes);
  r.attempted += log.attempted;
  r.failed += log.status_failures + v.mismatches;
  r.reference_misses += v.reference_misses;
  r.generator_threads = std::max(r.generator_threads, log.submitters.size());
}

kdtune::AdmitOptions admit_options() {
  kdtune::AdmitOptions admit;
  admit.algorithm = kdtune::Algorithm::kInPlace;
  admit.config = kdtune::kBaseConfig;
  admit.compact = true;
  admit.backend = kdtune::QueryBackend::kCompact;
  return admit;
}

/// A registry serving scenes through one QueryService. Destroyed in reverse
/// member order (service, registry, pool); held by unique_ptr so no
/// member-wise move can break that order.
struct DirectService {
  std::unique_ptr<kdtune::ThreadPool> pool;
  std::unique_ptr<kdtune::SceneRegistry> registry;
  std::unique_ptr<kdtune::QueryService> service;
};

std::unique_ptr<DirectService> start_service(
    std::span<const Scene> scenes, std::span<const std::string> names) {
  auto d = std::make_unique<DirectService>();
  d->pool = std::make_unique<kdtune::ThreadPool>(pool_workers());
  d->registry = std::make_unique<kdtune::SceneRegistry>(*d->pool);
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    d->registry->admit(names[i], scenes[i], admit_options());
  }
  d->service = std::make_unique<kdtune::QueryService>(*d->registry, *d->pool);
  return d;
}

/// Results of the timed direct calls land here so they cannot be elided.
std::uint64_t g_sink = 0;

/// Single-thread direct calls on the served trees with the same inputs:
/// the kdtree.*_us layer metrics. Their answers are verified too.
void direct_tree_calls(const ServeInputs& in, kdtune::SceneRegistry& registry,
                       LoopLog& log, Metrics& layers) {
  std::vector<std::shared_ptr<const kdtune::SceneSnapshot>> snaps;
  for (const std::string& n : in.names) snaps.push_back(registry.acquire(n));
  kdtune::TraceSpan span("bench.kdtree.direct", "bench");
  for (int f = 0; f < kFamilyCount; ++f) {
    std::vector<std::uint32_t> picked;
    for (std::uint32_t i = 0;
         i < in.requests.size() && picked.size() < kDirectPerFamily; ++i) {
      if (static_cast<int>(in.requests[i].family) == f) picked.push_back(i);
    }
    std::vector<double> per_call;
    std::vector<std::uint32_t> ids;
    std::vector<kdtune::NearestResult> ns;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      std::uint64_t sink = 0;
      for (std::uint32_t i : picked) {
        const Request& r = in.requests[i];
        const kdtune::KdTreeBase& tree = *snaps[r.scene]->tree;
        switch (r.family) {
          case Family::kClosestHit:
            sink += tree.closest_hit(r.ray).triangle;
            break;
          case Family::kAnyHit: sink += tree.any_hit(r.ray); break;
          case Family::kRange:
            ids.clear();
            tree.query_range(r.box, ids);
            sink += ids.size();
            break;
          case Family::kKnn:
            ns.clear();
            tree.nearest_k(r.point, r.k, ns);
            sink += ns.size();
            break;
          case Family::kClosestPoint:
            sink += tree.nearest_within(r.point, r.radius).triangle;
            break;
        }
      }
      per_call.push_back(seconds_between(t0, Clock::now()) /
                         static_cast<double>(picked.size()) * 1e6);
      g_sink += sink;
    }
    layers.push_back({std::string("kdtree.") +
                          family_name(static_cast<Family>(f)) + "_us",
                      median(per_call), "us"});
    for (std::uint32_t i : picked) {
      const Outcome got =
          run_on(in.requests[i], *snaps[in.requests[i].scene]->tree);
      if (!same(got, in.expected[i])) log.suspects.push_back({i, got});
      ++log.attempted;
    }
  }
}

void traced(bool on) { kdtune::TraceRecorder::instance().set_enabled(on); }

}  // namespace

WorkloadResult run_serve_mixed(std::uint64_t seed, const RunSpec& spec) {
  const ServeInputs& in = serve_inputs({"bunny", "sponza"}, seed, spec.detail);
  reset_peak_rss();

  WorkloadResult r;
  std::vector<double> gen;
  std::unique_ptr<DirectService> served;
  std::size_t cursor = 0;
  const auto submit = [&](const Request& q) {
    return submit_to(*served->service, in.names[q.scene], q);
  };
  r.setup_s = repeat_setup(
      spec.setups,
      [&](std::unique_ptr<DirectService>& d) {
        const Clock::time_point t0 = Clock::now();
        const std::vector<Scene> scenes = generate(in.names, spec.detail);
        const double gen_s = seconds_between(t0, Clock::now());
        d = start_service(scenes, in.names);
        cursor = 0;
        closed_loop(in, &cursor, kMixedOutstanding, kMixedChunk, kForever,
                    kWarmupOps, [&](const Request& q) {
                      return submit_to(*d->service, in.names[q.scene], q);
                    });
        return gen_s;
      },
      served, gen);
  r.gen_s = median(gen);

  const kdtune::ServiceStats before = served->service->stats();
  traced(spec.traced);
  LoopLog log = [&] {
    kdtune::TraceSpan span("bench.serve.window", "bench");
    return closed_loop(in, &cursor, kMixedOutstanding, kMixedChunk,
                       spec.seconds, kNoLimit, submit);
  }();
  traced(false);
  r.peak_rss_mb = peak_rss_mb();
  r.take(log.stats);

  if (spec.traced) {
    const kdtune::ServiceStats stats = served->service->stats();
    for (int f = 0; f < kFamilyCount; ++f) {
      const auto& ep =
          stats.endpoints[static_cast<std::size_t>(kind_of(Family(f)))];
      const std::string base =
          std::string("serve.") + family_name(static_cast<Family>(f));
      r.layers.push_back({base + "_ms_p50", ms(ep.p50_seconds), "ms"});
      r.layers.push_back({base + "_ms_p99", ms(ep.p99_seconds), "ms"});
    }
    r.layers.push_back(
        {"serve.batch_occupancy", stats.mean_batch_occupancy, "requests"});
    r.layers.push_back({"serve.batches",
                        static_cast<double>(stats.batches - before.batches),
                        "count"});
    direct_tree_calls(in, *served->registry, log, r.layers);
  }
  served.reset();
  record_checks(in, log, r);
  return r;
}

WorkloadResult run_serve_sharded(std::uint64_t seed, const RunSpec& spec) {
  const ServeInputs& in = serve_inputs({"sponza"}, seed, spec.detail);
  reset_peak_rss();

  WorkloadResult r;
  std::vector<double> gen;
  std::unique_ptr<kdtune::ShardRouter> router;
  std::size_t cursor = 0;
  r.setup_s = repeat_setup(
      spec.setups,
      [&](std::unique_ptr<kdtune::ShardRouter>& s) {
        const Clock::time_point t0 = Clock::now();
        const Scene scene = kdtune::make_sponza(spec.detail);
        const double gen_s = seconds_between(t0, Clock::now());
        kdtune::ShardRouterOptions opts;  // 4 shards, 2 router threads
        opts.algorithm = kdtune::Algorithm::kInPlace;
        opts.config = kdtune::kBaseConfig;
        opts.backend = kdtune::QueryBackend::kCompact;
        s = std::make_unique<kdtune::ShardRouter>(
            std::vector<kdtune::Triangle>(scene.triangles().begin(),
                                          scene.triangles().end()),
            opts);
        cursor = 0;
        closed_loop(in, &cursor, kShardedOutstanding, kShardedChunk,
                    kForever, kWarmupOps, [&](const Request& q) {
                      return submit_to(*s, kTenant, q);
                    });
        return gen_s;
      },
      router, gen);
  r.gen_s = median(gen);

  const kdtune::ShardRouterStats before = router->stats();
  traced(spec.traced);
  LoopLog log = [&] {
    kdtune::TraceSpan span("bench.shard.window", "bench");
    return closed_loop(in, &cursor, kShardedOutstanding, kShardedChunk,
                       spec.seconds, kNoLimit, [&](const Request& q) {
                         return submit_to(*router, kTenant, q);
                       });
  }();
  traced(false);
  r.peak_rss_mb = peak_rss_mb();
  r.take(log.stats);

  if (spec.traced) {
    const kdtune::ShardRouterStats stats = router->stats();
    double slowest = 0.0;
    for (const auto& slot : stats.shards) {
      slowest = std::max(slowest, slot.p50_seconds);
    }
    r.layers.push_back({"shard.mean_fanout", stats.mean_fanout, "shards"});
    r.layers.push_back(
        {"shard.subqueries",
         static_cast<double>(stats.subqueries - before.subqueries), "count"});
    r.layers.push_back({"shard.subquery_ms_p50", ms(slowest), "ms"});
  }
  router.reset();
  record_checks(in, log, r);

  if (spec.traced) {
    // The same stream and window against one direct QueryService: what the
    // router tier adds per request.
    const auto direct = start_service(in.scenes, in.names);
    const auto submit = [&](const Request& q) {
      return submit_to(*direct->service, in.names[q.scene], q);
    };
    std::size_t direct_cursor = 0;
    closed_loop(in, &direct_cursor, kShardedOutstanding, kShardedChunk,
                kForever, kWarmupOps, submit);
    traced(true);
    const LoopLog direct_log =
        closed_loop(in, &direct_cursor, kShardedOutstanding, kShardedChunk,
                    spec.seconds, kNoLimit, submit);
    traced(false);
    r.layers.push_back({"shard.router_overhead_ms",
                        r.op_ms_p50 - direct_log.stats.best_p50_ms(), "ms"});
    record_checks(in, direct_log, r);
  }
  return r;
}

}  // namespace perfbench
