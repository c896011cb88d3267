// The benchmark's own checks: seeded inputs are reproducible byte for byte,
// the verifier rejects corrupted answers, the chunk statistics pick the
// right order statistics, and every workload drives the program from a
// single thread.
// Exits non-zero on the first failed check. Run by ../test_perfbench.py.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "inputs.hpp"
#include "scene/generators.hpp"
#include "serve/query_service.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void inputs_are_reproducible() {
  const kdtune::Scene scene = kdtune::make_sponza(0.1f);
  const std::vector<kdtune::AABB> bounds{scene.bounds(), scene.bounds()};
  const std::string a = encode(make_requests(7, bounds, 4096));
  check(a == encode(make_requests(7, bounds, 4096)),
        "same seed gives byte-identical requests");
  check(a != encode(make_requests(8, bounds, 4096)),
        "another seed gives other requests");
  const std::string r = encode(make_rays(7, scene.bounds(), 4000));
  check(r == encode(make_rays(7, scene.bounds(), 4000)),
        "same seed gives byte-identical rays");
  check(r != encode(make_rays(8, scene.bounds(), 4000)),
        "another seed gives other rays");
}

/// Serves a few requests of each family, then checks that the verifier
/// accepts the real answers and rejects each kind of corruption.
void verifier_rejects_corruption() {
  const kdtune::Scene scene = kdtune::make_sponza(0.1f);
  const std::vector<kdtune::AABB> bounds{scene.bounds()};
  const std::vector<Request> requests = make_requests(3, bounds, 400);
  kdtune::ThreadPool pool(2);
  kdtune::SceneRegistry registry(pool);
  registry.admit("s", scene);
  kdtune::QueryService service(registry, pool);
  const std::vector<kdtune::Scene> scenes{scene};
  const auto tris = scene.triangles();
  const std::vector<Outcome> expected =
      expected_outcomes(requests, scenes, 64, pool);
  // The benchmark's rule: an exact match passes; anything else is settled
  // by brute force.
  const auto accepted = [&](std::uint32_t i, const Outcome& got) {
    if (same(got, expected[i])) return true;
    const Suspect s{i, got};
    return adjudicate(requests, {&s, 1}, scenes).mismatches == 0;
  };

  std::vector<Outcome> served;
  std::vector<kdtune::QueryResponse> responses;
  for (const Request& q : requests) {
    responses.push_back(submit_to(service, "s", q).get());
    served.push_back(outcome_of(q, responses.back()));
  }
  bool all = true;
  for (std::uint32_t i = 0; i < requests.size(); ++i) {
    all = all && accepted(i, served[i]);
  }
  check(all, "verifier accepts the served answers");

  // One corrupted copy per family, on a request with a non-empty answer.
  int corrupted[kFamilyCount] = {};
  for (std::uint32_t i = 0; i < requests.size(); ++i) {
    const Request& q = requests[i];
    const int fam = static_cast<int>(q.family);
    if (corrupted[fam] > 0) continue;
    kdtune::QueryResponse bad = responses[i];
    switch (q.family) {
      case Family::kClosestHit:
        if (!bad.hit.valid()) continue;
        bad.hit.t = std::nextafter(bad.hit.t, INFINITY);
        break;
      case Family::kAnyHit: bad.any = !bad.any; break;
      case Family::kRange:
        if (bad.range_ids.empty()) continue;
        bad.range_ids.pop_back();
        break;
      case Family::kKnn:
        if (bad.neighbors.empty()) continue;
        bad.neighbors.back().triangle ^= 1u;
        break;
      case Family::kClosestPoint:
        if (!bad.nearest.valid()) continue;
        bad.nearest.distance_sq = std::nextafter(bad.nearest.distance_sq, 0.0f);
        break;
    }
    check(!accepted(i, outcome_of(q, bad)),
          std::string("verifier rejects a corrupted ") + family_name(q.family));
    ++corrupted[fam];
  }
  for (int f = 0; f < kFamilyCount; ++f) {
    check(corrupted[f] == 1, std::string("corruption tried for ") +
                                 family_name(static_cast<Family>(f)));
  }

  // A closest-hit id is accepted only for a genuine equal-t tie.
  for (std::uint32_t i = 0; i < requests.size(); ++i) {
    const Request& q = requests[i];
    if (q.family != Family::kClosestHit || !responses[i].hit.valid()) continue;
    Outcome o = served[i];
    o.triangle = (o.triangle + 1) % static_cast<std::uint32_t>(tris.size());
    const Outcome want = run_on(q, *make_reference(scene, pool));
    check(!matches(q, o, want, tris),
          "verifier rejects a closest-hit id that is not a tie");
    break;
  }

  std::vector<float> ts(100, 1.0f);
  const std::uint64_t h = hash_hit_distances(ts);
  ts[50] = std::nextafter(1.0f, 2.0f);
  check(h != hash_hit_distances(ts),
        "frame hash changes when one hit distance moves one ulp");
}

void chunk_statistics() {
  const Clock::time_point t0 = Clock::now();
  ChunkStats stats(1000, t0);
  for (int i = 1; i <= 1000; ++i) stats.add(i, after(t0, 0.5));
  for (int i = 1; i <= 1000; ++i) stats.add(2.0 * i, after(t0, 2.5));
  for (int i = 1; i <= 10; ++i) stats.add(0.001, after(t0, 2.6));
  stats.finish(after(t0, 2.6));
  check(stats.chunks() == 2 && stats.tail_percentile() == 99.0,
        "1000-op chunks: two full chunks, tail is p99");
  check(stats.best_p50_ms() == 500.0 && stats.best_tail_ms() == 990.0,
        "best chunk median and tail (ten samples beyond)");
  check(std::fabs(stats.best_ops_per_s() - 2000.0) < 1e-6,
        "best chunk throughput");
  ChunkStats partial(100, t0);
  for (int i = 1; i <= 40; ++i) partial.add(i, after(t0, 1.0));
  partial.finish(after(t0, 1.0));
  check(partial.chunks() == 1 && partial.best_p50_ms() == 20.0,
        "a window shorter than one chunk reports its partial chunk");
}

void single_generator_thread() {
  const RunSpec spec{0.3, 1, false, 0.1f};
  const WorkloadResult frames = run_frames_rebuild(5, spec);
  const WorkloadResult mixed = run_serve_mixed(5, spec);
  const WorkloadResult sharded = run_serve_sharded(5, spec);
  check(frames.generator_threads == 1 && mixed.generator_threads == 1 &&
            sharded.generator_threads == 1,
        "each workload submits from exactly one thread");
  check(frames.failed == 0 && mixed.failed == 0 && sharded.failed == 0 &&
            frames.attempted > 0 && mixed.attempted > 0 &&
            sharded.attempted > 0,
        "short low-detail runs verify clean");
}

}  // namespace

int main() {
  inputs_are_reproducible();
  verifier_rejects_corruption();
  chunk_statistics();
  single_generator_thread();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
