#include "verify.hpp"

#include <bit>
#include <cstdio>

#include "geom/closest_point.hpp"
#include "geom/intersect.hpp"
#include "kdtree/knn.hpp"
#include "parallel/parallel_for.hpp"

namespace perfbench {

using kdtune::Hit;
using kdtune::NearestResult;
using kdtune::QueryResponse;
using kdtune::Triangle;

namespace {

/// FNV-1a over 32-bit words.
class Digest {
 public:
  void add(std::uint32_t v) noexcept {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  void add(float f) noexcept { add(std::bit_cast<std::uint32_t>(f)); }
  /// (id, distance) is the contract every tree and oracle shares.
  void add(const NearestResult& n) noexcept {
    add(n.triangle);
    add(n.distance_sq);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

Outcome of_hit(const Hit& hit) {
  Outcome o;
  o.t = hit.valid() ? hit.t : std::numeric_limits<float>::infinity();
  o.triangle = hit.valid() ? hit.triangle : Hit::kNoTriangle;
  Digest d;
  d.add(o.t);
  o.digest = d.value();
  return o;
}

Outcome of_any(bool any) {
  Digest d;
  d.add(static_cast<std::uint32_t>(any));
  return {d.value()};
}

Outcome of_ids(std::span<const std::uint32_t> ids) {
  Digest d;
  d.add(static_cast<std::uint32_t>(ids.size()));
  for (std::uint32_t id : ids) d.add(id);
  return {d.value()};
}

Outcome of_neighbors(std::span<const NearestResult> ns) {
  Digest d;
  d.add(static_cast<std::uint32_t>(ns.size()));
  for (const NearestResult& n : ns) d.add(n);
  return {d.value()};
}

Outcome of_nearest(const NearestResult& n) {
  Digest d;
  d.add(static_cast<std::uint32_t>(n.valid()));
  if (n.valid()) d.add(n);
  return {d.value()};
}

}  // namespace

Outcome outcome_of(const Request& req, const QueryResponse& resp) {
  switch (req.family) {
    case Family::kClosestHit: return of_hit(resp.hit);
    case Family::kAnyHit: return of_any(resp.any);
    case Family::kRange: return of_ids(resp.range_ids);
    case Family::kKnn: return of_neighbors(resp.neighbors);
    case Family::kClosestPoint: return of_nearest(resp.nearest);
  }
  return {};
}

Outcome run_on(const Request& req, const kdtune::KdTreeBase& tree) {
  switch (req.family) {
    case Family::kClosestHit: return of_hit(tree.closest_hit(req.ray));
    case Family::kAnyHit: return of_any(tree.any_hit(req.ray));
    case Family::kRange: {
      std::vector<std::uint32_t> ids;
      tree.query_range(req.box, ids);
      return of_ids(ids);
    }
    case Family::kKnn: {
      std::vector<NearestResult> ns;
      tree.nearest_k(req.point, req.k, ns);
      return of_neighbors(ns);
    }
    case Family::kClosestPoint:
      return of_nearest(tree.nearest_within(req.point, req.radius));
  }
  return {};
}

Outcome brute_force(const Request& req, std::span<const Triangle> tris) {
  switch (req.family) {
    case Family::kClosestHit:
      return of_hit(kdtune::brute_force_closest_hit(req.ray, tris));
    case Family::kAnyHit:
      return of_any(kdtune::brute_force_any_hit(req.ray, tris));
    case Family::kRange: {
      // The exact predicate every tree applies at its leaves.
      std::vector<std::uint32_t> ids;
      for (std::uint32_t i = 0; i < tris.size(); ++i) {
        if (tris[i].degenerate()) continue;
        if (req.box.overlaps(tris[i].bounds()) &&
            !kdtune::clipped_bounds(tris[i], req.box).empty()) {
          ids.push_back(i);
        }
      }
      return of_ids(ids);
    }
    case Family::kKnn:
    case Family::kClosestPoint: {
      const bool knn = req.family == Family::kKnn;
      kdtune::KnnCollector collector(
          knn ? req.k : 1,
          knn ? std::numeric_limits<float>::infinity() : req.radius);
      for (std::uint32_t i = 0; i < tris.size(); ++i) {
        if (tris[i].degenerate()) continue;
        const kdtune::Vec3 cp =
            kdtune::closest_point_on_triangle(req.point, tris[i]);
        collector.offer(i, cp, kdtune::length_squared(req.point - cp));
      }
      std::vector<NearestResult> ns;
      collector.take_sorted(ns);
      if (knn) return of_neighbors(ns);
      return of_nearest(ns.empty() ? NearestResult{} : ns.front());
    }
  }
  return {};
}

bool matches(const Request& req, const Outcome& got, const Outcome& want,
             std::span<const Triangle> tris) {
  if (got.digest != want.digest) return false;
  if (req.family != Family::kClosestHit || got.triangle == want.triangle) {
    return true;
  }
  // Equal t, different triangle: accept only a genuine tie.
  if (got.triangle >= tris.size()) return false;
  float t = 0.0f, u = 0.0f, v = 0.0f;
  return kdtune::intersect(req.ray, tris[got.triangle], t, u, v) &&
         std::bit_cast<std::uint32_t>(t) ==
             std::bit_cast<std::uint32_t>(want.t);
}

std::uint64_t hash_hit_distances(std::span<const float> ts) {
  Digest d;
  for (float t : ts) d.add(t);
  return d.value();
}

std::unique_ptr<kdtune::Bvh> make_reference(const kdtune::Scene& scene,
                                            kdtune::ThreadPool& pool) {
  return kdtune::build_bvh(scene.triangles(), kdtune::BvhConfig{}, pool);
}

std::vector<Outcome> expected_outcomes(std::span<const Request> requests,
                                       std::span<const kdtune::Scene> scenes,
                                       std::size_t oracle_sample,
                                       kdtune::ThreadPool& pool) {
  std::vector<std::unique_ptr<kdtune::Bvh>> bvhs;
  for (const kdtune::Scene& s : scenes) bvhs.push_back(make_reference(s, pool));
  std::vector<Outcome> out(requests.size());
  kdtune::parallel_for(pool, 0, requests.size(), 64, [&](std::size_t i) {
    const Request& req = requests[i];
    out[i] = run_on(req, *bvhs[req.scene]);
    if (i >= oracle_sample) return;
    const auto tris = scenes[req.scene].triangles();
    const Outcome brute = brute_force(req, tris);
    if (!matches(req, out[i], brute, tris)) out[i] = brute;
  });
  return out;
}

VerifyResult adjudicate(std::span<const Request> requests,
                        std::span<const Suspect> suspects,
                        std::span<const kdtune::Scene> scenes) {
  VerifyResult result;
  for (const Suspect& s : suspects) {
    const Request& req = requests[s.request];
    const auto tris = scenes[req.scene].triangles();
    if (matches(req, s.got, brute_force(req, tris), tris)) {
      ++result.reference_misses;
    } else if (++result.mismatches <= 5) {
      std::fprintf(stderr, "verify: request %u (%s, scene %u) mismatch\n",
                   s.request, family_name(req.family), req.scene);
    }
  }
  return result;
}

}  // namespace perfbench
