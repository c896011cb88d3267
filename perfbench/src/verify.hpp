#pragma once

// Output verification. References are computed before any set-up or
// timing; each op's output is reduced to an Outcome after its latency is
// stamped and compared with the reference; disagreements are settled by
// brute force after the window.
//
// An Outcome is a digest of everything the family defines exactly (sorted
// range ids, (distance, id) kNN lists and closest points, the any-hit bit,
// the hit distance), plus the closest-hit triangle id kept apart. The
// reference is a BVH over the same triangles, with brute force
// authoritative on a fixed sample of requests. Closest-hit compares t bit
// for bit; the triangle id must match too unless the served triangle is hit
// at exactly the same t, because id tie-breaks between equal-t triangles are
// not canonical across builders.

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "bvh/bvh.hpp"
#include "inputs.hpp"
#include "scene/scene.hpp"
#include "serve/query_service.hpp"

namespace perfbench {

struct Outcome {
  std::uint64_t digest = 0;
  float t = std::numeric_limits<float>::infinity();  ///< closest-hit only
  std::uint32_t triangle = kdtune::Hit::kNoTriangle;  ///< closest-hit only
};

/// Outcome of a served response; a non-kOk status must be counted by the
/// caller before this is consulted.
Outcome outcome_of(const Request& req, const kdtune::QueryResponse& resp);

/// Outcome of running `req` directly against `tree`.
Outcome run_on(const Request& req, const kdtune::KdTreeBase& tree);

/// Outcome of the brute-force oracle over the whole soup.
Outcome brute_force(const Request& req, std::span<const kdtune::Triangle> tris);

/// Bit-identical outcomes: the fast path every op takes; anything else is
/// a suspect for brute force to settle.
inline bool same(const Outcome& a, const Outcome& b) noexcept {
  return a.digest == b.digest && a.triangle == b.triangle;
}

/// True when `got` is a correct answer given the reference answer `want`.
bool matches(const Request& req, const Outcome& got, const Outcome& want,
             std::span<const kdtune::Triangle> tris);

/// Order-sensitive digest of closest-hit distances (bit patterns; a miss
/// is +infinity); the per-frame check of the frame workload.
std::uint64_t hash_hit_distances(std::span<const float> ts);

/// A BVH over `scene`: the reference structure (default BvhConfig).
std::unique_ptr<kdtune::Bvh> make_reference(const kdtune::Scene& scene,
                                            kdtune::ThreadPool& pool);

/// The expected Outcome of every request (`Request::scene` indexes
/// `scenes`): a BVH's answer, replaced by brute force's on the first
/// `oracle_sample` requests where they differ. Runs on `pool`; the BVHs
/// are dropped before returning.
std::vector<Outcome> expected_outcomes(std::span<const Request> requests,
                                       std::span<const kdtune::Scene> scenes,
                                       std::size_t oracle_sample,
                                       kdtune::ThreadPool& pool);

/// A served answer that differed from the expected table.
struct Suspect {
  std::uint32_t request = 0;
  Outcome got;
};

struct VerifyResult {
  std::uint64_t mismatches = 0;        ///< ops whose answer is wrong
  std::uint64_t reference_misses = 0;  ///< ops the BVH got wrong instead
};

/// Brute force decides every suspect: the BVH can miss hits that brute
/// force and the kd-trees find (see README.md).
VerifyResult adjudicate(std::span<const Request> requests,
                        std::span<const Suspect> suspects,
                        std::span<const kdtune::Scene> scenes);

}  // namespace perfbench
