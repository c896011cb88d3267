#pragma once

// Seeded benchmark inputs. Every ray, point and box a workload sends is
// generated here from the run's seed and the scenes' Scene::bounds(), before
// any timing starts; the program under test receives only these values.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/ray.hpp"

namespace perfbench {

/// The five request families the serving workloads mix uniformly. Packets
/// are left out on purpose (see README.md).
enum class Family : std::uint8_t {
  kClosestHit,
  kAnyHit,
  kRange,
  kKnn,
  kClosestPoint,
};
inline constexpr int kFamilyCount = 5;
const char* family_name(Family f) noexcept;

struct Request {
  Family family = Family::kClosestHit;
  std::uint32_t scene = 0;  ///< index into the workload's scene list
  kdtune::Ray ray{};        ///< closest-hit / any-hit
  kdtune::AABB box{};       ///< range
  kdtune::Vec3 point{};     ///< kNN / closest-point
  std::uint32_t k = 1;      ///< kNN
  float radius = 0.0f;      ///< closest-point search radius
};

/// `count` rays, each from a sphere around `box` towards a uniform point
/// inside it.
std::vector<kdtune::Ray> make_rays(std::uint64_t seed,
                                   const kdtune::AABB& box,
                                   std::size_t count);

/// `count` requests, each family and scene drawn uniformly. Range boxes
/// have per-axis half-extents of 1-5% of the scene diagonal, kNN draws
/// k in [1, 8], closest-point searches within half the diagonal.
std::vector<Request> make_requests(std::uint64_t seed,
                                   std::span<const kdtune::AABB> scenes,
                                   std::size_t count);

/// Canonical byte encoding (field by field, no padding) used to show that
/// one seed always yields identical inputs.
std::string encode(std::span<const kdtune::Ray> rays);
std::string encode(std::span<const Request> requests);

}  // namespace perfbench
