#include "inputs.hpp"

#include <bit>
#include <cstring>

#include "geom/rng.hpp"

namespace perfbench {

using kdtune::AABB;
using kdtune::Ray;
using kdtune::Rng;
using kdtune::Vec3;

const char* family_name(Family f) noexcept {
  switch (f) {
    case Family::kClosestHit: return "closest_hit";
    case Family::kAnyHit: return "any_hit";
    case Family::kRange: return "range";
    case Family::kKnn: return "knn";
    case Family::kClosestPoint: return "closest_point";
  }
  return "unknown";
}

namespace {

Vec3 point_in(Rng& rng, const AABB& box) {
  return {rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y),
          rng.uniform(box.lo.z, box.hi.z)};
}

void put(std::string& out, std::uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, 4);
  out.append(bytes, 4);
}
void put(std::string& out, float f) {
  put(out, std::bit_cast<std::uint32_t>(f));
}
void put(std::string& out, const Vec3& v) {
  put(out, v.x);
  put(out, v.y);
  put(out, v.z);
}
void put(std::string& out, const Ray& r) {
  put(out, r.origin);
  put(out, r.dir);
  put(out, r.t_min);
  put(out, r.t_max);
}

Ray make_ray(Rng& rng, const AABB& box) {
  const Vec3 origin =
      box.center() + kdtune::normalized(Vec3{rng.uniform(-1, 1),
                                             rng.uniform(-1, 1),
                                             rng.uniform(-1, 1)}) *
                         (kdtune::length(box.extent()) * 0.8f + 0.5f);
  Vec3 dir = point_in(rng, box) - origin;
  if (kdtune::length(dir) == 0.0f) dir = {1, 0, 0};
  return Ray(origin, kdtune::normalized(dir));
}

}  // namespace

std::vector<Ray> make_rays(std::uint64_t seed, const AABB& box,
                           std::size_t count) {
  Rng rng(seed ^ 0x7261797300000000ull);
  std::vector<Ray> rays;
  rays.reserve(count);
  for (std::size_t i = 0; i < count; ++i) rays.push_back(make_ray(rng, box));
  return rays;
}

std::vector<Request> make_requests(std::uint64_t seed,
                                   std::span<const AABB> scenes,
                                   std::size_t count) {
  Rng rng(seed ^ 0x7265717300000000ull);
  std::vector<Request> out(count);
  for (Request& r : out) {
    r.family = static_cast<Family>(rng.next_int(0, kFamilyCount - 1));
    r.scene = static_cast<std::uint32_t>(
        rng.next_int(0, static_cast<std::int64_t>(scenes.size()) - 1));
    const AABB& box = scenes[r.scene];
    const float diag = kdtune::length(box.extent());
    switch (r.family) {
      case Family::kClosestHit:
      case Family::kAnyHit:
        r.ray = make_ray(rng, box);
        break;
      case Family::kRange: {
        const Vec3 c = point_in(rng, box);
        const Vec3 half{rng.uniform(0.01f, 0.05f) * diag,
                        rng.uniform(0.01f, 0.05f) * diag,
                        rng.uniform(0.01f, 0.05f) * diag};
        r.box = AABB(c - half, c + half);
        break;
      }
      case Family::kKnn:
        r.point = point_in(rng, box);
        r.k = static_cast<std::uint32_t>(rng.next_int(1, 8));
        break;
      case Family::kClosestPoint:
        r.point = point_in(rng, box);
        r.radius = diag * 0.5f;
        break;
    }
  }
  return out;
}

std::string encode(std::span<const Ray> rays) {
  std::string out;
  for (const Ray& r : rays) put(out, r);
  return out;
}

std::string encode(std::span<const Request> requests) {
  std::string out;
  for (const Request& r : requests) {
    put(out, static_cast<std::uint32_t>(r.family));
    put(out, r.scene);
    put(out, r.ray);
    put(out, r.box.lo);
    put(out, r.box.hi);
    put(out, r.point);
    put(out, r.k);
    put(out, r.radius);
  }
  return out;
}

}  // namespace perfbench
