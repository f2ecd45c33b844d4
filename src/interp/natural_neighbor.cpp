#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "vf/interp/methods.hpp"
#include "vf/spatial/kdtree.hpp"
#include "vf/util/parallel.hpp"

namespace vf::interp {

vf::field::ScalarField NaturalNeighborReconstructor::reconstruct(
    const vf::sampling::SampleCloud& cloud,
    const vf::field::UniformGrid3& grid) const {
  if (cloud.size() == 0) {
    throw std::invalid_argument("natural: empty sample cloud");
  }
  vf::spatial::KdTree tree(cloud.points());
  const auto& values = cloud.values();
  const auto& d = grid.dims();
  const std::int64_t n = grid.point_count();

  // Pass 1: discrete Voronoi diagram of the samples on the target grid —
  // nearest sample id and distance for every voxel.
  std::vector<std::uint32_t> nn_id(static_cast<std::size_t>(n));
  std::vector<float> nn_dist(static_cast<std::size_t>(n));
  vf::util::parallel_for(0, n, [&](std::int64_t i) {
    auto nb = tree.knn(grid.position(i), 1);
    nn_id[static_cast<std::size_t>(i)] = nb[0].index;
    nn_dist[static_cast<std::size_t>(i)] =
        static_cast<float>(std::sqrt(nb[0].dist2));
  });

  // Pass 2: discrete Sibson scatter. Voxel u "would be stolen" by an
  // inserted query q iff |u - q| < |u - nn(u)|, so u contributes its
  // sample's value to every voxel strictly within nn_dist(u) of u.
  //
  // Computed as an owner-computes gather: each thread owns whole target
  // z-planes and walks every source voxel whose ball reaches its plane in
  // ascending source order, writing only into its own plane. Every voxel's
  // contributions therefore sum in the same fixed order whatever the
  // thread count or schedule — bit-identical to a serial scatter.
  std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
  std::vector<double> wgt(static_cast<std::size_t>(n), 0.0);
  const auto& h = grid.spacing();
  // Per-source z reach, and each source plane's widest reach so whole
  // planes that cannot touch a target plane are skipped.
  std::vector<int> reach_k(static_cast<std::size_t>(n));
  std::vector<int> plane_reach(static_cast<std::size_t>(d.nz), 0);
  for (std::int64_t u = 0; u < n; ++u) {
    const int rk = static_cast<int>(nn_dist[static_cast<std::size_t>(u)] / h.z);
    reach_k[static_cast<std::size_t>(u)] = rk;
    const auto ku = static_cast<std::size_t>(grid.ijk(u)[2]);
    plane_reach[ku] = std::max(plane_reach[ku], rk);
  }

  // vf-par: disjoint-writes — iteration kq writes only the acc/wgt entries
  // of target plane kq.
#pragma omp parallel for schedule(dynamic, 1)
  for (int kq = 0; kq < d.nz; ++kq) {
    for (int ku = 0; ku < d.nz; ++ku) {
      const int dk = std::abs(kq - ku);
      if (dk > plane_reach[static_cast<std::size_t>(ku)]) continue;
      const double dz = (kq - ku) * h.z;
      for (int ju = 0; ju < d.ny; ++ju) {
        for (int iu = 0; iu < d.nx; ++iu) {
          const std::int64_t u = grid.index(iu, ju, ku);
          const auto uu = static_cast<std::size_t>(u);
          if (dk > reach_k[uu]) continue;
          const double r = nn_dist[uu];
          const double val = values[nn_id[uu]];
          const int rj = static_cast<int>(r / h.y);
          const double r2 = r * r;
          for (int jq = std::max(0, ju - rj);
               jq <= std::min(d.ny - 1, ju + rj); ++jq) {
            const double dy = (jq - ju) * h.y;
            const double dyz2 = dy * dy + dz * dz;
            if (dyz2 >= r2) continue;
            // widest |di| with di^2 h.x^2 + dyz2 < r2
            const int di_max = static_cast<int>(std::sqrt(r2 - dyz2) / h.x);
            for (int iq = std::max(0, iu - di_max);
                 iq <= std::min(d.nx - 1, iu + di_max); ++iq) {
              const double dx = (iq - iu) * h.x;
              if (dx * dx + dyz2 >= r2) continue;
              const auto q = static_cast<std::size_t>(grid.index(iq, jq, kq));
              acc[q] += val;
              wgt[q] += 1.0;
            }
          }
        }
      }
    }
  }

  // Pass 3: normalise; voxels that received no contribution (isolated
  // regions with r_u = 0 neighbours) fall back to their nearest sample.
  vf::field::ScalarField out(grid, "natural");
  vf::util::parallel_for(0, n, [&](std::int64_t i) {
    auto ui = static_cast<std::size_t>(i);
    out[i] = wgt[ui] > 0.0 ? acc[ui] / wgt[ui] : values[nn_id[ui]];
  });
  return out;
}

}  // namespace vf::interp
