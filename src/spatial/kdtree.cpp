#include "vf/spatial/kdtree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include <omp.h>

#include "vf/obs/obs.hpp"
#include "vf/util/contract.hpp"

namespace vf::spatial {

using vf::field::Vec3;

namespace {

inline double coord(const Vec3& p, int axis) {
  return axis == 0 ? p.x : (axis == 1 ? p.y : p.z);
}

inline double dist2(const Vec3& a, const Vec3& b) {
  double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
  return dx * dx + dy * dy + dz * dz;
}

/// Nodes a subtree over n points occupies. Must mirror the split in
/// build_at (left = n/2) so the DFS layout is computable up front.
std::uint32_t subtree_nodes(std::uint32_t n) {
  constexpr std::uint32_t kLeaf = 16;  // == KdTree::kLeafSize
  // total(n) = 1 + total(n/2) + total(n - n/2): recurse on the right child,
  // iterate down the left spine.
  std::uint32_t total = 1;  // the leaf this spine ends in
  while (n > kLeaf) {
    total += 1 + subtree_nodes(n - n / 2);
    n /= 2;
  }
  return total;
}

// Subtrees below this point count build serially; above it each half is an
// OpenMP task. Large enough that task overhead never dominates nth_element.
constexpr std::uint32_t kTaskGrain = 8192;

}  // namespace

// Points are kept in build order; the tree permutes an index array instead,
// so Neighbor::index always refers to the caller's original ordering.

KdTree::KdTree(std::vector<Vec3> points) : points_(std::move(points)) {
  if (points_.empty()) return;
  VF_OBS_SPAN("kdtree_build");
  VF_OBS_COUNT("spatial.kdtree.builds", 1);
  const auto n = static_cast<std::uint32_t>(points_.size());
  // DFS layout with precomputed subtree sizes: every recursive call owns a
  // disjoint [self, self + subtree_nodes) node range and a disjoint
  // [begin, end) permutation range, so subtrees build in parallel without
  // synchronisation on the node array.
  nodes_.resize(subtree_nodes(n));
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), 0u);
  root_ = 0;
  // vf-par: disjoint-writes — tasks recurse into non-overlapping node and
  // permutation ranges (see layout comment above); joined by the implicit
  // barrier at the end of the parallel region.
#pragma omp parallel
#pragma omp single nowait
  build_at(0, n, root_);
  // Reorder the point storage to match perm_ so leaf scans are sequential.
  std::vector<Vec3> reordered(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    VF_BOUNDS_CHECK(perm_[i], points_.size());
    reordered[i] = points_[perm_[i]];
  }
  points_storage_ = std::move(reordered);
}

void KdTree::build_at(std::uint32_t begin, std::uint32_t end,
                      std::uint32_t self) {
  VF_BOUNDS_CHECK(self, nodes_.size());
  Node node;
  if (end - begin <= kLeafSize) {
    node.first = begin;
    node.count = end - begin;
    nodes_[self] = node;
    return;
  }

  // Choose the axis with the widest extent over this range.
  Vec3 lo{std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity()};
  Vec3 hi{-std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
  for (std::uint32_t i = begin; i < end; ++i) {
    const Vec3& p = points_[perm_[i]];
    lo.x = std::min(lo.x, p.x); hi.x = std::max(hi.x, p.x);
    lo.y = std::min(lo.y, p.y); hi.y = std::max(hi.y, p.y);
    lo.z = std::min(lo.z, p.z); hi.z = std::max(hi.z, p.z);
  }
  Vec3 ext = hi - lo;
  int axis = 0;
  if (ext.y >= ext.x && ext.y >= ext.z) axis = 1;
  else if (ext.z >= ext.x && ext.z >= ext.y) axis = 2;

  std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(perm_.begin() + begin, perm_.begin() + mid,
                   perm_.begin() + end,
                   [&](std::uint32_t a, std::uint32_t b) {
                     return coord(points_[a], axis) < coord(points_[b], axis);
                   });

  node.axis = static_cast<std::uint8_t>(axis);
  node.split = static_cast<float>(coord(points_[perm_[mid]], axis));
  // Tight child bounds on the split axis for pruning.
  double left_max = -std::numeric_limits<double>::infinity();
  for (std::uint32_t i = begin; i < mid; ++i) {
    left_max = std::max(left_max, coord(points_[perm_[i]], axis));
  }
  double right_min = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = mid; i < end; ++i) {
    right_min = std::min(right_min, coord(points_[perm_[i]], axis));
  }
  node.split_lo = left_max;
  node.split_hi = right_min;

  node.left = self + 1;
  node.right = self + 1 + subtree_nodes(mid - begin);
  nodes_[self] = node;
  if (end - begin >= kTaskGrain) {
    // Children touch disjoint ranges, so the left half runs as an
    // independent task while the right half continues on this thread; the
    // parallel region's barrier joins all tasks before storage reorder.
    const std::uint32_t left_idx = node.left;
#pragma omp task firstprivate(begin, mid, left_idx)
    build_at(begin, mid, left_idx);
    build_at(mid, end, node.right);
  } else {
    build_at(begin, mid, node.left);
    build_at(mid, end, node.right);
  }
}

template <typename Visitor>
void KdTree::search(std::uint32_t node_idx, const Vec3& q, double& worst,
                    Visitor&& visit) const {
  VF_BOUNDS_CHECK(node_idx, nodes_.size());
  const Node& node = nodes_[node_idx];
  if (node.count > 0) {
    VF_ASSERT(node.first + node.count <= points_storage_.size(),
              "KdTree: leaf range outside point storage");
    for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
      double d2 = dist2(points_storage_[i], q);
      if (d2 <= worst) visit(perm_[i], d2, worst);
    }
    return;
  }
  double qc = coord(q, node.axis);
  // Distance lower bounds to each child's slab on the split axis.
  double d_left = qc > node.split_lo ? qc - node.split_lo : 0.0;
  double d_right = qc < node.split_hi ? node.split_hi - qc : 0.0;
  // `<=`, not `<`: a sample exactly at the current worst distance may
  // still win its tie on index (see knn).
  if (d_left <= d_right) {
    if (d_left * d_left <= worst) search(node.left, q, worst, visit);
    if (d_right * d_right <= worst) search(node.right, q, worst, visit);
  } else {
    if (d_right * d_right <= worst) search(node.right, q, worst, visit);
    if (d_left * d_left <= worst) search(node.left, q, worst, visit);
  }
}

void KdTree::knn(const Vec3& query, int k, std::vector<Neighbor>& out) const {
  out.clear();
  if (points_.empty() || k <= 0) return;
  k = std::min<int>(k, static_cast<int>(points_.size()));
  out.reserve(static_cast<std::size_t>(k));
  double worst = std::numeric_limits<double>::infinity();

  // Sorted-array candidate set: k is small (5 in the paper pipeline), so
  // insertion into a sorted vector beats a heap. Ties in distance break on
  // the lower index — GridHashIndex's order — so both indexes return the
  // same neighbours and every query path agrees bit for bit.
  auto visit = [&](std::uint32_t idx, double d2, double& w) {
    Neighbor nb{idx, d2};
    auto pos = std::lower_bound(out.begin(), out.end(), nb,
                                [](const Neighbor& a, const Neighbor& b) {
                                  return a.dist2 != b.dist2
                                             ? a.dist2 < b.dist2
                                             : a.index < b.index;
                                });
    out.insert(pos, nb);
    if (out.size() > static_cast<std::size_t>(k)) out.pop_back();
    if (out.size() == static_cast<std::size_t>(k)) w = out.back().dist2;
  };
  search(root_, query, worst, visit);
}

std::uint32_t KdTree::nearest(const Vec3& query) const {
  if (points_.empty()) {
    throw std::logic_error("KdTree::nearest on empty tree");
  }
  double worst = std::numeric_limits<double>::infinity();
  std::uint32_t best = 0;
  auto visit = [&](std::uint32_t idx, double d2, double& w) {
    if (d2 < w || idx < best) {  // d2 == w: the lower index wins the tie
      best = idx;
      w = d2;
    }
  };
  search(root_, query, worst, visit);
  return best;
}

std::vector<Neighbor> KdTree::radius_query(const Vec3& query,
                                           double radius) const {
  std::vector<Neighbor> out;
  if (points_.empty() || radius < 0) return out;
  double worst = radius * radius + 1e-300;
  auto visit = [&](std::uint32_t idx, double d2, double& /*w*/) {
    if (d2 <= radius * radius) out.push_back({idx, d2});
  };
  search(root_, query, worst, visit);
  return out;
}

}  // namespace vf::spatial
