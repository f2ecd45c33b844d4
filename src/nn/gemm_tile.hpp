#pragma once
// The one GEMM tile engine behind both dense paths: the fp64 kernel layer
// (kernels.cpp: training and fp64 inference) and the fp32 quantized
// inference (quant.cpp). It holds the operand packers, the
// register-resident MR x NR micro-kernel with its vectorised write-back,
// and the sweep over one packed B block; the callers own the Kc/Nc
// blocking and the thread-count decision.
//
// The vector width comes from the compile target, not a runtime switch:
// 512-bit vectors where AVX-512 is enabled, 256-bit under AVX, 128-bit
// otherwise (baseline x86-64 SSE2 and any other target). A tile row is two
// vectors wide and MR rows tall, sized so the 2*MR accumulators, the two B
// vectors and a broadcast A value all fit the target's register file —
// the accumulators never leave registers inside the k loop.
//
// Each C element is summed in the packed panels' k order, one fused
// (or, without FMA, separate) multiply-add per k step, starting from zero;
// the tile shape decides only which elements share registers, so it never
// changes a result.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "vf/util/aligned.hpp"

namespace vf::nn::detail {

// Vector width in bytes and tile height MR per target. MR leaves room in
// the register file for the 2*MR accumulators, the two B vectors and a
// broadcast A value: 32 registers under AVX-512, 16 under AVX, and 16
// under SSE2, whose two-operand multiply also needs a scratch copy.
#if defined(__AVX512F__)
inline constexpr std::size_t kVecBytes = 64;
inline constexpr std::size_t kTileRows = 8;
#elif defined(__AVX__)
inline constexpr std::size_t kVecBytes = 32;
inline constexpr std::size_t kTileRows = 6;
#else
inline constexpr std::size_t kVecBytes = 16;
inline constexpr std::size_t kTileRows = 5;
#endif

template <class T>
struct Simd;
template <>
struct Simd<double> {
  typedef double V __attribute__((vector_size(kVecBytes)));
};
template <>
struct Simd<float> {
  typedef float V __attribute__((vector_size(kVecBytes)));
};

/// Register tile and A-block geometry for element type T.
template <class T>
struct Tile {
  static constexpr std::size_t kLanes = kVecBytes / sizeof(T);
  static constexpr std::size_t NV = 2;  // vectors per tile row
  static constexpr std::size_t NR = NV * kLanes;
  static constexpr std::size_t MR = kTileRows;
  // Packed A row block: ~128 rows, a whole number of micro-panels.
  static constexpr std::size_t MC = 128 / MR * MR;
};

/// Pack op(A) rows [i0, i0+mc) x cols [p0, p0+kc) into contiguous MR x kc
/// micro-panels (column-of-the-panel major), zero-padding the row
/// remainder so the micro-kernel never branches on edges. Packing absorbs
/// the transposed layout: when `trans`, A is stored (k x m).
template <class T>
void pack_a(const T* a, std::size_t lda, bool trans, std::size_t i0,
            std::size_t mc, std::size_t p0, std::size_t kc, T* dst) {
  constexpr std::size_t MR = Tile<T>::MR;
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t mr = std::min(MR, mc - ir);
    if (trans) {
      for (std::size_t l = 0; l < kc; ++l) {
        const T* src = a + (p0 + l) * lda + i0 + ir;
        for (std::size_t i = 0; i < mr; ++i) dst[l * MR + i] = src[i];
        for (std::size_t i = mr; i < MR; ++i) dst[l * MR + i] = T(0);
      }
    } else {
      for (std::size_t i = 0; i < mr; ++i) {
        const T* src = a + (i0 + ir + i) * lda + p0;
        for (std::size_t l = 0; l < kc; ++l) dst[l * MR + i] = src[l];
      }
      for (std::size_t i = mr; i < MR; ++i) {
        for (std::size_t l = 0; l < kc; ++l) dst[l * MR + i] = T(0);
      }
    }
    dst += kc * MR;
  }
}

/// Pack op(B) rows [p0, p0+kc) x cols [j0, j0+nc) into contiguous kc x NR
/// micro-panels, zero-padding the column remainder. When `trans`, B is
/// stored (n x k).
template <class T>
void pack_b(const T* b, std::size_t ldb, bool trans, std::size_t p0,
            std::size_t kc, std::size_t j0, std::size_t nc, T* dst) {
  constexpr std::size_t NR = Tile<T>::NR;
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    if (trans) {
      for (std::size_t j = 0; j < nr; ++j) {
        const T* src = b + (j0 + jr + j) * ldb + p0;
        for (std::size_t l = 0; l < kc; ++l) dst[l * NR + j] = src[l];
      }
      for (std::size_t j = nr; j < NR; ++j) {
        for (std::size_t l = 0; l < kc; ++l) dst[l * NR + j] = T(0);
      }
    } else {
      for (std::size_t l = 0; l < kc; ++l) {
        const T* src = b + (p0 + l) * ldb + j0 + jr;
        for (std::size_t j = 0; j < nr; ++j) dst[l * NR + j] = src[j];
        for (std::size_t j = nr; j < NR; ++j) dst[l * NR + j] = T(0);
      }
    }
    dst += kc * NR;
  }
}

/// What a tile write-back does on top of storing the accumulators:
/// `accumulate` adds C's prior contents (partial sums of earlier Kc
/// panels, or the caller's accumulate-into-C mode); `bias` (offset to the
/// tile's first column) is added next and `relu` clamps negatives last.
template <class T>
struct Epilogue {
  bool accumulate = false;
  const T* bias = nullptr;
  bool relu = false;
};

/// One MR x NR tile: accumulate the packed panel pair `ap`/`bp` over kc in
/// registers, then write the mr x nr corner to C through the epilogue. A
/// full-width tile (nr == NR) writes back in vectors for any mr; only a
/// ragged right edge falls back to scalars.
template <class T>
inline void tile_kernel(std::size_t kc, const T* __restrict ap,
                        const T* __restrict bp, T* c, std::size_t ldc,
                        std::size_t mr, std::size_t nr, Epilogue<T> ep) {
  using V = typename Simd<T>::V;
  using Mask = decltype(V{} < V{});
  constexpr std::size_t MR = Tile<T>::MR;
  constexpr std::size_t NR = Tile<T>::NR;
  constexpr std::size_t NV = Tile<T>::NV;
  constexpr std::size_t L = Tile<T>::kLanes;

  V acc[MR][NV] = {};
  for (std::size_t l = 0; l < kc; ++l) {
    V b[NV];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(&b[v], bp + l * NR + v * L, sizeof(V));
    }
#pragma GCC unroll 16
    for (std::size_t i = 0; i < MR; ++i) {
      const T av = ap[l * MR + i];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < NV; ++v) acc[i][v] += av * b[v];
    }
  }

  if (nr == NR) {
#pragma GCC unroll 16
    for (std::size_t i = 0; i < MR; ++i) {
      if (i >= mr) break;
      T* crow = c + i * ldc;
#pragma GCC unroll 4
      for (std::size_t v = 0; v < NV; ++v) {
        V x = acc[i][v];
        if (ep.accumulate) {
          V prior;
          std::memcpy(&prior, crow + v * L, sizeof(V));
          x += prior;
        }
        if (ep.bias) {
          V bias;
          std::memcpy(&bias, ep.bias + v * L, sizeof(V));
          x += bias;
        }
        if (ep.relu) {
          // Clear the lanes that compare below zero; NaN and -0 pass
          // through unchanged, exactly as the scalar `v < 0 ? 0 : v`.
          const Mask negative = x < V{};
          x = std::bit_cast<V>(std::bit_cast<Mask>(x) & ~negative);
        }
        std::memcpy(crow + v * L, &x, sizeof(V));
      }
    }
    return;
  }

  alignas(64) T tile[MR * NR];
#pragma GCC unroll 16
  for (std::size_t i = 0; i < MR; ++i) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(tile + i * NR + v * L, &acc[i][v], sizeof(V));
    }
  }
  for (std::size_t i = 0; i < mr; ++i) {
    T* crow = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      T x = tile[i * NR + j];
      if (ep.accumulate) x += crow[j];
      if (ep.bias) x += ep.bias[j];
      if (ep.relu && x < T(0)) x = T(0);
      crow[j] = x;
    }
  }
}

/// C(m x nc) (op)= op(A)[:, p0:p0+kc] . B for one packed B block (kc x nc
/// in NR-wide micro-panels, as pack_b lays it out): pack each MC-row band
/// of A, then sweep each MR-row strip of the band across every column
/// panel, so C is written row-contiguously (small-k layers are bound by
/// those writes). With `threads`, the bands split across OpenMP threads;
/// each writes a disjoint row band of C. `ep.bias` is indexed from C's
/// first column.
template <class T>
void sweep_block(std::size_t m, std::size_t nc, std::size_t kc, const T* a,
                 std::size_t lda, bool a_trans, std::size_t p0,
                 const T* bpack, T* c, std::size_t ldc, Epilogue<T> ep,
                 bool threads) {
  constexpr std::size_t MR = Tile<T>::MR;
  constexpr std::size_t NR = Tile<T>::NR;
  constexpr std::size_t MC = Tile<T>::MC;
  const auto ic_blocks = static_cast<std::int64_t>((m + MC - 1) / MC);
  // vf-par: per-thread-scratch — apack is thread-local; each ic-block
  // writes a disjoint row band of C; bpack is read-only in the region.
#pragma omp parallel if (threads)
  {
    vf::util::AlignedVector<T> apack(MC * kc);
#pragma omp for schedule(static)
    for (std::int64_t icb = 0; icb < ic_blocks; ++icb) {
      const std::size_t ic = static_cast<std::size_t>(icb) * MC;
      const std::size_t mc = std::min(MC, m - ic);
      pack_a(a, lda, a_trans, ic, mc, p0, kc, apack.data());
      for (std::size_t ir = 0; ir < mc; ir += MR) {
        const std::size_t mr = std::min(MR, mc - ir);
        const T* ap = apack.data() + (ir / MR) * kc * MR;
        for (std::size_t jr = 0; jr < nc; jr += NR) {
          Epilogue<T> tile_ep = ep;
          if (ep.bias) tile_ep.bias = ep.bias + jr;
          tile_kernel(kc, ap, bpack + (jr / NR) * kc * NR,
                      c + (ic + ir) * ldc + jr, ldc, mr,
                      std::min(NR, nc - jr), tile_ep);
        }
      }
    }
  }
}

}  // namespace vf::nn::detail
