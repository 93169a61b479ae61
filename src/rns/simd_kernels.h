/**
 * @file
 * Hand-vectorized limb kernels: the avx2 / avx512 kernel tables of the
 * kernel engine (rns/backend.h), selected at runtime; see
 * rns/cpu_features.h for the tier probe.
 *
 * Each entry runs the exact same integer arithmetic as its scalar
 * counterpart, lane-wise: the Harvey lazy NTT keeps its [0, 4q)
 * butterfly domain per lane (vector Shoup mul-hi built from four
 * 32x32->64 partial products, since x86 has no packed 64x64->128
 * multiply below AVX-512IFMA), the fused BConv tile accumulates the
 * full 128-bit MAC as a (lo, hi) vector pair with explicit carries,
 * and the evk MAC mirrors Modulus::reduce's Barrett formula word for
 * word. All operations are exact arithmetic mod 2^64 applied in the
 * same per-element order as the scalar loops, so results are
 * bit-identical by construction (tests/test_backend_parity.cpp
 * enforces it against the scalar table on every kernel).
 *
 * Null function pointers mean "no vector kernel at this tier" (scalar
 * hosts, the NEON stub tier, degrees below min_ntt_degree) and the
 * engine falls back to the scalar loop for that call — never an
 * abort.
 */

#pragma once

#include <cstddef>

#include "common/types.h"
#include "rns/cpu_features.h"

namespace ark {

class BaseConverter;
class Modulus;
class NttTables;

/** Function table of one vector ISA tier's kernels. */
struct SimdKernels
{
    /** Tier these kernels actually are (after clamping to the host). */
    SimdTier tier = SimdTier::Scalar;
    /** Smallest degree ntt_forward / ntt_inverse accept; smaller
     *  transforms use the scalar path (too few lanes to permute). */
    size_t min_ntt_degree = 0;

    /** In-place lazy forward NTT of one limb (== NttTables::forward). */
    void (*ntt_forward)(u64 *limb, const NttTables &tables) = nullptr;
    /** In-place lazy inverse NTT of one limb (== NttTables::inverse). */
    void (*ntt_inverse)(u64 *limb, const NttTables &tables) = nullptr;
    /** Fused BConv scale+MAC over a coefficient tile [c0, c1)
     *  (== BaseConverter::convertTile; scratch >= kTileWords). */
    void (*bconv_tile)(const BaseConverter &bc, const u64 *const *in,
                       size_t c0, size_t c1, u64 *scratch,
                       u64 *const *out) = nullptr;
    /** One limb of the key-switch MAC: ab += d * kb, aa += d * ka, or
     *  ab = d * kb, aa = d * ka when @p accumulate is false
     *  (== the KernelBackend::evkMulAcc inner loop). */
    void (*evk_mac_limb)(const Modulus &m, const u64 *d, const u64 *kb,
                         const u64 *ka, u64 *ab, u64 *aa, size_t n,
                         bool accumulate) = nullptr;
};

/**
 * Kernel table for @p tier, clamped to what this binary was compiled
 * with and what the running CPU reports: asking for avx512 on an
 * AVX2-only host returns the AVX2 table; on a scalar host (or any
 * non-x86 build) the table has null entries and tier Scalar.
 */
const SimdKernels &simdKernels(SimdTier tier);

} // namespace ark
