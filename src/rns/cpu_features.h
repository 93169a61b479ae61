/**
 * @file
 * Runtime CPU-feature detection for the SIMD kernel engine.
 *
 * The simd kernel engine picks its vector ISA at startup from CPUID-style
 * probes (AVX-512 -> AVX2 -> scalar; NEON is a recognized tier with a
 * stub implementation that currently falls back to scalar loops), so
 * one binary runs correctly on any host. The tier can be capped — never
 * raised past what the host supports — with ARK_SIMD_TIER, which is how
 * CI keeps the fallback path and the AVX2 path exercised on AVX-512
 * machines.
 */

#pragma once

#include <string>

namespace ark {

/**
 * Vector ISA tier of the SIMD kernel engine. Ordered so that a
 * numerically smaller tier is always a safe substitute for a larger
 * one on the same host (clamping = std::min).
 */
enum class SimdTier {
    Scalar, ///< no vector kernels; scalar lazy loops
    Neon,   ///< aarch64 stub tier (kernels pending; falls back)
    Avx2,   ///< 256-bit kernels, 4 lanes of u64
    Avx512, ///< 512-bit kernels (AVX-512F only), 8 lanes of u64
};

/** Lowercase tier name: "scalar" / "neon" / "avx2" / "avx512". */
const char *simdTierName(SimdTier tier);

/** Parse a tier name as written by simdTierName; false on junk. */
bool parseSimdTier(const char *name, SimdTier &out);

/** Highest tier the running CPU supports (cached after first probe). */
SimdTier detectSimdTier();

/**
 * ARK_SIMD_TIER env override, else @p fallback; exits with a clear
 * error naming the offending value on junk input. The returned tier is
 * a *request*: dispatchedSimdTier() clamps it to detectSimdTier(), so
 * asking for avx512 on a plain-AVX2 host degrades cleanly instead of
 * faulting.
 */
SimdTier simdTierFromEnv(SimdTier fallback);

/** Tier the simd engine dispatches when capped at @p cap, without
 *  building one: min(simdTierFromEnv(cap), detectSimdTier()). */
SimdTier dispatchedSimdTier(SimdTier cap = SimdTier::Avx512);

/** Space-separated detected-feature list ("avx512f avx2 ..."), for
 *  bench provenance so baselines from different hosts never get
 *  compared silently. */
std::string cpuFeatureString();

} // namespace ark
