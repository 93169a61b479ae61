/**
 * @file
 * CKKS parameter sets, including the presets from Table III of the
 * paper (ARK, Lattigo, 100x, F1) and small functional-test presets.
 *
 * A parameter set fixes the ring degree N, the maximum multiplicative
 * level L, the key-switching decomposition number dnum (so
 * alpha = (L+1)/dnum special primes), and the prime bit-widths. The
 * data-size helpers reproduce the plaintext / ciphertext / evk sizes
 * the paper lists in Table III (MiB, matching the paper's "MB").
 */

#pragma once

#include <cstddef>
#include <string>

#include "common/types.h"
#include "rns/backend_kind.h"

namespace ark {

/** Static description of a CKKS instance. */
struct CkksParams
{
    std::string name;

    size_t degree = 0;      ///< ring degree N (power of two)
    size_t num_slots = 0;   ///< message slots n <= N/2
    int max_level = 0;      ///< L: maximum multiplicative level
    int dnum = 0;           ///< key-switching decomposition number
    int log_q0 = 0;         ///< bits of the first prime q0
    int log_scale = 0;      ///< bits of the scale Delta and of q1..qL
    int log_special = 0;    ///< bits of each special prime p_j
    size_t word_bytes = 8;  ///< machine word (F1 uses 4-byte words)
    size_t hamming_weight = 0; ///< secret key weight (0 = dense ternary)
    /** Levels consumed by bootstrapping (paper Table III, L_boot). */
    int boot_levels = 0;

    /**
     * Kernel engine executing all limb-level compute (rns/backend.h).
     * Overridable at runtime with ARK_BACKEND=scalar|parallel|simd;
     * the simd engine additionally honours ARK_SIMD_TIER to cap the
     * instruction set it dispatches to.
     */
    BackendKind backend = BackendKind::Scalar;
    /** Total threads of the parallel and simd engines, the calling
     *  thread included (0 = hardware concurrency, 1 = serial;
     *  overridable with ARK_THREADS). */
    size_t backend_threads = 0;

    /** alpha = (L + 1) / dnum special primes. */
    int alpha() const { return (max_level + 1) / dnum; }

    /** Delta, the encoding scale. */
    double scale() const { return static_cast<double>(1ULL << log_scale); }

    /** Number of q limbs at level ell. */
    size_t numLimbs(int level) const
    {
        return static_cast<size_t>(level) + 1;
    }

    /** Plaintext polynomial size at max level, MiB (Table III "Pm"). */
    double plaintextMiB() const;

    /** Ciphertext size at max level, MiB (Table III). */
    double ciphertextMiB() const;

    /** Evaluation-key size, MiB (Table III "evk"). */
    double evkMiB() const;

    /** Table III presets. */
    static CkksParams ark();
    static CkksParams lattigo();
    static CkksParams hundredX();
    static CkksParams f1();

    /** Small presets for functional tests / examples (not 128-bit
     *  secure; used to exercise the exact same code paths quickly). */
    static CkksParams testTiny();   ///< N=2^10, L=3
    static CkksParams testSmall();  ///< N=2^11, L=7
    static CkksParams testBoot();   ///< N=2^13, bootstrappable toy set
};

} // namespace ark
