/**
 * @file
 * Measured per-kernel execution tallies recorded by every
 * KernelBackend (Section III of the paper argues CKKS cost is
 * concentrated in a handful of primary functions; this struct is how
 * the functional library reports where its own cycles actually went).
 *
 * For each kernel the backend records invocation counts, limbs
 * processed, operand words moved (polynomial words read + written —
 * the on-chip traffic a streamed FU pipeline would see), and modular
 * multiplications executed. The evaluator additionally notes the
 * single-use operand streams (evaluation keys and plaintexts) that
 * dominate off-chip traffic, so core/traffic_analyzer and
 * sim/simulator can run on measured counts instead of their analytic
 * estimates.
 */

#pragma once

#include <array>
#include <cstddef>

#include "common/types.h"

namespace ark {

/** Every kernel a backend dispatches. */
enum class KernelOp : size_t {
    Add,
    Sub,
    Neg,
    MulEval,
    MulAccEval,
    Tensor,       ///< HMult tensor: d0, d1, d2 in one pass
    MulScalar,
    AddScalar,
    SubMulScalar, ///< (a - b) * s tail fused after a forward NTT
    MonomialMul,  ///< negacyclic multiply by X^k (mulByI)
    LimbEmbed,    ///< centered residue extension fused before a
                  ///< forward NTT (ModRaise / OF-Limb / rescale)
    EvkMulAcc,    ///< digit x evk MAC (the paper's MADU inner loop)
    NttForward,
    NttInverse,
    BConv,
    Automorphism,
    NttBconvNtt, ///< fused INTT->BConv->NTT digit path (Alg. 1)
    kCount,
};

constexpr size_t kNumKernelOps = static_cast<size_t>(KernelOp::kCount);

inline const char *
kernelOpName(KernelOp op)
{
    switch (op) {
      case KernelOp::Add: return "add";
      case KernelOp::Sub: return "sub";
      case KernelOp::Neg: return "neg";
      case KernelOp::MulEval: return "mul_eval";
      case KernelOp::MulAccEval: return "mul_acc_eval";
      case KernelOp::Tensor: return "tensor";
      case KernelOp::MulScalar: return "mul_scalar";
      case KernelOp::AddScalar: return "add_scalar";
      case KernelOp::SubMulScalar: return "sub_mul_scalar";
      case KernelOp::MonomialMul: return "monomial_mul";
      case KernelOp::LimbEmbed: return "limb_embed";
      case KernelOp::EvkMulAcc: return "evk_mul_acc";
      case KernelOp::NttForward: return "ntt_forward";
      case KernelOp::NttInverse: return "ntt_inverse";
      case KernelOp::BConv: return "bconv";
      case KernelOp::Automorphism: return "automorphism";
      case KernelOp::NttBconvNtt: return "ntt_bconv_ntt";
      case KernelOp::kCount: break;
    }
    return "?";
}

/** Tallies for one kernel. */
struct KernelCounter
{
    u64 calls = 0;
    u64 limbs = 0; ///< limb rows processed across all calls
    u64 words = 0; ///< operand words read + written
    u64 mults = 0; ///< modular multiplications executed
};

/** Aggregate tallies for one backend instance. */
struct KernelStats
{
    std::array<KernelCounter, kNumKernelOps> counters{};

    /** evk operand words consumed (recorded by EvkMulAcc). */
    u64 evk_words = 0;
    /** Stored-plaintext operand words streamed (PlaintextStore). */
    u64 plaintext_words = 0;

    void record(KernelOp op, u64 limbs, u64 words, u64 mults)
    {
        KernelCounter &c = counters[static_cast<size_t>(op)];
        c.calls += 1;
        c.limbs += limbs;
        c.words += words;
        c.mults += mults;
    }

    const KernelCounter &at(KernelOp op) const
    {
        return counters[static_cast<size_t>(op)];
    }

    u64 totalCalls() const
    {
        u64 t = 0;
        for (const auto &c : counters)
            t += c.calls;
        return t;
    }

    u64 totalWords() const
    {
        u64 t = 0;
        for (const auto &c : counters)
            t += c.words;
        return t;
    }

    u64 totalMults() const
    {
        u64 t = 0;
        for (const auto &c : counters)
            t += c.mults;
        return t;
    }

    void clear() { *this = KernelStats{}; }

    KernelStats &operator+=(const KernelStats &o)
    {
        for (size_t i = 0; i < kNumKernelOps; ++i) {
            counters[i].calls += o.counters[i].calls;
            counters[i].limbs += o.counters[i].limbs;
            counters[i].words += o.counters[i].words;
            counters[i].mults += o.counters[i].mults;
        }
        evk_words += o.evk_words;
        plaintext_words += o.plaintext_words;
        return *this;
    }
};

} // namespace ark
