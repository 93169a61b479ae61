#include "rns/backend.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "rns/simd_kernels.h"

namespace ark {

/**
 * One thread's private tally block. Only the owning thread writes it
 * (via relaxed fetch_add, so a concurrent stats() merge is race-free);
 * every other thread only reads. Shards live as long as the backend.
 */
struct KernelBackend::StatsShard
{
    struct Counter
    {
        std::atomic<u64> calls{0};
        std::atomic<u64> limbs{0};
        std::atomic<u64> words{0};
        std::atomic<u64> mults{0};
    };

    /** Registering thread; lets a thread whose cache entry was
     *  evicted re-adopt its shard instead of leaking a duplicate. */
    std::thread::id owner;

    std::array<Counter, kNumKernelOps> counters{};
    std::atomic<u64> evk_words{0};
    std::atomic<u64> plaintext_words{0};
};

namespace {

void
checkBinary(const RnsPoly &a, const RnsPoly &b,
            const std::vector<Modulus> &moduli, const RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(b) && a.sameShape(r),
               "operand shape mismatch");
    ARK_ASSERT(a.rep() == b.rep(), "operand representation mismatch");
    ARK_ASSERT(moduli.size() >= a.numLimbs(), "not enough moduli");
}

/** Butterfly mult count of one N-point (I)NTT limb. */
u64
nttMults(size_t n)
{
    u64 m = 0;
    for (size_t s = n; s > 1; s >>= 1)
        ++m;
    return static_cast<u64>(n / 2) * m;
}

} // namespace

// ---------------------------------------------------------------------------
// Element-wise limb kernels. Loop bodies are the reference scalar code;
// the executor (run) only decides which thread runs each limb job —
// hence bit-exact parity across executors.
// ---------------------------------------------------------------------------

void
KernelBackend::add(const RnsPoly &a, const RnsPoly &b,
                   const std::vector<Modulus> &moduli, RnsPoly &r)
{
    checkBinary(a, b, moduli, r);
    const size_t n = a.degree();
    recordStats(KernelOp::Add, a.numLimbs(), 3 * a.numLimbs() * n, 0);
    run(a.numLimbs(), n, [&](size_t l) {
        const u64 q = moduli[l].value();
        const u64 *pa = a.limb(l), *pb = b.limb(l);
        u64 *pr = r.limb(l);
        for (size_t i = 0; i < n; ++i)
            pr[i] = addMod(pa[i], pb[i], q);
    });
    r.setRep(a.rep());
}

void
KernelBackend::sub(const RnsPoly &a, const RnsPoly &b,
                   const std::vector<Modulus> &moduli, RnsPoly &r)
{
    checkBinary(a, b, moduli, r);
    const size_t n = a.degree();
    recordStats(KernelOp::Sub, a.numLimbs(), 3 * a.numLimbs() * n, 0);
    run(a.numLimbs(), n, [&](size_t l) {
        const u64 q = moduli[l].value();
        const u64 *pa = a.limb(l), *pb = b.limb(l);
        u64 *pr = r.limb(l);
        for (size_t i = 0; i < n; ++i)
            pr[i] = subMod(pa[i], pb[i], q);
    });
    r.setRep(a.rep());
}

void
KernelBackend::neg(const RnsPoly &a, const std::vector<Modulus> &moduli,
                   RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(r), "operand shape mismatch");
    const size_t n = a.degree();
    recordStats(KernelOp::Neg, a.numLimbs(), 2 * a.numLimbs() * n, 0);
    run(a.numLimbs(), n, [&](size_t l) {
        const u64 q = moduli[l].value();
        const u64 *pa = a.limb(l);
        u64 *pr = r.limb(l);
        for (size_t i = 0; i < n; ++i)
            pr[i] = pa[i] == 0 ? 0 : q - pa[i];
    });
    r.setRep(a.rep());
}

void
KernelBackend::mulEval(const RnsPoly &a, const RnsPoly &b,
                       const std::vector<Modulus> &moduli, RnsPoly &r)
{
    checkBinary(a, b, moduli, r);
    ARK_ASSERT(a.rep() == Rep::Eval,
               "pointwise multiply requires evaluation representation");
    const size_t n = a.degree();
    recordStats(KernelOp::MulEval, a.numLimbs(),
                  3 * a.numLimbs() * n, a.numLimbs() * n);
    run(a.numLimbs(), n, [&](size_t l) {
        const Modulus &q = moduli[l];
        const u64 *pa = a.limb(l), *pb = b.limb(l);
        u64 *pr = r.limb(l);
        for (size_t i = 0; i < n; ++i)
            pr[i] = q.mul(pa[i], pb[i]);
    });
    r.setRep(Rep::Eval);
}

void
KernelBackend::mulAccEval(const RnsPoly &a, const RnsPoly &b,
                          const std::vector<Modulus> &moduli, RnsPoly &r)
{
    checkBinary(a, b, moduli, r);
    ARK_ASSERT(a.rep() == Rep::Eval && r.rep() == Rep::Eval,
               "MAC requires evaluation representation");
    const size_t n = a.degree();
    recordStats(KernelOp::MulAccEval, a.numLimbs(),
                  4 * a.numLimbs() * n, a.numLimbs() * n);
    run(a.numLimbs(), n, [&](size_t l) {
        const Modulus &q = moduli[l];
        const u64 *pa = a.limb(l), *pb = b.limb(l);
        u64 *pr = r.limb(l);
        for (size_t i = 0; i < n; ++i)
            pr[i] = q.add(pr[i], q.mul(pa[i], pb[i]));
    });
}

void
KernelBackend::mulScalar(const RnsPoly &a,
                         const std::vector<u64> &scalar_per_limb,
                         const std::vector<Modulus> &moduli, RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(r), "operand shape mismatch");
    ARK_ASSERT(scalar_per_limb.size() >= a.numLimbs(), "missing scalars");
    const size_t n = a.degree();
    recordStats(KernelOp::MulScalar, a.numLimbs(),
                  2 * a.numLimbs() * n, a.numLimbs() * n);
    run(a.numLimbs(), n, [&](size_t l) {
        const Modulus &q = moduli[l];
        const u64 s = scalar_per_limb[l];
        const u64 ss = q.shoupPrecompute(s);
        const u64 *pa = a.limb(l);
        u64 *pr = r.limb(l);
        for (size_t i = 0; i < n; ++i)
            pr[i] = q.mulShoup(pa[i], s, ss);
    });
    r.setRep(a.rep());
}

void
KernelBackend::addScalar(const RnsPoly &a,
                         const std::vector<u64> &scalar_per_limb,
                         const std::vector<Modulus> &moduli, RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(r), "operand shape mismatch");
    const size_t n = a.degree();
    recordStats(KernelOp::AddScalar, a.numLimbs(),
                  2 * a.numLimbs() * n, 0);
    run(a.numLimbs(), n, [&](size_t l) {
        const u64 q = moduli[l].value();
        const u64 s = scalar_per_limb[l];
        const u64 *pa = a.limb(l);
        u64 *pr = r.limb(l);
        for (size_t i = 0; i < n; ++i)
            pr[i] = addMod(pa[i], s, q);
    });
    r.setRep(a.rep());
}

void
KernelBackend::tensor(const RnsPoly &b1, const RnsPoly &a1,
                      const RnsPoly &b2, const RnsPoly &a2,
                      const std::vector<Modulus> &moduli, RnsPoly &d0,
                      RnsPoly &d1, RnsPoly &d2)
{
    checkBinary(b1, a1, moduli, d0);
    checkBinary(b2, a2, moduli, d1);
    ARK_ASSERT(b1.sameShape(b2) && d1.sameShape(d0) && d2.sameShape(d0),
               "operand shape mismatch");
    ARK_ASSERT(b1.rep() == Rep::Eval && b2.rep() == Rep::Eval,
               "tensor requires evaluation representation");
    const size_t limbs = b1.numLimbs();
    const size_t n = b1.degree();
    recordStats(KernelOp::Tensor, limbs, 7 * limbs * n, 4 * limbs * n);
    run(limbs, n, [&](size_t l) {
        const Modulus &q = moduli[l];
        const u64 *pb1 = b1.limb(l), *pa1 = a1.limb(l);
        const u64 *pb2 = b2.limb(l), *pa2 = a2.limb(l);
        u64 *p0 = d0.limb(l), *p1 = d1.limb(l), *p2 = d2.limb(l);
        for (size_t i = 0; i < n; ++i) {
            p0[i] = q.mul(pb1[i], pb2[i]);
            p1[i] = q.add(q.mul(pa1[i], pb2[i]), q.mul(pa2[i], pb1[i]));
            p2[i] = q.mul(pa1[i], pa2[i]);
        }
    });
    d0.setRep(Rep::Eval);
    d1.setRep(Rep::Eval);
    d2.setRep(Rep::Eval);
}

void
KernelBackend::monomialMul(const RnsPoly &a, size_t shift,
                           const std::vector<Modulus> &moduli, RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(r), "operand shape mismatch");
    ARK_ASSERT(a.rep() == Rep::Coeff,
               "monomial multiply needs the coefficient representation");
    const size_t n = a.degree();
    ARK_ASSERT(shift < n, "shift must be < N");
    recordStats(KernelOp::MonomialMul, a.numLimbs(),
                  2 * a.numLimbs() * n, 0);
    run(a.numLimbs(), n, [&](size_t l) {
        const u64 q = moduli[l].value();
        const u64 *pa = a.limb(l);
        u64 *pr = r.limb(l);
        // X^shift * X^k = X^(k+shift), negated when it wraps past N.
        for (size_t k = 0; k + shift < n; ++k)
            pr[k + shift] = pa[k];
        for (size_t k = n - shift; k < n; ++k)
            pr[k + shift - n] = pa[k] == 0 ? 0 : q - pa[k];
    });
    r.setRep(Rep::Coeff);
}

void
KernelBackend::evkMulAcc(const RnsPoly &digit, const RnsPoly &evk_b,
                         const RnsPoly &evk_a, size_t nq, size_t full_nq,
                         const std::vector<Modulus> &key_moduli,
                         RnsPoly &acc_b, RnsPoly &acc_a, bool accumulate)
{
    const size_t limbs = digit.numLimbs();
    const size_t n = digit.degree();
    ARK_ASSERT(digit.rep() == Rep::Eval && acc_b.rep() == Rep::Eval &&
                   acc_a.rep() == Rep::Eval,
               "evk MAC requires evaluation representation");
    ARK_ASSERT(acc_b.sameShape(digit) && acc_a.sameShape(digit),
               "accumulator shape mismatch");
    ARK_ASSERT(limbs >= nq && key_moduli.size() >= limbs,
               "digit limb count inconsistent with nq");
    ARK_ASSERT(evk_b.numLimbs() == full_nq + (limbs - nq) &&
                   evk_b.sameShape(evk_a),
               "evk polys must span the full key basis");
    obs::ScopedSpan span("evk_mul_acc");
    // Reads digit, evk_b, evk_a (and both accumulators when
    // accumulating), writes both accumulators.
    recordStats(KernelOp::EvkMulAcc, limbs,
                (accumulate ? 7 : 5) * limbs * n, 2 * limbs * n);
    noteEvkWords(2 * limbs * n); // evk operand stream
    run(limbs, n, [&](size_t l) {
        // evk polys span the full basis; select the matching limb.
        const size_t evk_limb = l < nq ? l : full_nq + (l - nq);
        const Modulus &m = key_moduli[l];
        const u64 *d = digit.limb(l);
        const u64 *kb = evk_b.limb(evk_limb), *ka = evk_a.limb(evk_limb);
        u64 *ab = acc_b.limb(l), *aa = acc_a.limb(l);
        if (kernels_.evk_mac_limb != nullptr) {
            kernels_.evk_mac_limb(m, d, kb, ka, ab, aa, n, accumulate);
            return;
        }
        if (!accumulate) {
            for (size_t i = 0; i < n; ++i) {
                ab[i] = m.mul(d[i], kb[i]);
                aa[i] = m.mul(d[i], ka[i]);
            }
            return;
        }
        for (size_t i = 0; i < n; ++i) {
            ab[i] = m.add(ab[i], m.mul(d[i], kb[i]));
            aa[i] = m.add(aa[i], m.mul(d[i], ka[i]));
        }
    });
}

// ---------------------------------------------------------------------------
// Per-job kernel bodies: the kernel table's vector code when it has an
// entry for the call, else the reference scalar loop.
// ---------------------------------------------------------------------------

namespace {

// The vector NTT kernels run an approximate-Shoup butterfly whose lazy
// values reach 8q, so they need 8q < 2^63 (and the AVX2 variant's
// unbiased signed compares need the same headroom). All shipped
// parameter sets use <= 60-bit primes; a wider modulus falls back to
// the scalar tables, which stay exact for any q < 2^62.
inline bool
vectorNtt(const SimdKernels &k, const NttTables &table)
{
    return table.degree() >= k.min_ntt_degree &&
           table.modulus().value() < (1ULL << 60);
}

/** Row @p i of a fused SubMulTail over the @p n words of @p v. The
 *  arithmetic is the unfused (a - b) * s and add kernels', word for
 *  word. */
void
subMulTailRow(const KernelBackend::SubMulTail &tail, size_t i,
              const Modulus &q, u64 *v, size_t n)
{
    const u64 s = tail.scalars[i];
    const u64 ss = q.shoupPrecompute(s);
    const u64 *m = tail.minuend[i];
    if (tail.addend.empty()) {
        for (size_t c = 0; c < n; ++c)
            v[c] = q.mulShoup(q.sub(m[c], v[c]), s, ss);
        return;
    }
    const u64 *a = tail.addend[i];
    for (size_t c = 0; c < n; ++c)
        v[c] = q.add(a[c], q.mulShoup(q.sub(m[c], v[c]), s, ss));
}

/** A null @p tail, or one with an entry for each of @p rows rows. */
void
checkTail(const KernelBackend::SubMulTail *tail, size_t rows)
{
    ARK_ASSERT(tail == nullptr ||
                   (tail->minuend.size() >= rows &&
                    tail->scalars.size() >= rows &&
                    (tail->addend.empty() || tail->addend.size() >= rows)),
               "tail rows missing");
}

/** Tally of a SubMulTail over @p rows rows of @p n words: the
 *  minuend, the NTT'd row and the addend (if any) read, the row
 *  written. */
u64
tailWords(const KernelBackend::SubMulTail &tail, size_t rows, size_t n)
{
    return (tail.addend.empty() ? 3 : 4) * rows * n;
}

} // namespace

void
KernelBackend::nttForwardLimbKernel(u64 *limb,
                                    const NttTables &table) const
{
    if (kernels_.ntt_forward != nullptr && vectorNtt(kernels_, table))
        kernels_.ntt_forward(limb, table);
    else
        table.forward(limb);
}

void
KernelBackend::nttInverseLimbKernel(u64 *limb,
                                    const NttTables &table) const
{
    if (kernels_.ntt_inverse != nullptr && vectorNtt(kernels_, table))
        kernels_.ntt_inverse(limb, table);
    else
        table.inverse(limb);
}

void
KernelBackend::bconvTileKernel(const BaseConverter &bc,
                               const u64 *const *in, size_t c0, size_t c1,
                               u64 *scratch, u64 *const *out) const
{
    if (kernels_.bconv_tile != nullptr)
        kernels_.bconv_tile(bc, in, c0, c1, scratch, out);
    else
        bc.convertTile(in, c0, c1, scratch, out);
}

// ---------------------------------------------------------------------------
// NTT kernels
// ---------------------------------------------------------------------------

void
KernelBackend::nttForward(RnsPoly &p,
                          const std::vector<const NttTables *> &tables)
{
    ARK_ASSERT(p.rep() == Rep::Coeff, "forward NTT needs Coeff rep");
    ARK_ASSERT(tables.size() >= p.numLimbs(), "not enough NTT tables");
    const size_t n = p.degree();
    obs::ScopedSpan span("ntt_fwd");
    recordStats(KernelOp::NttForward, p.numLimbs(),
                  2 * p.numLimbs() * n, p.numLimbs() * nttMults(n));
    run(p.numLimbs(), n, [&](size_t l) {
        nttForwardLimbKernel(p.limb(l), *tables[l]);
    });
    p.setRep(Rep::Eval);
}

void
KernelBackend::nttInverse(RnsPoly &p,
                          const std::vector<const NttTables *> &tables)
{
    ARK_ASSERT(p.rep() == Rep::Eval, "inverse NTT needs Eval rep");
    ARK_ASSERT(tables.size() >= p.numLimbs(), "not enough NTT tables");
    const size_t n = p.degree();
    obs::ScopedSpan span("ntt_inv");
    recordStats(KernelOp::NttInverse, p.numLimbs(),
                  2 * p.numLimbs() * n,
                  p.numLimbs() * (nttMults(n) + n));
    run(p.numLimbs(), n, [&](size_t l) {
        nttInverseLimbKernel(p.limb(l), *tables[l]);
    });
    p.setRep(Rep::Coeff);
}

void
KernelBackend::nttForward(RnsPoly &p, const std::vector<NttTables> &tables)
{
    std::vector<const NttTables *> ptrs(p.numLimbs());
    for (size_t l = 0; l < p.numLimbs(); ++l)
        ptrs[l] = &tables[l];
    nttForward(p, ptrs);
}

void
KernelBackend::nttInverse(RnsPoly &p, const std::vector<NttTables> &tables)
{
    std::vector<const NttTables *> ptrs(p.numLimbs());
    for (size_t l = 0; l < p.numLimbs(); ++l)
        ptrs[l] = &tables[l];
    nttInverse(p, ptrs);
}

void
KernelBackend::nttForwardLimb(u64 *limb, const NttTables &table)
{
    const size_t n = table.degree();
    recordStats(KernelOp::NttForward, 1, 2 * n, nttMults(n));
    nttForwardLimbKernel(limb, table);
}

void
KernelBackend::nttInverseLimb(u64 *limb, const NttTables &table)
{
    const size_t n = table.degree();
    recordStats(KernelOp::NttInverse, 1, 2 * n, nttMults(n) + n);
    nttInverseLimbKernel(limb, table);
}

void
KernelBackend::embedNtt(const u64 *src, const Modulus &src_q,
                        const std::vector<const NttTables *> &tables,
                        RnsPoly &out, const SubMulTail *tail)
{
    const size_t limbs = out.numLimbs();
    const size_t n = out.degree();
    ARK_ASSERT(tables.size() >= limbs, "not enough NTT tables");
    checkTail(tail, limbs);
    const u64 q0 = src_q.value();
    const u64 half = q0 / 2;
    obs::ScopedSpan span("embed_ntt");
    // Credited per component, as the unfused kernels would tally them.
    recordStats(KernelOp::LimbEmbed, limbs, 2 * limbs * n, 0);
    recordStats(KernelOp::NttForward, limbs, 2 * limbs * n,
                limbs * nttMults(n));
    if (tail != nullptr)
        recordStats(KernelOp::SubMulScalar, limbs,
                    tailWords(*tail, limbs, n), limbs * n);
    run(limbs, n, [&](size_t l) {
        const Modulus &mq = tables[l]->modulus();
        const u64 q = mq.value();
        const u64 q0_mod = q0 % q;
        // v mod q as the Shoup product v * 1: exact for any 64-bit v,
        // without a division per word.
        const u64 one_shoup = mq.shoupPrecompute(1);
        u64 *dst = out.limb(l);
        for (size_t i = 0; i < n; ++i) {
            const u64 v = src[i];
            // A negative centered residue (v > q0/2) subtracts q0;
            // selecting the subtrahend keeps the loop branch-free.
            const u64 neg = v > half ? q0_mod : 0;
            dst[i] = subMod(mq.mulShoup(v, 1, one_shoup), neg, q);
        }
        nttForwardLimbKernel(dst, *tables[l]);
        if (tail != nullptr)
            subMulTailRow(*tail, l, mq, dst, n);
    });
    out.setRep(Rep::Eval);
}

// ---------------------------------------------------------------------------
// BConv, automorphism, and the fused key-switch digit path
// ---------------------------------------------------------------------------

RnsPoly
KernelBackend::bconv(const BaseConverter &bc, const RnsPoly &in)
{
    ARK_ASSERT(in.rep() == Rep::Coeff, "BConv needs Coeff rep");
    ARK_ASSERT(in.numLimbs() == bc.inBase().size(),
               "input limb count must match input base");
    const size_t nb = bc.inBase().size();
    const size_t nc = bc.outBase().size();
    const size_t n = in.degree();
    obs::ScopedSpan span("bconv");
    recordStats(KernelOp::BConv, nb + nc, (nb + nc) * n,
                  nb * n + nb * nc * n);

    // Fused scale + matmul, one coefficient tile per job: each tile's
    // transposed scratch lives on the executing thread's stack, the
    // output column blocks are disjoint, and the per-coefficient math
    // matches the two-stage reference bit for bit.
    RnsPoly out = pool_.acquire(n, nc, Rep::Coeff);
    const auto in_rows = in.rows(0, nb);
    const auto out_rows = out.mutableRows(0, nc);
    const size_t tile = bc.tileCoeffs();
    const size_t num_tiles = (n + tile - 1) / tile;
    run(num_tiles, tile * (nb + nc), [&](size_t t) {
        alignas(64) u64 scratch[BaseConverter::kTileWords];
        const size_t c0 = t * tile;
        bconvTileKernel(bc, in_rows.data(), c0, std::min(c0 + tile, n),
                        scratch, out_rows.data());
    });
    return out;
}

RnsPoly
KernelBackend::automorphism(const Automorphism &am, const RnsPoly &p,
                            const std::vector<Modulus> &moduli)
{
    const size_t n = p.degree();
    obs::ScopedSpan span("automorphism");
    recordStats(KernelOp::Automorphism, p.numLimbs(),
                  2 * p.numLimbs() * n, 0);
    // Pooled: apply{Coeff,Eval} write every output position (the index
    // map is a permutation), so stale buffer words never survive.
    RnsPoly out = pool_.acquire(n, p.numLimbs(), p.rep());
    run(p.numLimbs(), n, [&](size_t l) {
        if (p.rep() == Rep::Coeff)
            am.applyCoeff(p.limb(l), out.limb(l), moduli[l]);
        else
            am.applyEval(p.limb(l), out.limb(l));
    });
    return out;
}

RnsPoly
KernelBackend::nttBconvNtt(const RnsPoly &digit,
                           const std::vector<const NttTables *> &in_tables,
                           const BaseConverter &bc,
                           const std::vector<const NttTables *> &out_tables)
{
    ARK_ASSERT(digit.rep() == Rep::Eval,
               "fused digit path starts from the evaluation rep");
    ARK_ASSERT(digit.numLimbs() == bc.inBase().size(),
               "digit limbs must match in-base");
    const size_t nc = bc.outBase().size();
    RnsPoly out = pool_.acquire(digit.degree(), nc, Rep::Eval);
    nttBconvNtt(digit.rows(0, digit.numLimbs()), in_tables, bc,
                out_tables, out.mutableRows(0, nc));
    return out;
}

void
KernelBackend::nttBconvNtt(const std::vector<const u64 *> &digit_rows,
                           const std::vector<const NttTables *> &in_tables,
                           const BaseConverter &bc,
                           const std::vector<const NttTables *> &out_tables,
                           const std::vector<u64 *> &out_rows,
                           const SubMulTail *tail)
{
    const size_t nb = bc.inBase().size();
    const size_t nc = bc.outBase().size();
    ARK_ASSERT(digit_rows.size() == nb && out_rows.size() == nc,
               "row counts must match the converter's bases");
    ARK_ASSERT(in_tables.size() >= nb && out_tables.size() >= nc,
               "not enough NTT tables");
    checkTail(tail, nc);
    const size_t n = in_tables[0]->degree();
    // Tally the fused call itself, then credit the component counters
    // so FU-level consumers (simulator) see the right per-FU split.
    obs::ScopedSpan span("ntt_bconv_ntt");
    recordStats(KernelOp::NttBconvNtt, nb + nc, 0, 0);
    recordStats(KernelOp::NttInverse, nb, 2 * nb * n,
                  nb * (nttMults(n) + n));
    recordStats(KernelOp::BConv, nb + nc, (nb + nc) * n,
                  nb * n + nb * nc * n);
    recordStats(KernelOp::NttForward, nc, 2 * nc * n,
                  nc * nttMults(n));
    if (tail != nullptr)
        recordStats(KernelOp::SubMulScalar, nc, tailWords(*tail, nc, n),
                    nc * n);

    // Stage 1: INTT each digit limb into one pooled scratch matrix
    // (the BConv scale now rides inside the tile pass, where the
    // NTTU's BConv-mult unit applies it in hardware, Fig. 5).
    RnsPoly scaled = pool_.acquire(n, nb, Rep::Coeff);
    run(nb, n, [&](size_t j) {
        u64 *dst = scaled.limb(j);
        std::memcpy(dst, digit_rows[j], n * sizeof(u64));
        nttInverseLimbKernel(dst, *in_tables[j]);
    });

    // Stage 2: fused, cache-blocked scale+MAC over coefficient tiles
    // (see BaseConverter::convertTile), written straight into the
    // caller's output rows.
    const auto scaled_rows = scaled.rows(0, nb);
    const size_t tile = bc.tileCoeffs();
    const size_t num_tiles = (n + tile - 1) / tile;
    run(num_tiles, tile * (nb + nc), [&](size_t t) {
        alignas(64) u64 scratch[BaseConverter::kTileWords];
        const size_t c0 = t * tile;
        bconvTileKernel(bc, scaled_rows.data(), c0,
                        std::min(c0 + tile, n), scratch, out_rows.data());
    });
    pool_.release(std::move(scaled));

    // Stage 3: forward-NTT each produced limb in place, then run the
    // tail on it while it is still in cache.
    run(nc, n, [&](size_t i) {
        nttForwardLimbKernel(out_rows[i], *out_tables[i]);
        if (tail != nullptr)
            subMulTailRow(*tail, i, out_tables[i]->modulus(), out_rows[i],
                          n);
    });
}

void
KernelBackend::copyLimbs(const RnsPoly &src, size_t src_lo, RnsPoly &dst,
                         size_t dst_lo, size_t count)
{
    const size_t n = src.degree();
    ARK_ASSERT(dst.degree() == n && src_lo + count <= src.numLimbs() &&
                   dst_lo + count <= dst.numLimbs(),
               "limb range out of bounds");
    run(count, n, [&](size_t l) {
        std::memcpy(dst.limb(dst_lo + l), src.limb(src_lo + l),
                    n * sizeof(u64));
    });
}

// ---------------------------------------------------------------------------
// Per-thread measured-tally shards
// ---------------------------------------------------------------------------

namespace {
std::atomic<u64> next_backend_id{1};
} // namespace

KernelBackend::KernelBackend(BackendKind kind, size_t threads,
                             SimdTier max_tier)
    : instance_id_(next_backend_id.fetch_add(1)), kind_(kind),
      kernels_(simdKernels(kind == BackendKind::Simd
                               ? dispatchedSimdTier(max_tier)
                               : SimdTier::Scalar)),
      threads_(kind == BackendKind::Scalar ? 1
               : threads == 0              ? ThreadPool::defaultThreads()
                                           : threads)
{
    if (threads_ > 1)
        exec_ = std::make_unique<ThreadPool>(threads_);
}

KernelBackend::~KernelBackend() = default;

void
KernelBackend::run(size_t jobs, size_t job_words,
                   const std::function<void(size_t)> &fn) const
{
    if (!exec_ || jobs < 2 || jobs * job_words < kGrainWords) {
        for (size_t i = 0; i < jobs; ++i)
            fn(i);
        return;
    }
    // At most four contiguous chunks per thread: enough for work
    // stealing to balance uneven jobs, few enough that hundreds of
    // small BConv tiles do not pay one queue round trip each.
    const size_t chunks = std::min(jobs, 4 * threads_);
    exec_->parallelFor(chunks, [&](size_t c) {
        const size_t end = (c + 1) * jobs / chunks;
        for (size_t i = c * jobs / chunks; i < end; ++i)
            fn(i);
    });
}

KernelBackend::StatsShard &
KernelBackend::shard() const
{
    struct CacheEntry
    {
        u64 id;
        StatsShard *shard;
    };
    // Per-thread cache of (backend instance id -> shard). Entries for
    // destroyed backends go stale but are never matched again (ids are
    // unique), and the occasional flush only costs a re-lookup.
    thread_local std::vector<CacheEntry> cache;
    for (const auto &e : cache) {
        if (e.id == instance_id_)
            return *e.shard;
    }
    std::lock_guard<std::mutex> lk(shards_m_);
    // Re-adopt this thread's shard if the cache entry was evicted —
    // registering a fresh one would grow shards_ unboundedly in a
    // long-lived backend. (An OS-recycled thread id can only match a
    // dead owner's shard, which is then safe to adopt.)
    StatsShard *s = nullptr;
    const std::thread::id self = std::this_thread::get_id();
    for (const auto &existing : shards_) {
        if (existing->owner == self) {
            s = existing.get();
            break;
        }
    }
    if (s == nullptr) {
        shards_.push_back(std::make_unique<StatsShard>());
        s = shards_.back().get();
        s->owner = self;
    }
    if (cache.size() >= 256)
        cache.clear();
    cache.push_back({instance_id_, s});
    return *s;
}

void
KernelBackend::recordStats(KernelOp op, u64 limbs, u64 words, u64 mults)
{
    auto &c = shard().counters[static_cast<size_t>(op)];
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.limbs.fetch_add(limbs, std::memory_order_relaxed);
    c.words.fetch_add(words, std::memory_order_relaxed);
    c.mults.fetch_add(mults, std::memory_order_relaxed);
}

void
KernelBackend::noteEvkWords(u64 words)
{
    shard().evk_words.fetch_add(words, std::memory_order_relaxed);
}

void
KernelBackend::notePlaintextWords(u64 words)
{
    shard().plaintext_words.fetch_add(words, std::memory_order_relaxed);
}

KernelStats
KernelBackend::stats() const
{
    std::lock_guard<std::mutex> lk(shards_m_);
    KernelStats out;
    for (const auto &s : shards_) {
        for (size_t i = 0; i < kNumKernelOps; ++i) {
            const auto &c = s->counters[i];
            out.counters[i].calls +=
                c.calls.load(std::memory_order_relaxed);
            out.counters[i].limbs +=
                c.limbs.load(std::memory_order_relaxed);
            out.counters[i].words +=
                c.words.load(std::memory_order_relaxed);
            out.counters[i].mults +=
                c.mults.load(std::memory_order_relaxed);
        }
        out.evk_words += s->evk_words.load(std::memory_order_relaxed);
        out.plaintext_words +=
            s->plaintext_words.load(std::memory_order_relaxed);
    }
    return out;
}

void
KernelBackend::resetStats()
{
    std::lock_guard<std::mutex> lk(shards_m_);
    for (const auto &s : shards_) {
        for (auto &c : s->counters) {
            c.calls.store(0, std::memory_order_relaxed);
            c.limbs.store(0, std::memory_order_relaxed);
            c.words.store(0, std::memory_order_relaxed);
            c.mults.store(0, std::memory_order_relaxed);
        }
        s->evk_words.store(0, std::memory_order_relaxed);
        s->plaintext_words.store(0, std::memory_order_relaxed);
    }
}

// ---------------------------------------------------------------------------
// Factory and env parsing
// ---------------------------------------------------------------------------

std::unique_ptr<KernelBackend>
makeKernelBackend(BackendKind kind, size_t num_threads)
{
    return std::make_unique<KernelBackend>(kind, num_threads);
}

bool
parseBackendKind(const char *name, BackendKind &out)
{
    for (BackendKind kind : {BackendKind::Scalar, BackendKind::Parallel,
                             BackendKind::Simd}) {
        if (std::strcmp(name, backendKindName(kind)) == 0) {
            out = kind;
            return true;
        }
    }
    return false;
}

bool
parseBackendThreads(const char *s, size_t &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    // Digits only: strtoul would silently accept "-1" (wrapping to a
    // huge count), leading signs, and whitespace — all junk here.
    for (const char *p = s; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (errno == ERANGE || v > kMaxBackendThreads)
        return false;
    out = static_cast<size_t>(v);
    return true;
}

BackendKind
backendKindFromEnv(BackendKind fallback)
{
    const char *env = std::getenv("ARK_BACKEND");
    if (env == nullptr || *env == '\0')
        return fallback;
    BackendKind kind;
    if (!parseBackendKind(env, kind)) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "invalid ARK_BACKEND '%s' (expected 'scalar', "
                      "'parallel', or 'simd')",
                      env);
        ARK_FATAL(msg);
    }
    return kind;
}

size_t
backendThreadsFromEnv(size_t fallback)
{
    const char *env = std::getenv("ARK_THREADS");
    if (env == nullptr || *env == '\0')
        return fallback;
    size_t threads = 0;
    if (!parseBackendThreads(env, threads)) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "invalid ARK_THREADS '%s' (expected an integer in "
                      "[0, %zu]; 0 = hardware concurrency)",
                      env, kMaxBackendThreads);
        ARK_FATAL(msg);
    }
    return threads;
}

KernelBackend &
processBackend()
{
    static std::unique_ptr<KernelBackend> backend = makeKernelBackend(
        backendKindFromEnv(BackendKind::Scalar),
        backendThreadsFromEnv(0));
    return *backend;
}

} // namespace ark
