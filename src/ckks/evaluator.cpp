#include "ckks/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "rns/automorphism.h"
#include "rns/backend.h"
#include "rns/bconv.h"

namespace ark {

namespace {

/**
 * A ciphertext with @p c 's scale, slot count and poly shapes whose b
 * and a come from the pool with unspecified words: the caller
 * overwrites every one, so the input is never deep-copied first.
 *
 * The key-switching ops (HMult, HRot, hoisted rotations) take their
 * result here before any temporary. A result leaves the pool for good
 * (its holder frees it to the heap), so every op must take a few fresh
 * buffers from the heap. Taking the result first hands it a buffer the
 * pool already holds and makes the fresh ones temporaries, which the
 * pool keeps. The fresh buffers then reuse the heap chunks holders
 * freed with earlier results, still mapped, rather than growing the
 * heap into pages the allocator returned to the OS and faulting them
 * in again.
 */
Ciphertext
pooledLike(const Ciphertext &c, PolyPool &pool)
{
    Ciphertext r;
    r.scale = c.scale;
    r.slots = c.slots;
    r.b = pool.acquire(c.b.degree(), c.b.numLimbs(), c.b.rep());
    r.a = pool.acquire(c.a.degree(), c.a.numLimbs(), c.a.rep());
    return r;
}

/** A pooled copy of the first @p limbs limbs of @p src. */
RnsPoly
pooledCopy(KernelBackend &kb, const RnsPoly &src, size_t limbs)
{
    RnsPoly p = kb.pool().acquire(src.degree(), limbs, src.rep());
    kb.copyLimbs(src, 0, p, 0, limbs);
    return p;
}

} // namespace

CkksEvaluator::CkksEvaluator(const CkksContext &ctx) : ctx_(ctx) {}

void
CkksEvaluator::checkCompatible(const Ciphertext &c1,
                               const Ciphertext &c2) const
{
    ARK_ASSERT(c1.level() == c2.level(), "ciphertext level mismatch");
    const double ratio = c1.scale / c2.scale;
    ARK_ASSERT(ratio > 1.0 - 1e-6 && ratio < 1.0 + 1e-6,
               "ciphertext scale mismatch");
}

Ciphertext
CkksEvaluator::add(const Ciphertext &c1, const Ciphertext &c2) const
{
    checkCompatible(c1, c2);
    const auto moduli = ctx_.levelModuli(c1.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = pooledLike(c1, kb.pool());
    kb.add(c1.b, c2.b, moduli, r.b);
    kb.add(c1.a, c2.a, moduli, r.a);
    return r;
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &c1, const Ciphertext &c2) const
{
    checkCompatible(c1, c2);
    const auto moduli = ctx_.levelModuli(c1.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = pooledLike(c1, kb.pool());
    kb.sub(c1.b, c2.b, moduli, r.b);
    kb.sub(c1.a, c2.a, moduli, r.a);
    return r;
}

Ciphertext
CkksEvaluator::negate(const Ciphertext &c) const
{
    const auto moduli = ctx_.levelModuli(c.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = pooledLike(c, kb.pool());
    kb.neg(c.b, moduli, r.b);
    kb.neg(c.a, moduli, r.a);
    return r;
}

Ciphertext
CkksEvaluator::addPlain(const Ciphertext &c, const Plaintext &p) const
{
    ARK_ASSERT(c.level() == p.level, "plaintext level mismatch");
    const double ratio = c.scale / p.scale;
    ARK_ASSERT(ratio > 1.0 - 1e-6 && ratio < 1.0 + 1e-6,
               "plaintext scale mismatch");
    const auto moduli = ctx_.levelModuli(c.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = pooledLike(c, kb.pool());
    kb.add(c.b, p.poly, moduli, r.b);
    kb.copyLimbs(c.a, 0, r.a, 0, c.a.numLimbs());
    return r;
}

Ciphertext
CkksEvaluator::subPlain(const Ciphertext &c, const Plaintext &p) const
{
    ARK_ASSERT(c.level() == p.level, "plaintext level mismatch");
    const auto moduli = ctx_.levelModuli(c.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = pooledLike(c, kb.pool());
    kb.sub(c.b, p.poly, moduli, r.b);
    kb.copyLimbs(c.a, 0, r.a, 0, c.a.numLimbs());
    return r;
}

Ciphertext
CkksEvaluator::mulPlain(const Ciphertext &c, const Plaintext &p) const
{
    ARK_ASSERT(c.level() == p.level, "plaintext level mismatch");
    const auto moduli = ctx_.levelModuli(c.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = pooledLike(c, kb.pool());
    kb.mulEval(c.b, p.poly, moduli, r.b);
    kb.mulEval(c.a, p.poly, moduli, r.a);
    r.scale = c.scale * p.scale;
    return r;
}

Ciphertext
CkksEvaluator::addScalar(const Ciphertext &c, double value) const
{
    // A constant polynomial is constant in the evaluation
    // representation as well, so CAdd is one scalar add per limb word.
    // The constant is rounded to a single wide integer first so all
    // limbs carry residues of the same value (see roundToI128).
    const auto moduli = ctx_.levelModuli(c.level());
    std::vector<u64> residues(moduli.size());
    const i128 k =
        roundToI128(static_cast<long double>(value) * c.scale);
    for (size_t l = 0; l < moduli.size(); ++l)
        residues[l] = reduceI128(k, moduli[l].value());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = pooledLike(c, kb.pool());
    kb.addScalar(c.b, residues, moduli, r.b);
    kb.copyLimbs(c.a, 0, r.a, 0, c.a.numLimbs());
    return r;
}

Ciphertext
CkksEvaluator::mulScalar(const Ciphertext &c, double value,
                         double scale) const
{
    if (scale == 0)
        scale = ctx_.params().scale();
    const auto moduli = ctx_.levelModuli(c.level());
    std::vector<u64> residues(moduli.size());
    const i128 k = roundToI128(static_cast<long double>(value) * scale);
    for (size_t l = 0; l < moduli.size(); ++l)
        residues[l] = reduceI128(k, moduli[l].value());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = pooledLike(c, kb.pool());
    kb.mulScalar(c.b, residues, moduli, r.b);
    kb.mulScalar(c.a, residues, moduli, r.a);
    r.scale = c.scale * scale;
    return r;
}

Ciphertext
CkksEvaluator::mulByI(const Ciphertext &c) const
{
    // i is the monomial X^{N/2}; multiplying by it is an exact,
    // noise-free index shift, executed in the coefficient
    // representation as a negacyclic monomial multiply.
    const auto moduli = ctx_.levelModuli(c.level());
    const size_t half = ctx_.degree() / 2;
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();
    auto shift = [&](const RnsPoly &src) {
        RnsPoly p = pooledCopy(kb, src, src.numLimbs());
        kb.nttInverse(p, ctx_.qTables());
        // Pooled: monomialMul writes every output position.
        RnsPoly out = pool.acquire(p.degree(), p.numLimbs(), Rep::Coeff);
        kb.monomialMul(p, half, moduli, out);
        pool.release(std::move(p));
        kb.nttForward(out, ctx_.qTables());
        return out;
    };
    Ciphertext r;
    r.slots = c.slots;
    r.scale = c.scale;
    r.b = shift(c.b);
    r.a = shift(c.a);
    return r;
}

std::vector<RnsPoly>
CkksEvaluator::decompose(const RnsPoly &d, int level) const
{
    ARK_ASSERT(d.rep() == Rep::Eval, "decompose expects Eval rep");
    ARK_ASSERT(d.numLimbs() == static_cast<size_t>(level) + 1,
               "limb count must match level");
    const size_t n = ctx_.degree();
    const size_t nq = static_cast<size_t>(level) + 1;
    const size_t np = ctx_.pModuli().size();
    const int a = ctx_.alpha();
    const int digits = ctx_.numDigits(level);
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();

    std::vector<RnsPoly> out;
    out.reserve(digits);
    for (int dig = 0; dig < digits; ++dig) {
        const size_t lo = static_cast<size_t>(dig) * a;
        const size_t hi = std::min(lo + a, nq);

        std::vector<const NttTables *> in_tables(hi - lo);
        for (size_t l = lo; l < hi; ++l)
            in_tables[l - lo] = &ctx_.qTables()[l];
        std::vector<const NttTables *> out_tables;
        out_tables.reserve(nq - (hi - lo) + np);
        for (size_t l = 0; l < nq + np; ++l) {
            if (l < lo || l >= hi)
                out_tables.push_back(&ctx_.keyTable(l, level));
        }

        // The extended poly, limbs ordered [q_0..q_level,
        // p_0..p_alpha-1]: the fused BConvRoutine (Alg. 1: INTT ->
        // BConv -> NTT) reads the digit's limbs in place from d and
        // writes every other limb straight into ext; the digit's own
        // limbs are then copied over. Pooled: every limb is written.
        RnsPoly ext = pool.acquire(n, nq + np, Rep::Eval);
        std::vector<u64 *> conv_rows = ext.mutableRows(0, lo);
        const std::vector<u64 *> tail = ext.mutableRows(hi, nq + np);
        conv_rows.insert(conv_rows.end(), tail.begin(), tail.end());
        kb.nttBconvNtt(d.rows(lo, hi), in_tables,
                       ctx_.digitConverter(level, dig), out_tables,
                       conv_rows);
        kb.copyLimbs(d, lo, ext, lo, hi - lo);
        out.push_back(std::move(ext));
    }
    return out;
}

RnsPoly
CkksEvaluator::modDownByP(const RnsPoly &extended, int level) const
{
    RnsPoly out = ctx_.backend().pool().acquire(
        ctx_.degree(), static_cast<size_t>(level) + 1, Rep::Eval);
    modDownInto(extended, level, nullptr, out);
    return out;
}

void
CkksEvaluator::modDownInto(const RnsPoly &extended, int level,
                           const RnsPoly *addend, RnsPoly &out) const
{
    ARK_ASSERT(extended.rep() == Rep::Eval, "ModDown expects Eval rep");
    const size_t nq = static_cast<size_t>(level) + 1;
    const size_t np = ctx_.pModuli().size();
    ARK_ASSERT(extended.numLimbs() == nq + np, "not an extended poly");
    ARK_ASSERT(addend == nullptr || (addend->numLimbs() == nq &&
                                     addend->rep() == Rep::Eval),
               "addend must be a level-sized Eval-rep poly");
    ARK_ASSERT(out.numLimbs() == nq && out.degree() == ctx_.degree(),
               "ModDown output must be level-sized");

    // INTT the special limbs, BConv B -> C, NTT back (Alg. 2 line 6-7)
    // — the same fused digit path key switching uses, reading the P
    // limbs in place from the tail of extended — and, per limb right
    // after its NTT, out = (extended - conv) * P^{-1} (+ addend).
    std::vector<const NttTables *> in_tables(np);
    for (size_t l = 0; l < np; ++l)
        in_tables[l] = &ctx_.pTables()[l];
    KernelBackend::SubMulTail tail;
    tail.minuend = extended.rows(0, nq);
    tail.scalars.resize(nq);
    for (size_t l = 0; l < nq; ++l)
        tail.scalars[l] = ctx_.pInvModQ(l);
    if (addend != nullptr)
        tail.addend = addend->rows(0, nq);
    ctx_.backend().nttBconvNtt(extended.rows(nq, nq + np), in_tables,
                               ctx_.modDownConverter(level),
                               ctx_.qTablePtrs(nq), out.mutableRows(0, nq),
                               &tail);
    out.setRep(Rep::Eval);
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitchDigits(const std::vector<RnsPoly> &digits,
                               const EvalKey &evk, int level) const
{
    PolyPool &pool = ctx_.backend().pool();
    const size_t nq = static_cast<size_t>(level) + 1;
    RnsPoly b = pool.acquire(ctx_.degree(), nq, Rep::Eval);
    RnsPoly a = pool.acquire(ctx_.degree(), nq, Rep::Eval);
    keySwitchDigitsInto(digits, evk, level, nullptr, nullptr, b, a);
    return {std::move(b), std::move(a)};
}

void
CkksEvaluator::keySwitchDigitsInto(const std::vector<RnsPoly> &digits,
                                   const EvalKey &evk, int level,
                                   const RnsPoly *add_b,
                                   const RnsPoly *add_a, RnsPoly &out_b,
                                   RnsPoly &out_a) const
{
    const size_t n = ctx_.degree();
    const size_t nq = static_cast<size_t>(level) + 1;
    const size_t np = ctx_.pModuli().size();
    const size_t full_nq = static_cast<size_t>(ctx_.maxLevel()) + 1;
    ARK_ASSERT(!digits.empty() &&
                   digits.size() <= static_cast<size_t>(evk.numDigits()),
               "need one to evk.numDigits() digits");
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();

    // Pooled accumulators: the first digit's MAC overwrites them, the
    // rest accumulate.
    RnsPoly acc_b = pool.acquire(n, nq + np, Rep::Eval);
    RnsPoly acc_a = pool.acquire(n, nq + np, Rep::Eval);
    const auto key_moduli = ctx_.keyModuli(level);
    for (size_t dig = 0; dig < digits.size(); ++dig) {
        kb.evkMulAcc(digits[dig], evk.b[dig], evk.a[dig], nq, full_nq,
                     key_moduli, acc_b, acc_a, dig > 0);
    }
    modDownInto(acc_b, level, add_b, out_b);
    modDownInto(acc_a, level, add_a, out_a);
    pool.release(std::move(acc_b));
    pool.release(std::move(acc_a));
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &d, const EvalKey &evk,
                         int level) const
{
    PolyPool &pool = ctx_.backend().pool();
    const size_t nq = static_cast<size_t>(level) + 1;
    RnsPoly b = pool.acquire(ctx_.degree(), nq, Rep::Eval);
    RnsPoly a = pool.acquire(ctx_.degree(), nq, Rep::Eval);
    keySwitchInto(d, evk, level, nullptr, nullptr, b, a);
    return {std::move(b), std::move(a)};
}

void
CkksEvaluator::keySwitchInto(const RnsPoly &d, const EvalKey &evk,
                             int level, const RnsPoly *add_b,
                             const RnsPoly *add_a, RnsPoly &out_b,
                             RnsPoly &out_a) const
{
    auto digits = decompose(d, level);
    keySwitchDigitsInto(digits, evk, level, add_b, add_a, out_b, out_a);
    PolyPool &pool = ctx_.backend().pool();
    for (auto &dig : digits)
        pool.release(std::move(dig));
}

Ciphertext
CkksEvaluator::mul(const Ciphertext &c1, const Ciphertext &c2,
                   const EvalKey &evk_mult) const
{
    // Multiplication only needs matching levels; the scales multiply.
    ARK_ASSERT(c1.level() == c2.level(), "ciphertext level mismatch");
    const int level = c1.level();
    const auto moduli = ctx_.levelModuli(level);
    const size_t n = ctx_.degree();
    const size_t nl = moduli.size();
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();

    // The result before any temporary: see pooledLike().
    Ciphertext r = pooledLike(c1, pool);
    r.scale = c1.scale * c2.scale;

    // Pooled degree-2 temporaries, all written by the tensor pass:
    // d0 = b1*b2, d1 = a1*b2 + a2*b1, d2 = a1*a2.
    RnsPoly d0 = pool.acquire(n, nl, Rep::Eval);
    RnsPoly d1 = pool.acquire(n, nl, Rep::Eval);
    RnsPoly d2 = pool.acquire(n, nl, Rep::Eval);
    kb.tensor(c1.b, c1.a, c2.b, c2.a, moduli, d0, d1, d2);

    // Relinearize d2; ModDown adds d0 and d1 to its outputs.
    keySwitchInto(d2, evk_mult, level, &d0, &d1, r.b, r.a);
    pool.release(std::move(d0));
    pool.release(std::move(d1));
    pool.release(std::move(d2));
    return r;
}

Ciphertext
CkksEvaluator::square(const Ciphertext &c, const EvalKey &evk_mult) const
{
    return mul(c, c, evk_mult);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &c) const
{
    const int level = c.level();
    ARK_ASSERT(level >= 1, "cannot rescale at level 0");
    const size_t n = ctx_.degree();
    const Modulus &q_last = ctx_.qModuli()[level];
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();

    KernelBackend::SubMulTail tail;
    tail.scalars.resize(level);
    for (int l = 0; l < level; ++l)
        tail.scalars[l] = ctx_.qLastInvModQ(level, l);

    auto drop = [&](const RnsPoly &src) {
        // INTT the last limb, then per remaining limb: embed its
        // centered residues, NTT, and out = (src - that) * q_last^{-1}
        // (floor division in RNS). Pooled: every word is written.
        RnsPoly last = pool.acquire(n, 1, Rep::Coeff);
        kb.copyLimbs(src, level, last, 0, 1);
        kb.nttInverseLimb(last.limb(0), ctx_.qTables()[level]);
        tail.minuend = src.rows(0, level);
        // Taken at the input's shape with the last limb dropped (the
        // buffer keeps its size), so a rescaled result frees the same
        // heap chunk size as the HMult and HRot results: the fresh
        // buffers of the next ops fit the chunks callers freed (see
        // pooledLike()).
        RnsPoly out = pool.acquire(n, level + 1, Rep::Eval);
        out.resizeLimbs(level);
        kb.embedNtt(last.limb(0), q_last, ctx_.qTablePtrs(level), out,
                    &tail);
        pool.release(std::move(last));
        return out;
    };

    Ciphertext r;
    r.slots = c.slots;
    r.scale = c.scale / static_cast<double>(q_last.value());
    r.b = drop(c.b);
    r.a = drop(c.a);
    return r;
}

Ciphertext
CkksEvaluator::modDownTo(const Ciphertext &c, int level) const
{
    ARK_ASSERT(level <= c.level(), "modDownTo cannot raise the level");
    KernelBackend &kb = ctx_.backend();
    Ciphertext r;
    r.slots = c.slots;
    r.scale = c.scale;
    r.b = pooledCopy(kb, c.b, level + 1);
    r.a = pooledCopy(kb, c.a, level + 1);
    return r;
}

Ciphertext
CkksEvaluator::applyGalois(const Ciphertext &c, u64 galois_elt,
                           const EvalKey &evk) const
{
    const int level = c.level();
    const auto moduli = ctx_.levelModuli(level);
    const Automorphism &am = ctx_.automorphism(galois_elt);
    KernelBackend &kbe = ctx_.backend();
    PolyPool &pool = kbe.pool();

    // The result before any temporary: see pooledLike().
    Ciphertext r = pooledLike(c, pool);

    // Key-switch the rotated a; ModDown adds the rotated b to B'.
    RnsPoly b_rot = kbe.automorphism(am, c.b, moduli);
    RnsPoly a_rot = kbe.automorphism(am, c.a, moduli);
    keySwitchInto(a_rot, evk, level, &b_rot, nullptr, r.b, r.a);
    pool.release(std::move(a_rot));
    pool.release(std::move(b_rot));
    return r;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &c, i64 r,
                      const EvalKey &evk_rot) const
{
    return applyGalois(c, galoisElt(r, ctx_.degree()), evk_rot);
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &c,
                         const EvalKey &evk_conj) const
{
    return applyGalois(c, galoisEltConjugate(ctx_.degree()), evk_conj);
}

std::vector<Ciphertext>
CkksEvaluator::rotateHoisted(const Ciphertext &c,
                             const std::vector<i64> &rotations,
                             const std::vector<const EvalKey *> &evks) const
{
    ARK_ASSERT(rotations.size() == evks.size(),
               "one evk required per rotation amount");
    const int level = c.level();
    const auto moduli = ctx_.levelModuli(level);
    const auto key_moduli = ctx_.keyModuli(level);
    KernelBackend &kbe = ctx_.backend();

    // Hoisting: decompose once; the automorphism commutes with the
    // digit extension, so each rotation only permutes the digits.
    auto digits = decompose(c.a, level);
    PolyPool &pool = kbe.pool();

    std::vector<Ciphertext> out;
    out.reserve(rotations.size());
    for (size_t k = 0; k < rotations.size(); ++k) {
        const u64 g = galoisElt(rotations[k], ctx_.degree());
        const Automorphism &am = ctx_.automorphism(g);
        // The result before any temporary: see pooledLike().
        Ciphertext r = pooledLike(c, pool);

        std::vector<RnsPoly> rot_digits;
        rot_digits.reserve(digits.size());
        for (const auto &dig : digits)
            rot_digits.push_back(kbe.automorphism(am, dig, key_moduli));

        RnsPoly b_rot = kbe.automorphism(am, c.b, moduli);
        keySwitchDigitsInto(rot_digits, *evks[k], level, &b_rot, nullptr,
                            r.b, r.a);
        for (auto &dig : rot_digits)
            pool.release(std::move(dig));
        pool.release(std::move(b_rot));
        out.push_back(std::move(r));
    }
    for (auto &dig : digits)
        pool.release(std::move(dig));
    return out;
}

Ciphertext
CkksEvaluator::modRaise(const Ciphertext &c) const
{
    ARK_ASSERT(c.level() == 0, "ModRaise expects a level-0 ciphertext");
    const int L = ctx_.maxLevel();
    const size_t n = ctx_.degree();
    const Modulus &q0 = ctx_.qModuli()[0];
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();

    auto raise = [&](const RnsPoly &src) {
        RnsPoly coeffs = pooledCopy(kb, src, 1);
        kb.nttInverseLimb(coeffs.limb(0), ctx_.qTables()[0]);

        // Center mod q0, embed into every limb of the full chain and
        // NTT it, limb by limb (every word of the pooled out is
        // written).
        RnsPoly out = pool.acquire(n, L + 1, Rep::Eval);
        kb.embedNtt(coeffs.limb(0), q0, ctx_.qTablePtrs(L + 1), out);
        pool.release(std::move(coeffs));
        return out;
    };

    Ciphertext r;
    r.slots = c.slots;
    r.scale = c.scale;
    r.b = raise(c.b);
    r.a = raise(c.a);
    return r;
}

} // namespace ark
