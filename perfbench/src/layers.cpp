#include <algorithm>

#include "ckks/context.h"
#include "rns/backend.h"
#include "wire/serializer.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kPoolCyclesPerSpan = 100;

} // namespace

void
probeLayers(const ark::CkksEvaluator &eval, const ark::EvalKey &evk_mult,
            const ark::EvalKey &evk_rot1, const ark::Ciphertext &ct,
            int reps, Tracer &tracer, Report &r)
{
    using namespace ark;
    const CkksContext &ctx = eval.context();
    KernelBackend &kb = ctx.backend();
    PolyPool &pool = kb.pool();
    const int level = ct.level();
    const size_t n = ctx.degree();
    const size_t nq = static_cast<size_t>(level) + 1;
    const size_t np = ctx.pModuli().size();
    const size_t full_nq = static_cast<size_t>(ctx.maxLevel()) + 1;
    const auto moduli = ctx.levelModuli(level);
    const auto key_moduli = ctx.keyModuli(level);

    // Key-switch digit 0 of an HMult at this level, as decompose()
    // feeds it to the fused INTT -> BConv -> NTT kernel.
    const size_t digit_limbs =
        std::min(static_cast<size_t>(ctx.alpha()), nq);
    std::vector<const NttTables *> in_tables, out_tables;
    for (size_t l = 0; l < digit_limbs; ++l)
        in_tables.push_back(&ctx.qTables()[l]);
    for (size_t l = digit_limbs; l < nq + np; ++l)
        out_tables.push_back(&ctx.keyTable(l, level));
    const BaseConverter &digit_bc = ctx.digitConverter(level, 0);
    const Automorphism &rot1 = ctx.automorphism(galoisElt(1, n));

    // One HMult and one HRot, counted and modeled.
    KernelStats before = kb.stats();
    (void)eval.mul(ct, ct, evk_mult);
    recordOpCounts("hmult", statsDelta(kb.stats(), before), ctx.params(), r);
    before = kb.stats();
    (void)eval.rotate(ct, 1, evk_rot1);
    recordOpCounts("hrot", statsDelta(kb.stats(), before), ctx.params(), r);

    for (int rep = 0; rep < reps; ++rep) {
        const u64 op = static_cast<u64>(rep) + 1;
        Span root(tracer, true, "probe", 0, op);
        const u64 p = root.id();
        {
            Span s(tracer, true, "ckks.hmult", p, op);
            const Ciphertext out = eval.mul(ct, ct, evk_mult);
            s.close();
        }
        std::vector<RnsPoly> digits;
        {
            Span s(tracer, true, "ckks.decompose", p, op);
            digits = eval.decompose(ct.a, level);
        }
        {
            Span s(tracer, true, "ckks.keyswitch", p, op);
            auto [b, a] = eval.keySwitchDigits(digits, evk_mult, level);
            s.close();
            pool.release(std::move(b));
            pool.release(std::move(a));
        }
        {
            Span s(tracer, true, "ckks.moddown", p, op);
            RnsPoly down = eval.modDownByP(digits[0], level);
            s.close();
            pool.release(std::move(down));
        }
        {
            Span s(tracer, true, "ckks.hrot", p, op);
            const Ciphertext out = eval.rotate(ct, 1, evk_rot1);
            s.close();
        }
        {
            RnsPoly acc_b = pool.acquireZeroed(n, nq + np, Rep::Eval);
            RnsPoly acc_a = pool.acquireZeroed(n, nq + np, Rep::Eval);
            Span s(tracer, true, "rns.evk_mac", p, op);
            kb.evkMulAcc(digits[0], evk_mult.b[0], evk_mult.a[0], nq,
                         full_nq, key_moduli, acc_b, acc_a);
            s.close();
            pool.release(std::move(acc_b));
            pool.release(std::move(acc_a));
        }
        for (auto &d : digits)
            pool.release(std::move(d));
        {
            RnsPoly digit = pool.acquire(n, digit_limbs, Rep::Eval);
            for (size_t l = 0; l < digit_limbs; ++l)
                std::copy(ct.a.limb(l), ct.a.limb(l) + n, digit.limb(l));
            Span s(tracer, true, "rns.ntt_bconv_ntt", p, op);
            RnsPoly conv =
                kb.nttBconvNtt(digit, in_tables, digit_bc, out_tables);
            s.close();
            pool.release(std::move(conv));
            pool.release(std::move(digit));
        }
        {
            RnsPoly poly = ct.b;
            {
                Span s(tracer, true, "rns.ntt_inv", p, op);
                kb.nttInverse(poly, ctx.qTablePtrs(nq));
            }
            Span s(tracer, true, "rns.ntt_fwd", p, op);
            kb.nttForward(poly, ctx.qTablePtrs(nq));
        }
        {
            Span s(tracer, true, "rns.automorphism", p, op);
            RnsPoly out = kb.automorphism(rot1, ct.b, moduli);
            s.close();
            pool.release(std::move(out));
        }
        {
            RnsPoly out = pool.acquire(n, nq, Rep::Eval);
            Span s(tracer, true, "rns.elementwise", p, op);
            kb.mulEval(ct.b, ct.a, moduli, out);
            s.close();
            pool.release(std::move(out));
        }
        // A pool round trip takes about as long as the clock's
        // resolution, so each span times a batch of them.
        for (int k = 0; k < 10; ++k) {
            Span s(tracer, true, "rns.pool_cycle", p, op);
            for (int c = 0; c < kPoolCyclesPerSpan; ++c)
                pool.release(pool.acquire(n, nq, Rep::Eval));
        }
    }
    r.value("rns.pool_cycles_per_span", kPoolCyclesPerSpan);
}

void
probeWire(const ark::CkksContext &ctx, const ark::Ciphertext &ct, int reps,
          Tracer &tracer)
{
    for (int rep = 0; rep < reps; ++rep) {
        const ark::u64 op = static_cast<ark::u64>(rep) + 1;
        Span root(tracer, true, "probe", 0, op);
        ark::ByteWriter w;
        {
            Span e(tracer, true, "wire.ct_encode", root.id(), op);
            ark::writeCiphertext(w, ct);
        }
        Span d(tracer, true, "wire.ct_decode", root.id(), op);
        ark::ByteReader rd(w.bytes());
        (void)ark::readCiphertext(rd, ctx);
    }
}

} // namespace perfbench
