/**
 * @file
 * Bit-exactness of every kernel-engine combination (executor x kernel
 * table) against the serial scalar engine for every kernel, across
 * several (N, L) shapes on both sides of the executor's fan-out grain
 * and at 1, 2 and 4 threads, including the fused nttBconvNtt
 * key-switch digit path and its copy-free row form, and the fused
 * element-wise tails (HMult tensor, embed -> NTT, the ModDown and
 * rescale sub-mul(-add) tails, the first digit's assigning evk MAC)
 * against the unfused compositions they replace — plus sanity checks
 * that the engines record KernelStats for what they executed.
 *
 * Also gates the lazy-reduction kernel pass: the Harvey lazy NTT must
 * round-trip and match the strict reference transforms across every
 * parameter-set prime width, the fused cache-blocked BConv must equal
 * the two-stage pipeline, and kernels running over recycled
 * (stale-content) pool buffers must be bit-identical to fresh
 * allocations on every engine.
 *
 * The SimdTierParityTest suite sweeps the vector kernels per ISA tier
 * and thread count (skipping tiers the host cannot run), including the
 * sub-vector-degree and wide-modulus fallbacks onto the scalar
 * transforms.
 */

#include <gtest/gtest.h>

#include "ckks/params.h"
#include "common/random.h"
#include "rns/backend.h"
#include "rns/cpu_features.h"
#include "rns/poly_pool.h"
#include "rns/primes.h"

namespace ark {
namespace {

struct Shape
{
    size_t degree;
    size_t limbs;
};

constexpr SimdTier kTiers[] = {SimdTier::Scalar, SimdTier::Avx2,
                               SimdTier::Avx512};

/**
 * An engine running the @p tier kernel table on @p threads threads, or
 * nullptr when the host cannot run that tier (the engine clamps the
 * request to what CPUID reports, so a request coming back at a lower
 * tier means "unavailable" — callers skip it, keeping the suites green
 * on any machine). The scalar tier is the `parallel` combination.
 */
std::unique_ptr<KernelBackend>
engineAt(SimdTier tier, size_t threads)
{
    auto be = tier == SimdTier::Scalar
                  ? std::make_unique<KernelBackend>(BackendKind::Parallel,
                                                    threads)
                  : std::make_unique<KernelBackend>(BackendKind::Simd,
                                                    threads, tier);
    if (be->tier() != tier)
        return nullptr;
    return be;
}

/** "avx512 x4 threads" for SCOPED_TRACE. */
std::string
engineLabel(const KernelBackend &kb)
{
    return std::string(simdTierName(kb.tier())) + " x" +
           std::to_string(kb.threads()) + " threads";
}

class BackendParityTest
    : public ::testing::TestWithParam<std::tuple<Shape, size_t>>
{
  protected:
    void SetUp() override
    {
        degree_ = std::get<0>(GetParam()).degree;
        limbs_ = std::get<0>(GetParam()).limbs;
        const size_t threads = std::get<1>(GetParam());
        auto qs = generatePrimes(40, limbs_, degree_);
        for (u64 q : qs) {
            moduli_.emplace_back(q);
            tables_.emplace_back(degree_, Modulus(q));
        }
        for (auto &t : tables_)
            table_ptrs_.push_back(&t);

        scalar_ = makeKernelBackend(BackendKind::Scalar);
        for (SimdTier tier : kTiers) {
            if (auto be = engineAt(tier, threads))
                engines_.push_back(std::move(be));
        }
        ASSERT_FALSE(engines_.empty());
        ASSERT_EQ(engines_[0]->threads(), threads);
    }

    RnsPoly randomPoly(Rep rep, u64 seed, size_t limbs = 0) const
    {
        if (limbs == 0)
            limbs = limbs_;
        Rng rng(seed);
        RnsPoly p(degree_, limbs, rep);
        for (size_t l = 0; l < limbs; ++l) {
            auto v = rng.uniformVector(degree_,
                                       moduli_[l % moduli_.size()].value());
            std::copy(v.begin(), v.end(), p.limb(l));
        }
        return p;
    }

    /** The unfused centered-residue embedding (ModRaise / OF-Limb):
     *  @p src mod @p src_q into every fixture limb, Coeff rep. */
    RnsPoly embedReference(const std::vector<u64> &src,
                           const Modulus &src_q) const
    {
        RnsPoly out(degree_, limbs_, Rep::Coeff);
        for (size_t l = 0; l < limbs_; ++l) {
            const u64 q = moduli_[l].value();
            for (size_t i = 0; i < degree_; ++i) {
                u64 r = src[i] % q;
                if (src[i] > src_q.value() / 2)
                    r = subMod(r, src_q.value() % q, q);
                out.limb(l)[i] = r;
            }
        }
        return out;
    }

    /** The unfused sub-mul(-add) pass a SubMulTail replaces, applied
     *  to the NTT output @p v. */
    RnsPoly tailReference(const KernelBackend::SubMulTail &t,
                          const RnsPoly &v) const
    {
        RnsPoly out(degree_, limbs_, Rep::Eval);
        for (size_t l = 0; l < limbs_; ++l) {
            const Modulus &q = moduli_[l];
            for (size_t i = 0; i < degree_; ++i) {
                u64 r = q.mul(q.sub(t.minuend[l][i], v.limb(l)[i]),
                              t.scalars[l]);
                if (!t.addend.empty())
                    r = q.add(t.addend[l][i], r);
                out.limb(l)[i] = r;
            }
        }
        return out;
    }

    /** A poly recycled from @p kb 's pool whose words are all
     *  garbage: a kernel writing into it must overwrite every one. */
    RnsPoly pooledGarbage(KernelBackend &kb, size_t limbs, Rep rep) const
    {
        RnsPoly junk = kb.pool().acquire(degree_, limbs, rep);
        std::fill(junk.limb(0), junk.limb(0) + degree_ * limbs,
                  0xDEADBEEFCAFEF00DULL);
        kb.pool().release(std::move(junk));
        return kb.pool().acquire(degree_, limbs, rep);
    }

    static void expectIdentical(const RnsPoly &a, const RnsPoly &b)
    {
        ASSERT_EQ(a.numLimbs(), b.numLimbs());
        ASSERT_EQ(a.degree(), b.degree());
        EXPECT_EQ(a.rep(), b.rep());
        for (size_t l = 0; l < a.numLimbs(); ++l) {
            for (size_t i = 0; i < a.degree(); ++i) {
                ASSERT_EQ(a.limb(l)[i], b.limb(l)[i])
                    << "limb " << l << " word " << i;
            }
        }
    }

    size_t degree_ = 0;
    size_t limbs_ = 0;
    std::vector<Modulus> moduli_;
    std::vector<NttTables> tables_;
    std::vector<const NttTables *> table_ptrs_;
    /** The reference: serial executor, scalar kernel table. */
    std::unique_ptr<KernelBackend> scalar_;
    /** Every available kernel table on the parameter's thread count. */
    std::vector<std::unique_ptr<KernelBackend>> engines_;
};

TEST_P(BackendParityTest, ElementwiseKernels)
{
    auto a = randomPoly(Rep::Eval, 1);
    auto b = randomPoly(Rep::Eval, 2);
    std::vector<u64> scalars;
    for (auto &m : moduli_)
        scalars.push_back(m.value() / 5 + 1);

    auto check2 = [&](auto &&op) {
        RnsPoly want(degree_, limbs_, Rep::Eval);
        op(*scalar_, want);
        for (auto &kb : engines_) {
            SCOPED_TRACE(engineLabel(*kb));
            RnsPoly got(degree_, limbs_, Rep::Eval);
            op(*kb, got);
            expectIdentical(want, got);
        }
    };

    check2([&](KernelBackend &kb, RnsPoly &r) { kb.add(a, b, moduli_, r); });
    check2([&](KernelBackend &kb, RnsPoly &r) { kb.sub(a, b, moduli_, r); });
    check2([&](KernelBackend &kb, RnsPoly &r) { kb.neg(a, moduli_, r); });
    check2([&](KernelBackend &kb, RnsPoly &r) {
        kb.mulEval(a, b, moduli_, r);
    });
    check2([&](KernelBackend &kb, RnsPoly &r) {
        kb.mulScalar(a, scalars, moduli_, r);
    });
    check2([&](KernelBackend &kb, RnsPoly &r) {
        kb.addScalar(a, scalars, moduli_, r);
    });
    // Limb movement: a copy of limbs [1, L) shifted down one row.
    check2([&](KernelBackend &kb, RnsPoly &r) {
        kb.copyLimbs(a, 1, r, 0, limbs_ - 1);
        kb.copyLimbs(a, 0, r, limbs_ - 1, 1);
    });

    // MAC accumulates into the result: seed both sides identically.
    RnsPoly want = randomPoly(Rep::Eval, 3);
    RnsPoly seed = want;
    scalar_->mulAccEval(a, b, moduli_, want);
    for (auto &kb : engines_) {
        SCOPED_TRACE(engineLabel(*kb));
        RnsPoly got = seed;
        kb->mulAccEval(a, b, moduli_, got);
        expectIdentical(want, got);
    }
}

TEST_P(BackendParityTest, MonomialMulAndEmbedNtt)
{
    auto a = randomPoly(Rep::Coeff, 4);
    for (size_t shift : {size_t(0), size_t(1), degree_ / 2,
                         degree_ - 1}) {
        RnsPoly want(degree_, limbs_, Rep::Coeff);
        scalar_->monomialMul(a, shift, moduli_, want);
        for (auto &kb : engines_) {
            SCOPED_TRACE(engineLabel(*kb));
            RnsPoly got(degree_, limbs_, Rep::Coeff);
            kb->monomialMul(a, shift, moduli_, got);
            expectIdentical(want, got);
        }
    }

    // Runtime limb generation: the fused embed -> NTT against the
    // unfused composition (reference embedding, then a forward NTT).
    Rng rng(5);
    auto src = rng.uniformVector(degree_, moduli_[0].value());
    RnsPoly want = embedReference(src, moduli_[0]);
    scalar_->nttForward(want, table_ptrs_);
    RnsPoly fused(degree_, limbs_, Rep::Coeff);
    scalar_->embedNtt(src.data(), moduli_[0], table_ptrs_, fused);
    expectIdentical(want, fused);
    for (auto &kb : engines_) {
        SCOPED_TRACE(engineLabel(*kb));
        RnsPoly got = pooledGarbage(*kb, limbs_, Rep::Coeff);
        kb->embedNtt(src.data(), moduli_[0], table_ptrs_, got);
        expectIdentical(want, got);
    }
}

/**
 * The fused element-wise tails against the unfused compositions they
 * replace, on every engine: the HMult tensor against three mulEval and
 * one mulAccEval, and the rescale and ModDown tails, (a - NTT(x)) * s
 * with and without the trailing add, against the reference loop after
 * the unfused kernel (EvkMulAccParity covers the first digit's
 * assigning MAC). Fused outputs land in polluted pool buffers, so a
 * word a kernel fails to write shows up.
 */
TEST_P(BackendParityTest, FusedTailsMatchUnfusedComposition)
{
    const auto b1 = randomPoly(Rep::Eval, 20);
    const auto a1 = randomPoly(Rep::Eval, 21);
    const auto b2 = randomPoly(Rep::Eval, 22);
    const auto a2 = randomPoly(Rep::Eval, 23);

    // Tensor.
    RnsPoly want0(degree_, limbs_, Rep::Eval), want1 = want0, want2 = want0;
    scalar_->mulEval(b1, b2, moduli_, want0);
    scalar_->mulEval(a1, a2, moduli_, want2);
    scalar_->mulEval(a1, b2, moduli_, want1);
    scalar_->mulAccEval(a2, b1, moduli_, want1);
    std::vector<KernelBackend *> all{scalar_.get()};
    for (auto &kb : engines_)
        all.push_back(kb.get());
    for (KernelBackend *kb : all) {
        SCOPED_TRACE(engineLabel(*kb));
        RnsPoly d0 = pooledGarbage(*kb, limbs_, Rep::Eval);
        RnsPoly d1 = pooledGarbage(*kb, limbs_, Rep::Eval);
        RnsPoly d2 = pooledGarbage(*kb, limbs_, Rep::Eval);
        kb->tensor(b1, a1, b2, a2, moduli_, d0, d1, d2);
        expectIdentical(want0, d0);
        expectIdentical(want1, d1);
        expectIdentical(want2, d2);
    }

    std::vector<u64> scalars;
    for (auto &m : moduli_)
        scalars.push_back(m.value() / 3 + 7);
    KernelBackend::SubMulTail tail{b1.rows(0, limbs_), scalars, {}};
    KernelBackend::SubMulTail tail_add = tail;
    tail_add.addend = a1.rows(0, limbs_);

    // Rescale tail: (b1 - NTT(embed(src))) * s (+ a1).
    Rng rng(24);
    auto src = rng.uniformVector(degree_, moduli_[0].value());
    RnsPoly embedded = embedReference(src, moduli_[0]);
    scalar_->nttForward(embedded, table_ptrs_);
    for (const auto *t : {&tail, &tail_add}) {
        const RnsPoly want = tailReference(*t, embedded);
        for (KernelBackend *kb : all) {
            SCOPED_TRACE(engineLabel(*kb));
            RnsPoly got = pooledGarbage(*kb, limbs_, Rep::Eval);
            kb->embedNtt(src.data(), moduli_[0], table_ptrs_, got, t);
            expectIdentical(want, got);
        }
    }

    // ModDown tail: the copy-free digit path into the output rows,
    // then (b1 - row) * s (+ a1) per row.
    auto pc = generatePrimes(41, 3, degree_);
    std::vector<Modulus> in_base;
    std::vector<NttTables> in_tables;
    std::vector<const NttTables *> in_ptrs;
    for (u64 p : pc) {
        in_base.emplace_back(p);
        in_tables.emplace_back(degree_, Modulus(p));
    }
    for (auto &t : in_tables)
        in_ptrs.push_back(&t);
    BaseConverter bc(in_base, moduli_);
    const auto special = randomPoly(Rep::Eval, 25, in_base.size());
    RnsPoly conv = scalar_->nttBconvNtt(special, in_ptrs, bc, table_ptrs_);
    for (const auto *t : {&tail, &tail_add}) {
        const RnsPoly want = tailReference(*t, conv);
        for (KernelBackend *kb : all) {
            SCOPED_TRACE(engineLabel(*kb));
            RnsPoly got = pooledGarbage(*kb, limbs_, Rep::Eval);
            kb->nttBconvNtt(special.rows(0, in_base.size()), in_ptrs, bc,
                            table_ptrs_, got.mutableRows(0, limbs_), t);
            got.setRep(Rep::Eval);
            expectIdentical(want, got);
        }
    }
}

TEST_P(BackendParityTest, NttRoundTrip)
{
    const auto original = randomPoly(Rep::Coeff, 6);
    RnsPoly fwd = original;
    scalar_->nttForward(fwd, table_ptrs_);
    RnsPoly inv = fwd;
    scalar_->nttInverse(inv, table_ptrs_);
    expectIdentical(inv, original);

    for (auto &kb : engines_) {
        SCOPED_TRACE(engineLabel(*kb));
        RnsPoly got = original;
        kb->nttForward(got, table_ptrs_);
        expectIdentical(fwd, got);
        kb->nttInverse(got, table_ptrs_);
        expectIdentical(inv, got);
    }
}

TEST_P(BackendParityTest, BConvMatchesScalarAndReference)
{
    const size_t nb = limbs_;
    auto pc = generatePrimes(41, 3, degree_);
    std::vector<Modulus> out_base;
    for (u64 p : pc)
        out_base.emplace_back(p);
    BaseConverter bc(moduli_, out_base);

    auto in = randomPoly(Rep::Coeff, 7, nb);
    RnsPoly want = scalar_->bconv(bc, in);
    // Cross-check against the standalone reference implementation.
    expectIdentical(want, bc.convert(in));
    for (auto &kb : engines_) {
        SCOPED_TRACE(engineLabel(*kb));
        expectIdentical(want, kb->bconv(bc, in));
    }
}

TEST_P(BackendParityTest, AutomorphismBothReps)
{
    const u64 g = galoisElt(3, degree_);
    Automorphism am(g, degree_);
    for (Rep rep : {Rep::Coeff, Rep::Eval}) {
        auto p = randomPoly(rep, 8);
        RnsPoly want = scalar_->automorphism(am, p, moduli_);
        for (auto &kb : engines_) {
            SCOPED_TRACE(engineLabel(*kb));
            expectIdentical(want, kb->automorphism(am, p, moduli_));
        }
    }
}

TEST_P(BackendParityTest, FusedNttBconvNttMatchesUnfusedPipeline)
{
    auto pc = generatePrimes(41, 4, degree_);
    std::vector<Modulus> out_base;
    std::vector<NttTables> out_tables;
    std::vector<const NttTables *> out_ptrs;
    for (u64 p : pc) {
        out_base.emplace_back(p);
        out_tables.emplace_back(degree_, Modulus(p));
    }
    for (auto &t : out_tables)
        out_ptrs.push_back(&t);
    BaseConverter bc(moduli_, out_base);

    auto digit = randomPoly(Rep::Eval, 9);
    RnsPoly want = scalar_->nttBconvNtt(digit, table_ptrs_, bc, out_ptrs);

    // The fused path must equal the unfused INTT -> BConv -> NTT
    // pipeline bit for bit.
    RnsPoly unfused = digit;
    scalar_->nttInverse(unfused, table_ptrs_);
    RnsPoly conv = bc.convert(unfused);
    scalar_->nttForward(conv, out_ptrs);
    expectIdentical(want, conv);

    for (auto &kb : engines_) {
        SCOPED_TRACE(engineLabel(*kb));
        expectIdentical(want,
                        kb->nttBconvNtt(digit, table_ptrs_, bc, out_ptrs));

        // Copy-free row form: read the digit in place from the middle
        // of a wider poly and write the output rows interleaved with
        // untouched guard rows, as decompose does with an extended
        // poly. The source and the guards must come back unmodified.
        const size_t nc = out_base.size();
        RnsPoly wide = randomPoly(Rep::Eval, 15, limbs_ + 2);
        for (size_t l = 0; l < limbs_; ++l)
            std::copy(digit.limb(l), digit.limb(l) + degree_,
                      wide.limb(l + 1));
        const RnsPoly wide_before = wide;
        RnsPoly ext = randomPoly(Rep::Eval, 16, 2 * nc);
        const RnsPoly ext_before = ext;
        std::vector<u64 *> rows;
        for (size_t i = 0; i < nc; ++i)
            rows.push_back(ext.limb(2 * i));
        kb->nttBconvNtt(wide.rows(1, limbs_ + 1), table_ptrs_, bc,
                        out_ptrs, rows);
        expectIdentical(wide_before, wide);
        for (size_t i = 0; i < nc; ++i) {
            for (size_t c = 0; c < degree_; ++c) {
                ASSERT_EQ(ext.limb(2 * i)[c], want.limb(i)[c])
                    << "row " << i << " coeff " << c;
                ASSERT_EQ(ext.limb(2 * i + 1)[c],
                          ext_before.limb(2 * i + 1)[c])
                    << "guard row " << i << " coeff " << c;
            }
        }
    }
}

TEST_P(BackendParityTest, EvkMulAccParity)
{
    // Emulate the key-switch shapes: digit spans nq + np limbs, evk
    // spans full_nq + np limbs with full_nq >= nq.
    const size_t np = 2;
    if (limbs_ <= np)
        GTEST_SKIP() << "shape too small for an extended basis";
    const size_t nq = limbs_ - np;
    const size_t full_nq = nq + 1;

    // key moduli: nq q-primes then np specials (reuse the fixture
    // moduli; exact values are irrelevant for parity).
    std::vector<Modulus> key_moduli(moduli_.begin(), moduli_.end());

    auto digit = randomPoly(Rep::Eval, 10, nq + np);
    Rng rng(11);
    RnsPoly evk_b(degree_, full_nq + np, Rep::Eval);
    RnsPoly evk_a(degree_, full_nq + np, Rep::Eval);
    for (size_t l = 0; l < full_nq + np; ++l) {
        const size_t ml = l < nq ? l : (l >= full_nq ? nq + (l - full_nq)
                                                     : 0);
        auto vb = rng.uniformVector(degree_, moduli_[ml].value());
        auto va = rng.uniformVector(degree_, moduli_[ml].value());
        std::copy(vb.begin(), vb.end(), evk_b.limb(l));
        std::copy(va.begin(), va.end(), evk_a.limb(l));
    }

    RnsPoly want_b(degree_, nq + np, Rep::Eval);
    RnsPoly want_a(degree_, nq + np, Rep::Eval);
    scalar_->evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli,
                       want_b, want_a);
    for (auto &kb : engines_) {
        SCOPED_TRACE(engineLabel(*kb));
        RnsPoly got_b(degree_, nq + np, Rep::Eval);
        RnsPoly got_a(degree_, nq + np, Rep::Eval);
        kb->evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli,
                      got_b, got_a);
        expectIdentical(want_b, got_b);
        expectIdentical(want_a, got_a);
    }

    // The first digit's MAC assigns: over garbage accumulators it must
    // equal the MAC into cleared ones above, on every engine.
    std::vector<KernelBackend *> all{scalar_.get()};
    for (auto &kb : engines_)
        all.push_back(kb.get());
    for (KernelBackend *kb : all) {
        SCOPED_TRACE(engineLabel(*kb));
        RnsPoly got_b = pooledGarbage(*kb, nq + np, Rep::Eval);
        RnsPoly got_a = pooledGarbage(*kb, nq + np, Rep::Eval);
        kb->evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli,
                      got_b, got_a, /*accumulate=*/false);
        expectIdentical(want_b, got_b);
        expectIdentical(want_a, got_a);
    }
}

TEST_P(BackendParityTest, StatsRecordWhatExecuted)
{
    auto a = randomPoly(Rep::Eval, 12);
    auto b = randomPoly(Rep::Eval, 13);
    RnsPoly r(degree_, limbs_, Rep::Eval);

    std::vector<KernelBackend *> all{scalar_.get()};
    for (auto &kb : engines_)
        all.push_back(kb.get());
    for (KernelBackend *kb : all) {
        SCOPED_TRACE(engineLabel(*kb));
        kb->resetStats();
        kb->mulEval(a, b, moduli_, r);
        // stats() returns a merged snapshot by value; keep it alive
        // while inspecting per-kernel counters.
        const KernelStats st = kb->stats();
        const KernelCounter &c = st.at(KernelOp::MulEval);
        EXPECT_EQ(c.calls, 1u);
        EXPECT_EQ(c.limbs, limbs_);
        EXPECT_EQ(c.mults, limbs_ * degree_);
        EXPECT_EQ(st.totalCalls(), 1u);
        kb->resetStats();
        EXPECT_EQ(kb->stats().totalCalls(), 0u);
    }
}

/** Shapes below the grain run serially on every engine; shapes above
 *  it fan out over the pool (whole limbs, and BConv tiles). */
const Shape kShapes[] = {{256, 3},  {512, 6},   {1024, 8},
                         {2048, 4}, {2048, 12}, {4096, 6}};

TEST(BackendGrain, ParityShapesStraddleTheGrain)
{
    size_t below = 0, above = 0;
    for (const Shape &s : kShapes)
        (s.degree * s.limbs < KernelBackend::kGrainWords ? below : above)++;
    EXPECT_GE(below, 2u);
    EXPECT_GE(above, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackendParityTest,
    ::testing::Combine(::testing::ValuesIn(kShapes),
                       ::testing::Values(size_t(1), size_t(2), size_t(4))),
    [](const auto &info) {
        const Shape &s = std::get<0>(info.param);
        return "N" + std::to_string(s.degree) + "_L" +
               std::to_string(s.limbs) + "_T" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Lazy-reduction vs strict reference kernels
// ---------------------------------------------------------------------------

/**
 * The Harvey lazy (I)NTT must be bit-identical to the strict reference
 * transforms on random data for every prime width a shipped parameter
 * set uses (q0, scale and special primes of each preset), and the
 * lazy round-trip must be the identity.
 */
TEST(LazyStrictParityTest, NttAcrossParameterSetPrimes)
{
    struct PresetPrimes
    {
        std::string name;
        size_t degree;
        std::vector<int> widths;
    };
    std::vector<PresetPrimes> presets;
    for (const CkksParams &p :
         {CkksParams::testTiny(), CkksParams::testSmall(),
          CkksParams::testBoot()}) {
        // Test at a reduced degree with the preset's real prime
        // widths: NttTables work is O(N log N) per prime and the full
        // bootstrap-size rings would dominate suite runtime without
        // covering different code paths.
        const size_t degree = std::min<size_t>(p.degree, 2048);
        presets.push_back(
            {p.name, degree, {p.log_q0, p.log_scale, p.log_special}});
    }

    u64 seed = 40;
    for (const auto &preset : presets) {
        for (int width : preset.widths) {
            SCOPED_TRACE(preset.name + " width " +
                         std::to_string(width));
            auto primes = generatePrimes(width, 2, preset.degree);
            for (u64 q : primes) {
                NttTables tables(preset.degree, Modulus(q));
                Rng rng(seed++);
                auto v = rng.uniformVector(preset.degree, q);

                auto lazy = v;
                auto strict = v;
                tables.forward(lazy.data());
                tables.forwardStrict(strict.data());
                EXPECT_EQ(lazy, strict) << "forward diverged, q=" << q;

                tables.inverse(lazy.data());
                tables.inverseStrict(strict.data());
                EXPECT_EQ(lazy, strict) << "inverse diverged, q=" << q;
                EXPECT_EQ(lazy, v) << "round-trip not identity, q=" << q;
            }
        }
    }
}

/** Forward/inverse parity on tiny and odd-shaped degrees (the
 *  flattened last-stage specializations cover t = 1, 2 explicitly). */
TEST(LazyStrictParityTest, NttSmallDegrees)
{
    u64 seed = 60;
    for (size_t degree : {size_t(2), size_t(4), size_t(8), size_t(16),
                          size_t(64)}) {
        auto primes = generatePrimes(30, 2, degree);
        for (u64 q : primes) {
            NttTables tables(degree, Modulus(q));
            Rng rng(seed++);
            auto v = rng.uniformVector(degree, q);
            auto lazy = v, strict = v;
            tables.forward(lazy.data());
            tables.forwardStrict(strict.data());
            EXPECT_EQ(lazy, strict) << "N=" << degree << " q=" << q;
            tables.inverse(lazy.data());
            tables.inverseStrict(strict.data());
            EXPECT_EQ(lazy, strict) << "N=" << degree << " q=" << q;
            EXPECT_EQ(lazy, v);
        }
    }
}

/** Fused cache-blocked convert == materialized two-stage pipeline on
 *  randomized bases, including non-multiple-of-tile degrees. */
TEST(LazyStrictParityTest, FusedBconvMatchesTwoStage)
{
    u64 seed = 80;
    for (size_t degree : {size_t(256), size_t(1024)}) {
        for (size_t nb : {size_t(1), size_t(3), size_t(7),
                          size_t(13)}) {
            SCOPED_TRACE("N=" + std::to_string(degree) +
                         " nb=" + std::to_string(nb));
            auto pb = generatePrimes(45, nb, degree);
            auto pc = generatePrimes(50, 5, degree, pb);
            std::vector<Modulus> mb, mc;
            for (u64 p : pb)
                mb.emplace_back(p);
            for (u64 p : pc)
                mc.emplace_back(p);
            BaseConverter bc(mb, mc);

            Rng rng(seed++);
            RnsPoly in(degree, nb, Rep::Coeff);
            for (size_t l = 0; l < nb; ++l) {
                auto v = rng.uniformVector(degree, pb[l]);
                std::copy(v.begin(), v.end(), in.limb(l));
            }

            RnsPoly fused = bc.convert(in);
            RnsPoly two = bc.matmulStage(bc.scaleStage(in));
            ASSERT_EQ(fused.numLimbs(), two.numLimbs());
            for (size_t l = 0; l < fused.numLimbs(); ++l) {
                for (size_t c = 0; c < degree; ++c) {
                    ASSERT_EQ(fused.limb(l)[c], two.limb(l)[c])
                        << "limb " << l << " coeff " << c;
                }
            }
        }
    }
}

/**
 * Kernels drawing outputs and scratch from a deliberately polluted
 * pool must produce bit-identical results to a backend with an empty
 * pool, on every engine — stale buffer words must never leak into
 * results. The shape is above the grain, so the 4-thread engines write
 * the pooled buffers from several threads.
 */
TEST(LazyStrictParityTest, PooledVersusFreshBitEquality)
{
    const size_t degree = 4096;
    const size_t limbs = 6;
    auto qs = generatePrimes(40, limbs, degree);
    std::vector<Modulus> moduli;
    std::vector<NttTables> tables;
    std::vector<const NttTables *> table_ptrs;
    for (u64 q : qs) {
        moduli.emplace_back(q);
        tables.emplace_back(degree, Modulus(q));
    }
    for (auto &t : tables)
        table_ptrs.push_back(&t);
    auto pc = generatePrimes(41, 4, degree);
    std::vector<Modulus> out_base;
    std::vector<NttTables> out_tables;
    std::vector<const NttTables *> out_ptrs;
    for (u64 p : pc) {
        out_base.emplace_back(p);
        out_tables.emplace_back(degree, Modulus(p));
    }
    for (auto &t : out_tables)
        out_ptrs.push_back(&t);
    BaseConverter bc(moduli, out_base);
    Automorphism am(galoisElt(3, degree), degree);

    Rng rng(100);
    RnsPoly in(degree, limbs, Rep::Coeff);
    for (size_t l = 0; l < limbs; ++l) {
        auto v = rng.uniformVector(degree, qs[l]);
        std::copy(v.begin(), v.end(), in.limb(l));
    }

    for (BackendKind kind : {BackendKind::Scalar, BackendKind::Parallel,
                             BackendKind::Simd}) {
        SCOPED_TRACE(backendKindName(kind));
        auto fresh = makeKernelBackend(kind, 4);
        auto pooled = makeKernelBackend(kind, 4);

        // Pollute the pooled backend's free lists with garbage-filled
        // buffers of exactly the shapes the kernels will request.
        auto pollute = [&](size_t nl, Rep rep) {
            RnsPoly junk = pooled->pool().acquire(degree, nl, rep);
            for (size_t l = 0; l < nl; ++l) {
                for (size_t c = 0; c < degree; ++c)
                    junk.limb(l)[c] = 0xDEADBEEFCAFEF00DULL;
            }
            pooled->pool().release(std::move(junk));
        };
        pollute(limbs, Rep::Coeff);
        pollute(out_base.size(), Rep::Coeff);

        RnsPoly bconv_fresh = fresh->bconv(bc, in);
        RnsPoly bconv_pooled = pooled->bconv(bc, in);
        for (size_t l = 0; l < bconv_fresh.numLimbs(); ++l) {
            for (size_t c = 0; c < degree; ++c) {
                ASSERT_EQ(bconv_fresh.limb(l)[c],
                          bconv_pooled.limb(l)[c])
                    << "bconv limb " << l << " coeff " << c;
            }
        }

        pollute(limbs, Rep::Coeff);
        RnsPoly rot_fresh = fresh->automorphism(am, in, moduli);
        RnsPoly rot_pooled = pooled->automorphism(am, in, moduli);
        for (size_t l = 0; l < rot_fresh.numLimbs(); ++l) {
            for (size_t c = 0; c < degree; ++c) {
                ASSERT_EQ(rot_fresh.limb(l)[c], rot_pooled.limb(l)[c])
                    << "automorphism limb " << l << " coeff " << c;
            }
        }

        RnsPoly digit = in;
        digit.setRep(Rep::Eval);
        pollute(limbs, Rep::Coeff);
        pollute(out_base.size(), Rep::Coeff);
        RnsPoly ks_fresh =
            fresh->nttBconvNtt(digit, table_ptrs, bc, out_ptrs);
        RnsPoly ks_pooled =
            pooled->nttBconvNtt(digit, table_ptrs, bc, out_ptrs);
        for (size_t l = 0; l < ks_fresh.numLimbs(); ++l) {
            for (size_t c = 0; c < degree; ++c) {
                ASSERT_EQ(ks_fresh.limb(l)[c], ks_pooled.limb(l)[c])
                    << "nttBconvNtt limb " << l << " coeff " << c;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel-table tier sweep, per thread count
// ---------------------------------------------------------------------------

class SimdTierParityTest
    : public ::testing::TestWithParam<std::tuple<SimdTier, size_t>>
{
  protected:
    void SetUp() override
    {
        simd_ = engineAt(std::get<0>(GetParam()), std::get<1>(GetParam()));
        if (!simd_)
            GTEST_SKIP() << "tier not available on this host";
    }

    std::unique_ptr<KernelBackend> simd_;
    KernelBackend scalar_;
};

/**
 * NTT parity against the scalar backend across every prime width the
 * shipped parameter sets use plus the widest supported one. Width 61
 * exercises the q >= 2^60 guard, where the vector kernels' widened
 * lazy bounds no longer hold and the backend must fall back to the
 * scalar transforms rather than compute garbage.
 */
TEST_P(SimdTierParityTest, NttParityAcrossPrimeWidths)
{
    // Every width's primes are limbs of one poly: 14 limbs of 2048
    // words, above the grain, so multi-threaded engines fan out.
    const size_t degree = 2048;
    std::vector<u64> qs;
    for (int width : {30, 40, 50, 55, 59, 60, 61}) {
        for (u64 q : generatePrimes(width, 2, degree))
            qs.push_back(q);
    }
    std::vector<NttTables> tables;
    for (u64 q : qs)
        tables.emplace_back(degree, Modulus(q));
    std::vector<const NttTables *> tp;
    for (auto &t : tables)
        tp.push_back(&t);
    Rng rng(200);
    RnsPoly p(degree, qs.size(), Rep::Coeff);
    for (size_t l = 0; l < qs.size(); ++l) {
        auto v = rng.uniformVector(degree, qs[l]);
        std::copy(v.begin(), v.end(), p.limb(l));
    }
    const RnsPoly original = p;
    RnsPoly ps = p;

    simd_->nttForward(p, tp);
    scalar_.nttForward(ps, tp);
    for (size_t l = 0; l < qs.size(); ++l)
        for (size_t i = 0; i < degree; ++i)
            ASSERT_EQ(p.limb(l)[i], ps.limb(l)[i])
                << "forward q=" << qs[l] << " i=" << i;

    simd_->nttInverse(p, tp);
    scalar_.nttInverse(ps, tp);
    for (size_t l = 0; l < qs.size(); ++l) {
        for (size_t i = 0; i < degree; ++i) {
            ASSERT_EQ(p.limb(l)[i], ps.limb(l)[i])
                << "inverse q=" << qs[l] << " i=" << i;
            ASSERT_EQ(p.limb(l)[i], original.limb(l)[i])
                << "round trip q=" << qs[l] << " i=" << i;
        }
    }
}

/** Tiny and sub-vector degrees: below min_ntt_degree the backend must
 *  fall back to the scalar transform; at and above it the window
 *  (shuffle) paths and the fused stage pairs all get exercised. */
TEST_P(SimdTierParityTest, NttParityTinyDegrees)
{
    u64 seed = 300;
    for (size_t degree : {size_t(2), size_t(4), size_t(8), size_t(16),
                          size_t(32), size_t(64), size_t(4096)}) {
        SCOPED_TRACE("degree " + std::to_string(degree));
        auto qs = generatePrimes(45, 1, degree);
        NttTables tables(degree, Modulus(qs[0]));
        std::vector<const NttTables *> tp{&tables};
        Rng rng(seed++);
        RnsPoly p(degree, 1, Rep::Coeff);
        auto v = rng.uniformVector(degree, qs[0]);
        std::copy(v.begin(), v.end(), p.limb(0));
        RnsPoly ps = p;

        simd_->nttForward(p, tp);
        scalar_.nttForward(ps, tp);
        for (size_t i = 0; i < degree; ++i)
            ASSERT_EQ(p.limb(0)[i], ps.limb(0)[i]) << "forward i=" << i;
        simd_->nttInverse(p, tp);
        scalar_.nttInverse(ps, tp);
        for (size_t i = 0; i < degree; ++i) {
            ASSERT_EQ(p.limb(0)[i], ps.limb(0)[i]) << "inverse i=" << i;
            ASSERT_EQ(p.limb(0)[i], v[i]) << "round trip i=" << i;
        }
    }
}

/** Fused BConv tiles across odd base sizes (tile remainders) per tier,
 *  below (N=256) and above (N=4096) the grain. */
TEST_P(SimdTierParityTest, BconvParityOddBases)
{
    u64 seed = 400;
    for (size_t degree : {size_t(256), size_t(4096)}) {
        for (size_t nb : {size_t(1), size_t(3), size_t(7)}) {
            SCOPED_TRACE("N " + std::to_string(degree) + " nb " +
                         std::to_string(nb));
            auto pb = generatePrimes(45, nb, degree);
            auto pc = generatePrimes(50, 3, degree, pb);
            std::vector<Modulus> mb, mc;
            for (u64 p : pb)
                mb.emplace_back(p);
            for (u64 p : pc)
                mc.emplace_back(p);
            BaseConverter bc(mb, mc);

            Rng rng(seed++);
            RnsPoly in(degree, nb, Rep::Coeff);
            for (size_t l = 0; l < nb; ++l) {
                auto v = rng.uniformVector(degree, pb[l]);
                std::copy(v.begin(), v.end(), in.limb(l));
            }
            RnsPoly rs = scalar_.bconv(bc, in);
            RnsPoly rv = simd_->bconv(bc, in);
            ASSERT_EQ(rs.numLimbs(), rv.numLimbs());
            for (size_t l = 0; l < rs.numLimbs(); ++l) {
                for (size_t c = 0; c < degree; ++c)
                    ASSERT_EQ(rs.limb(l)[c], rv.limb(l)[c])
                        << "limb " << l << " coeff " << c;
            }
        }
    }
}

/** evk MAC digit path per tier, accumulating and assigning (the first
 *  digit), including the full_nq > nq tail, below (N=256) and above
 *  (N=4096) the grain. */
TEST_P(SimdTierParityTest, EvkMulAccParityPerTier)
{
    const size_t np = 2, nq = 3, full_nq = nq + 1;
    for (size_t degree : {size_t(256), size_t(4096)}) {
        SCOPED_TRACE("N " + std::to_string(degree));
        auto qs = generatePrimes(40, full_nq + np, degree);
        std::vector<Modulus> key_moduli;
        for (u64 q : qs)
            key_moduli.emplace_back(q);

        Rng rng(500);
        RnsPoly digit(degree, nq + np, Rep::Eval);
        RnsPoly evk_b(degree, full_nq + np, Rep::Eval);
        RnsPoly evk_a(degree, full_nq + np, Rep::Eval);
        for (size_t l = 0; l < nq + np; ++l) {
            auto v = rng.uniformVector(degree, key_moduli[l].value());
            std::copy(v.begin(), v.end(), digit.limb(l));
        }
        for (size_t l = 0; l < full_nq + np; ++l) {
            auto vb = rng.uniformVector(degree, key_moduli[l].value());
            auto va = rng.uniformVector(degree, key_moduli[l].value());
            std::copy(vb.begin(), vb.end(), evk_b.limb(l));
            std::copy(va.begin(), va.end(), evk_a.limb(l));
        }

        RnsPoly bs(degree, nq + np, Rep::Eval);
        RnsPoly as(degree, nq + np, Rep::Eval);
        RnsPoly bv(degree, nq + np, Rep::Eval);
        RnsPoly av(degree, nq + np, Rep::Eval);
        scalar_.evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli,
                          bs, as);
        simd_->evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli,
                         bv, av);
        for (size_t l = 0; l < nq + np; ++l) {
            for (size_t c = 0; c < degree; ++c) {
                ASSERT_EQ(bs.limb(l)[c], bv.limb(l)[c])
                    << "b limb " << l << " coeff " << c;
                ASSERT_EQ(as.limb(l)[c], av.limb(l)[c])
                    << "a limb " << l << " coeff " << c;
            }
        }

        // First-digit form: assigning over garbage accumulators equals
        // the MAC into cleared ones.
        RnsPoly bf(degree, nq + np, Rep::Eval);
        RnsPoly af(degree, nq + np, Rep::Eval);
        std::fill(bf.limb(0), bf.limb(0) + degree * (nq + np), ~0ULL);
        std::fill(af.limb(0), af.limb(0) + degree * (nq + np), ~0ULL);
        simd_->evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli, bf,
                         af, /*accumulate=*/false);
        for (size_t l = 0; l < nq + np; ++l) {
            for (size_t c = 0; c < degree; ++c) {
                ASSERT_EQ(bs.limb(l)[c], bf.limb(l)[c])
                    << "assigned b limb " << l << " coeff " << c;
                ASSERT_EQ(as.limb(l)[c], af.limb(l)[c])
                    << "assigned a limb " << l << " coeff " << c;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, SimdTierParityTest,
    ::testing::Combine(::testing::ValuesIn(kTiers),
                       ::testing::Values(size_t(1), size_t(2), size_t(4))),
    [](const auto &info) {
        return std::string(simdTierName(std::get<0>(info.param))) +
               "_T" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace ark
