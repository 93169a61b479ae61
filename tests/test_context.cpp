/**
 * @file
 * Invariant tests on CkksContext precomputation: gadget-constant
 * algebra (the heart of generalized key-switching correctness),
 * rescale constants, ModDown constants, level bookkeeping, and the
 * pool budget the context derives for its backend.
 */

#include <gtest/gtest.h>

#include <set>

#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"

namespace ark {
namespace {

class ContextTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        ctx_ = new CkksContext(CkksParams::testSmall());
    }
    static void TearDownTestSuite() { delete ctx_; }

    static CkksContext *ctx_;
};

CkksContext *ContextTest::ctx_ = nullptr;

TEST_F(ContextTest, PrimeChainsWellFormed)
{
    const auto &p = ctx_->params();
    EXPECT_EQ(ctx_->qModuli().size(), static_cast<size_t>(p.max_level) + 1);
    EXPECT_EQ(ctx_->pModuli().size(), static_cast<size_t>(p.alpha()));
    // All primes distinct and NTT-friendly.
    std::set<u64> seen;
    for (const auto &m : ctx_->qModuli()) {
        EXPECT_EQ((m.value() - 1) % (2 * p.degree), 0u);
        EXPECT_TRUE(seen.insert(m.value()).second);
    }
    for (const auto &m : ctx_->pModuli()) {
        EXPECT_EQ((m.value() - 1) % (2 * p.degree), 0u);
        EXPECT_TRUE(seen.insert(m.value()).second);
    }
}

TEST_F(ContextTest, GadgetConstantsAreCrtIndicators)
{
    // g_d = 1 mod the primes of digit d, 0 mod other q primes
    // (paper Alg. 2 correctness hinges on exactly this).
    const int a = ctx_->alpha();
    const size_t nq = ctx_->qModuli().size();
    for (int d = 0; d < ctx_->dnum(); ++d) {
        const auto &g = ctx_->gadget(d);
        for (size_t l = 0; l < nq; ++l) {
            const bool in_digit = l >= static_cast<size_t>(d) * a &&
                                  l < static_cast<size_t>(d + 1) * a;
            EXPECT_EQ(g[l], in_digit ? 1u : 0u)
                << "digit " << d << " limb " << l;
        }
    }
}

TEST_F(ContextTest, PInverseConstants)
{
    for (size_t i = 0; i < ctx_->qModuli().size(); ++i) {
        const Modulus &q = ctx_->qModuli()[i];
        EXPECT_EQ(q.mul(ctx_->pModQ(i), ctx_->pInvModQ(i)), 1u);
        // P mod q_i is the product of the special primes mod q_i.
        u64 expect = 1;
        for (const auto &sp : ctx_->pModuli())
            expect = q.mul(expect, sp.value() % q.value());
        EXPECT_EQ(ctx_->pModQ(i), expect);
    }
}

TEST_F(ContextTest, RescaleConstants)
{
    for (int lv = 1; lv <= ctx_->maxLevel(); ++lv) {
        const u64 q_last = ctx_->qModuli()[lv].value();
        for (int i = 0; i < lv; ++i) {
            const Modulus &qi = ctx_->qModuli()[i];
            EXPECT_EQ(qi.mul(ctx_->qLastInvModQ(lv, i),
                             q_last % qi.value()), 1u);
        }
    }
}

TEST_F(ContextTest, DigitCountPerLevel)
{
    const int a = ctx_->alpha();
    for (int lv = 0; lv <= ctx_->maxLevel(); ++lv) {
        int expect = (lv + 1 + a - 1) / a; // ceil((lv+1)/alpha)
        EXPECT_EQ(ctx_->numDigits(lv), expect) << "level " << lv;
    }
}

TEST_F(ContextTest, KeyTableRouting)
{
    const int lv = 3;
    // Limbs 0..lv route to q tables; beyond that to special tables.
    for (int l = 0; l <= lv; ++l) {
        EXPECT_EQ(ctx_->keyTable(l, lv).modulus().value(),
                  ctx_->qModuli()[l].value());
    }
    for (size_t s = 0; s < ctx_->pModuli().size(); ++s) {
        EXPECT_EQ(ctx_->keyTable(lv + 1 + s, lv).modulus().value(),
                  ctx_->pModuli()[s].value());
    }
}

TEST_F(ContextTest, AutomorphismCacheReturnsSameObject)
{
    const Automorphism &a1 = ctx_->automorphism(5);
    const Automorphism &a2 = ctx_->automorphism(5);
    EXPECT_EQ(&a1, &a2);
    const Automorphism &b = ctx_->automorphism(25);
    EXPECT_NE(&a1, &b);
}

/**
 * The pool budget follows the parameter set. At N = 2^15, L = 15,
 * dnum = 4 one HMult releases about 43 MiB of temporaries, more than a
 * stripe's 32 MiB default. After one warm-up, an HMult -> HRot ->
 * rescale unit must take every temporary from the pool: its only
 * misses are the six result polys it hands back (b and a of each op),
 * which leave the pool for good.
 */
TEST(ContextPool, SteadyStateUnitMissesOnlyItsResults)
{
    CkksParams p;
    p.name = "pool-steady-state";
    p.degree = 1ULL << 15;
    p.num_slots = 1ULL << 14;
    p.max_level = 15;
    p.dnum = 4;
    p.log_q0 = 60;
    p.log_scale = 40;
    p.log_special = 60;
    p.hamming_weight = 64;
    CkksContext ctx(p);
    Rng rng(13);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    const EvalKey mult = keygen.evkMult(sk);
    const EvalKey rot = keygen.evkRotation(sk, 1);
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);
    const std::vector<Complex> m(p.num_slots, Complex(0.5, -0.25));
    const Ciphertext ct = encryptor.encryptSymmetric(
        encoder.encode(m, ctx.maxLevel()), sk);
    CkksEvaluator eval(ctx);
    auto unit = [&] {
        return eval.rescale(eval.rotate(eval.mul(ct, ct, mult), 1, rot));
    };

    (void)unit(); // warm-up: fills the pool
    for (int i = 0; i < 2; ++i) {
        const PolyPool::Stats before = ctx.pool().stats();
        (void)unit();
        const PolyPool::Stats after = ctx.pool().stats();
        EXPECT_LE(after.misses - before.misses, 6u) << "unit " << i;
        EXPECT_GT(after.hits, before.hits);
    }
}

TEST(ContextDeath, RejectsIndivisibleDnum)
{
    CkksParams p = CkksParams::testTiny();
    p.dnum = 3; // L+1 = 4 not divisible by 3
    EXPECT_DEATH({ CkksContext ctx(p); }, "");
}

} // namespace
} // namespace ark
