/**
 * @file
 * Evaluator-level semantic oracle across every kernel-engine
 * combination (executor x kernel table x thread count).
 *
 * Runs HMult -> HRot(1) -> rescale end to end — the path through the
 * copy-free key-switch digits (decompose reads digit limbs in place,
 * nttBconvNtt writes straight into the extended poly, modDownByP reads
 * the P limbs in place) — at testTiny and testBoot, and checks two
 * things:
 *  - every engine's ciphertext is bit-identical to the serial scalar
 *    engine's;
 *  - the decrypted result matches the cleartext rot(m^2, 1) to within
 *    a precision floor in bits, so a bug shared by every engine (which
 *    parity alone would pass) still fails.
 *
 * Keys and the input ciphertext are made once on the reference context
 * and reused by every engine's context: they are plain data bound only
 * to the parameter set.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "rns/backend.h"

namespace ark {
namespace {

/**
 * Pins the engine env knobs while a context is built (the context
 * reads them in its constructor), restoring the caller's values after:
 * this suite enumerates the combinations itself, so an ARK_BACKEND
 * set for a whole CI leg must not collapse them into one.
 */
class EnvPin
{
  public:
    explicit EnvPin(const char *simd_tier)
    {
        for (Saved &s : saved_) {
            const char *v = std::getenv(s.name);
            s.had = v != nullptr;
            if (s.had)
                s.value = v;
            unsetenv(s.name);
        }
        if (simd_tier != nullptr)
            setenv("ARK_SIMD_TIER", simd_tier, 1);
    }

    ~EnvPin()
    {
        for (const Saved &s : saved_) {
            if (s.had)
                setenv(s.name, s.value.c_str(), 1);
            else
                unsetenv(s.name);
        }
    }

  private:
    struct Saved
    {
        const char *name;
        bool had = false;
        std::string value;
    };
    Saved saved_[3] = {{"ARK_BACKEND", false, {}},
                       {"ARK_THREADS", false, {}},
                       {"ARK_SIMD_TIER", false, {}}};
};

struct Engine
{
    BackendKind kind;
    size_t threads;
    SimdTier tier; ///< kernel table (Scalar for scalar / parallel)
};

std::string
engineName(const Engine &e)
{
    return std::string(backendKindName(e.kind)) + "/" +
           simdTierName(e.tier) + " x" + std::to_string(e.threads);
}

/** Every shipped combination the host can run. */
std::vector<Engine>
allEngines()
{
    std::vector<Engine> out{{BackendKind::Scalar, 1, SimdTier::Scalar},
                            {BackendKind::Parallel, 2, SimdTier::Scalar},
                            {BackendKind::Parallel, 4, SimdTier::Scalar}};
    for (SimdTier tier : {SimdTier::Avx2, SimdTier::Avx512}) {
        if (static_cast<int>(tier) > static_cast<int>(detectSimdTier()))
            continue;
        for (size_t threads : {size_t(1), size_t(2), size_t(4)})
            out.push_back({BackendKind::Simd, threads, tier});
    }
    return out;
}

std::unique_ptr<CkksContext>
makeContext(CkksParams params, const Engine &e)
{
    EnvPin pin(e.kind == BackendKind::Simd ? simdTierName(e.tier)
                                           : nullptr);
    params.backend = e.kind;
    params.backend_threads = e.threads;
    auto ctx = std::make_unique<CkksContext>(params);
    EXPECT_EQ(ctx->backend().kind(), e.kind);
    EXPECT_EQ(ctx->backend().threads(), e.threads);
    EXPECT_EQ(ctx->backend().tier(), e.tier);
    return ctx;
}

void
expectSamePoly(const RnsPoly &want, const RnsPoly &got, const char *what)
{
    ASSERT_TRUE(want.sameShape(got)) << what;
    ASSERT_EQ(want.rep(), got.rep()) << what;
    for (size_t l = 0; l < want.numLimbs(); ++l) {
        for (size_t i = 0; i < want.degree(); ++i) {
            ASSERT_EQ(want.limb(l)[i], got.limb(l)[i])
                << what << " limb " << l << " word " << i;
        }
    }
}

struct OracleCase
{
    const char *name;
    CkksParams (*params)();
    /** Lowest accepted -log2(max slot error) of rot(m^2, 1); the
     *  measured values are 30.9 (testTiny) and 31.9 (testBoot) bits. */
    double floor_bits;
};

void
PrintTo(const OracleCase &c, std::ostream *os)
{
    *os << c.name;
}

class EvaluatorOracleTest : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(EvaluatorOracleTest, HMultHRotRescaleAcrossEngines)
{
    const OracleCase &oc = GetParam();
    const CkksParams params = oc.params();
    const std::vector<Engine> engines = allEngines();
    auto ref_ctx = makeContext(params, engines[0]);

    Rng rng(2024);
    KeyGenerator keygen(*ref_ctx, rng);
    const SecretKey sk = keygen.secretKey();
    const EvalKey evk_mult = keygen.evkMult(sk);
    const EvalKey evk_rot = keygen.evkRotation(sk, 1);

    const size_t slots = params.num_slots;
    Rng msg_rng(7);
    std::vector<Complex> m(slots);
    for (auto &x : m)
        x = Complex(msg_rng.uniformReal() * 2 - 1,
                    msg_rng.uniformReal() * 2 - 1);
    CkksEncoder encoder(*ref_ctx);
    CkksEncryptor encryptor(*ref_ctx, rng);
    Ciphertext ct =
        encryptor.encryptSymmetric(encoder.encode(m, ref_ctx->maxLevel()),
                                   sk);
    ct.slots = slots;

    auto run = [&](const CkksContext &ctx) {
        CkksEvaluator eval(ctx);
        return eval.rescale(
            eval.rotate(eval.mul(ct, ct, evk_mult), 1, evk_rot));
    };
    const Ciphertext want = run(*ref_ctx);

    // Semantic oracle: the cleartext rot(m^2, 1).
    CkksDecryptor decryptor(*ref_ctx, sk);
    const auto got_slots = encoder.decode(decryptor.decrypt(want), slots);
    double max_err = 0;
    for (size_t i = 0; i < slots; ++i) {
        const Complex x = m[(i + 1) % slots];
        max_err = std::max(max_err, std::abs(got_slots[i] - x * x));
    }
    const double bits = -std::log2(max_err);
    std::printf("%s: rot(m^2, 1) precision %.2f bits (floor %.1f)\n",
                oc.name, bits, oc.floor_bits);
    EXPECT_GE(bits, oc.floor_bits) << oc.name << " max error " << max_err;

    // Bit parity of every other engine with the scalar reference.
    for (size_t e = 1; e < engines.size(); ++e) {
        SCOPED_TRACE(engineName(engines[e]));
        auto ctx = makeContext(params, engines[e]);
        const Ciphertext got = run(*ctx);
        EXPECT_EQ(got.level(), want.level());
        EXPECT_EQ(got.scale, want.scale);
        expectSamePoly(want.b, got.b, "b");
        expectSamePoly(want.a, got.a, "a");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Params, EvaluatorOracleTest,
    ::testing::Values(OracleCase{"testTiny", &CkksParams::testTiny, 28.0},
                      OracleCase{"testBoot", &CkksParams::testBoot, 28.0}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace ark
