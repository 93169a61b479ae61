/**
 * @file
 * ARK_BACKEND / ARK_THREADS / ARK_SIMD_TIER environment-knob
 * validation: junk values must be rejected with a clear error (process
 * exit naming the offending value), never silently fall back or wrap —
 * while a VALID tier request the host cannot satisfy (ARK_BACKEND=simd
 * on a machine without that ISA) must clamp to what the CPU supports
 * and keep computing correctly, never abort.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "common/random.h"
#include "rns/backend.h"
#include "rns/backend_kind.h"
#include "rns/cpu_features.h"
#include "rns/primes.h"
#include "serve/batch_server.h"

namespace ark {
namespace {

TEST(EnvConfig, ParseBackendKindAcceptsKnownNames)
{
    BackendKind kind = BackendKind::Parallel;
    EXPECT_TRUE(parseBackendKind("scalar", kind));
    EXPECT_EQ(kind, BackendKind::Scalar);
    EXPECT_TRUE(parseBackendKind("parallel", kind));
    EXPECT_EQ(kind, BackendKind::Parallel);
    EXPECT_TRUE(parseBackendKind("simd", kind));
    EXPECT_EQ(kind, BackendKind::Simd);
}

TEST(EnvConfig, ParseBackendKindRejectsJunk)
{
    BackendKind kind;
    EXPECT_FALSE(parseBackendKind("", kind));
    EXPECT_FALSE(parseBackendKind("Scalar", kind));
    EXPECT_FALSE(parseBackendKind("scalar ", kind));
    EXPECT_FALSE(parseBackendKind("vectorized", kind));
    EXPECT_FALSE(parseBackendKind("parallel,4", kind));
}

TEST(EnvConfig, ParseBackendThreadsAcceptsIntegers)
{
    size_t t = 99;
    EXPECT_TRUE(parseBackendThreads("0", t));
    EXPECT_EQ(t, 0u); // 0 = hardware concurrency
    EXPECT_TRUE(parseBackendThreads("8", t));
    EXPECT_EQ(t, 8u);
    EXPECT_TRUE(parseBackendThreads("4096", t));
    EXPECT_EQ(t, kMaxBackendThreads);
    EXPECT_TRUE(parseBackendThreads("007", t));
    EXPECT_EQ(t, 7u);
}

TEST(EnvConfig, ParseBackendThreadsRejectsJunk)
{
    size_t t = 0;
    EXPECT_FALSE(parseBackendThreads(nullptr, t));
    EXPECT_FALSE(parseBackendThreads("", t));
    EXPECT_FALSE(parseBackendThreads("-1", t)); // strtoul would wrap!
    EXPECT_FALSE(parseBackendThreads("+4", t));
    EXPECT_FALSE(parseBackendThreads(" 4", t));
    EXPECT_FALSE(parseBackendThreads("4 ", t));
    EXPECT_FALSE(parseBackendThreads("4threads", t));
    EXPECT_FALSE(parseBackendThreads("1e3", t));
    EXPECT_FALSE(parseBackendThreads("0x10", t));
    EXPECT_FALSE(parseBackendThreads("4097", t)); // above the cap
    // Would overflow unsigned long: must be rejected, not truncated.
    EXPECT_FALSE(parseBackendThreads("99999999999999999999999", t));
}

TEST(EnvConfig, EnvReadersUseValidValues)
{
    setenv("ARK_BACKEND", "parallel", 1);
    EXPECT_EQ(backendKindFromEnv(BackendKind::Scalar),
              BackendKind::Parallel);
    unsetenv("ARK_BACKEND");
    EXPECT_EQ(backendKindFromEnv(BackendKind::Scalar),
              BackendKind::Scalar);

    setenv("ARK_THREADS", "3", 1);
    EXPECT_EQ(backendThreadsFromEnv(0), 3u);
    unsetenv("ARK_THREADS");
    EXPECT_EQ(backendThreadsFromEnv(5), 5u);
    // Empty counts as unset, not as junk.
    setenv("ARK_THREADS", "", 1);
    EXPECT_EQ(backendThreadsFromEnv(2), 2u);
    unsetenv("ARK_THREADS");
}

TEST(EnvConfigDeathTest, JunkBackendExitsWithClearError)
{
    setenv("ARK_BACKEND", "vectorized", 1);
    EXPECT_EXIT((void)backendKindFromEnv(BackendKind::Scalar),
                ::testing::ExitedWithCode(1),
                "invalid ARK_BACKEND 'vectorized'");
    unsetenv("ARK_BACKEND");
}

TEST(EnvConfigDeathTest, JunkThreadsExitsWithClearError)
{
    setenv("ARK_THREADS", "-1", 1);
    EXPECT_EXIT((void)backendThreadsFromEnv(0),
                ::testing::ExitedWithCode(1),
                "invalid ARK_THREADS '-1'");
    unsetenv("ARK_THREADS");
}

TEST(EnvConfig, ParseSimdTierAcceptsKnownNames)
{
    SimdTier tier = SimdTier::Avx512;
    EXPECT_TRUE(parseSimdTier("scalar", tier));
    EXPECT_EQ(tier, SimdTier::Scalar);
    EXPECT_TRUE(parseSimdTier("neon", tier));
    EXPECT_EQ(tier, SimdTier::Neon);
    EXPECT_TRUE(parseSimdTier("avx2", tier));
    EXPECT_EQ(tier, SimdTier::Avx2);
    EXPECT_TRUE(parseSimdTier("avx512", tier));
    EXPECT_EQ(tier, SimdTier::Avx512);
}

TEST(EnvConfig, ParseSimdTierRejectsJunk)
{
    SimdTier tier;
    EXPECT_FALSE(parseSimdTier(nullptr, tier));
    EXPECT_FALSE(parseSimdTier("", tier));
    EXPECT_FALSE(parseSimdTier("AVX2", tier));
    EXPECT_FALSE(parseSimdTier("avx2 ", tier));
    EXPECT_FALSE(parseSimdTier("avx-512", tier));
    EXPECT_FALSE(parseSimdTier("sse", tier));
}

TEST(EnvConfig, SimdTierEnvReaderUsesValidValues)
{
    setenv("ARK_SIMD_TIER", "avx2", 1);
    EXPECT_EQ(simdTierFromEnv(SimdTier::Avx512), SimdTier::Avx2);
    unsetenv("ARK_SIMD_TIER");
    EXPECT_EQ(simdTierFromEnv(SimdTier::Avx512), SimdTier::Avx512);
    // Empty counts as unset, not as junk.
    setenv("ARK_SIMD_TIER", "", 1);
    EXPECT_EQ(simdTierFromEnv(SimdTier::Scalar), SimdTier::Scalar);
    unsetenv("ARK_SIMD_TIER");
}

TEST(EnvConfigDeathTest, JunkSimdTierExitsWithClearError)
{
    setenv("ARK_SIMD_TIER", "turbo", 1);
    EXPECT_EXIT((void)simdTierFromEnv(SimdTier::Avx512),
                ::testing::ExitedWithCode(1),
                "invalid ARK_SIMD_TIER 'turbo'");
    unsetenv("ARK_SIMD_TIER");
}

/**
 * Requesting the simd backend never aborts, whatever the host CPU: the
 * tier clamps to what CPUID reports (so ARK_BACKEND=simd on a
 * no-AVX machine silently degrades to the scalar kernels), and the
 * clamped backend still computes bit-correct NTTs. The capped requests
 * below emulate progressively weaker hosts; each must come back at or
 * below both the cap and the detected tier, and match the scalar
 * backend bit for bit.
 */
TEST(EnvConfig, SimdBackendClampsToHostAndStaysCorrect)
{
    const size_t degree = 512;
    auto qs = generatePrimes(45, 1, degree);
    NttTables tables(degree, Modulus(qs[0]));
    std::vector<const NttTables *> tp{&tables};
    Rng rng(7);
    RnsPoly ref(degree, 1, Rep::Coeff);
    auto v = rng.uniformVector(degree, qs[0]);
    std::copy(v.begin(), v.end(), ref.limb(0));
    KernelBackend scalar;
    RnsPoly want = ref;
    scalar.nttForward(want, tp);

    for (SimdTier cap : {SimdTier::Scalar, SimdTier::Neon,
                         SimdTier::Avx2, SimdTier::Avx512}) {
        SCOPED_TRACE(simdTierName(cap));
        KernelBackend be(BackendKind::Simd, 1, cap);
        EXPECT_LE(static_cast<int>(be.tier()), static_cast<int>(cap));
        EXPECT_LE(static_cast<int>(be.tier()),
                  static_cast<int>(detectSimdTier()));
        RnsPoly got = ref;
        be.nttForward(got, tp);
        for (size_t i = 0; i < degree; ++i)
            ASSERT_EQ(got.limb(0)[i], want.limb(0)[i]) << "i=" << i;
    }

    // The forced-fallback path spelled the way a user would: the env
    // caps the tier below what the backend asks for.
    setenv("ARK_SIMD_TIER", "scalar", 1);
    KernelBackend forced(BackendKind::Simd, 1, SimdTier::Avx512);
    EXPECT_EQ(forced.tier(), SimdTier::Scalar);
    unsetenv("ARK_SIMD_TIER");
    RnsPoly got = ref;
    forced.nttForward(got, tp);
    for (size_t i = 0; i < degree; ++i)
        ASSERT_EQ(got.limb(0)[i], want.limb(0)[i]) << "i=" << i;
}

// Serving front-end knobs (docs/configuration.md): same discipline as
// the kernel knobs — valid values apply, junk is fatal and names the
// offending value, absent variables leave the config untouched.

TEST(EnvConfig, ServeConfigHonorsEnvOverrides)
{
    unsetenv("ARK_LISTEN_ADDR");
    unsetenv("ARK_LISTEN_PORT");
    unsetenv("ARK_MAX_SESSIONS");
    unsetenv("ARK_MAX_FRAME_MIB");

    const BatchServerConfig defaults = serveConfigFromEnv();
    EXPECT_EQ(defaults.listen_addr, "127.0.0.1");
    EXPECT_EQ(defaults.listen_port, 0);
    EXPECT_EQ(defaults.max_sessions, 8u);
    EXPECT_EQ(defaults.max_frame_bytes, 256ull * 1024 * 1024);

    setenv("ARK_LISTEN_ADDR", "0.0.0.0", 1);
    setenv("ARK_LISTEN_PORT", "19184", 1);
    setenv("ARK_MAX_SESSIONS", "3", 1);
    setenv("ARK_MAX_FRAME_MIB", "64", 1);
    const BatchServerConfig cfg = serveConfigFromEnv();
    EXPECT_EQ(cfg.listen_addr, "0.0.0.0");
    EXPECT_EQ(cfg.listen_port, 19184);
    EXPECT_EQ(cfg.max_sessions, 3u);
    EXPECT_EQ(cfg.max_frame_bytes, 64ull * 1024 * 1024);
    unsetenv("ARK_LISTEN_ADDR");
    unsetenv("ARK_LISTEN_PORT");
    unsetenv("ARK_MAX_SESSIONS");
    unsetenv("ARK_MAX_FRAME_MIB");
}

TEST(EnvConfigDeathTest, JunkListenPortExitsWithClearError)
{
    setenv("ARK_LISTEN_PORT", "70000", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_LISTEN_PORT '70000'");
    setenv("ARK_LISTEN_PORT", "-1", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_LISTEN_PORT '-1'");
    unsetenv("ARK_LISTEN_PORT");
}

TEST(EnvConfigDeathTest, JunkMaxSessionsExitsWithClearError)
{
    setenv("ARK_MAX_SESSIONS", "0", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_MAX_SESSIONS '0'");
    setenv("ARK_MAX_SESSIONS", "lots", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_MAX_SESSIONS 'lots'");
    unsetenv("ARK_MAX_SESSIONS");
}

TEST(EnvConfigDeathTest, JunkMaxFrameMibExitsWithClearError)
{
    setenv("ARK_MAX_FRAME_MIB", "1.5", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_MAX_FRAME_MIB '1.5'");
    unsetenv("ARK_MAX_FRAME_MIB");
}

TEST(EnvConfig, EmptyServeEnvValuesCountAsUnset)
{
    // Matches the ARK_BACKEND convention: FOO= is the same as no FOO.
    setenv("ARK_LISTEN_ADDR", "", 1);
    setenv("ARK_LISTEN_PORT", "", 1);
    setenv("ARK_MAX_SESSIONS", "", 1);
    setenv("ARK_MAX_FRAME_MIB", "", 1);
    const BatchServerConfig cfg = serveConfigFromEnv();
    EXPECT_EQ(cfg.listen_addr, "127.0.0.1");
    EXPECT_EQ(cfg.listen_port, 0);
    EXPECT_EQ(cfg.max_sessions, 8u);
    EXPECT_EQ(cfg.max_frame_bytes, 256ull * 1024 * 1024);
    unsetenv("ARK_LISTEN_ADDR");
    unsetenv("ARK_LISTEN_PORT");
    unsetenv("ARK_MAX_SESSIONS");
    unsetenv("ARK_MAX_FRAME_MIB");
}

} // namespace
} // namespace ark
