#include "rns/cpu_features.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace ark {

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
      case SimdTier::Scalar:
        return "scalar";
      case SimdTier::Neon:
        return "neon";
      case SimdTier::Avx2:
        return "avx2";
      case SimdTier::Avx512:
        return "avx512";
    }
    return "scalar";
}

bool
parseSimdTier(const char *name, SimdTier &out)
{
    if (name == nullptr)
        return false;
    if (std::strcmp(name, "scalar") == 0) {
        out = SimdTier::Scalar;
        return true;
    }
    if (std::strcmp(name, "neon") == 0) {
        out = SimdTier::Neon;
        return true;
    }
    if (std::strcmp(name, "avx2") == 0) {
        out = SimdTier::Avx2;
        return true;
    }
    if (std::strcmp(name, "avx512") == 0) {
        out = SimdTier::Avx512;
        return true;
    }
    return false;
}

namespace {

SimdTier
probeSimdTier()
{
#if (defined(__x86_64__) || defined(__i386__)) &&                        \
    (defined(__GNUC__) || defined(__clang__))
    // The AVX-512 kernels use vpmullq, so the tier needs DQ on top of
    // F. Every AVX-512 server part since Skylake-SP ships both; the
    // F-only Xeon Phi line drops to the AVX2 kernels.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))
        return SimdTier::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return SimdTier::Avx2;
    return SimdTier::Scalar;
#elif defined(__aarch64__)
    // AdvSIMD is architecturally mandatory on aarch64; the tier exists
    // so the dispatch seam is in place, but the kernels are a stub
    // (null entries -> scalar loops) until someone writes them.
    return SimdTier::Neon;
#else
    return SimdTier::Scalar;
#endif
}

} // namespace

SimdTier
detectSimdTier()
{
    static const SimdTier tier = probeSimdTier();
    return tier;
}

SimdTier
simdTierFromEnv(SimdTier fallback)
{
    const char *env = std::getenv("ARK_SIMD_TIER");
    if (env == nullptr || *env == '\0')
        return fallback;
    SimdTier tier;
    if (!parseSimdTier(env, tier)) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "invalid ARK_SIMD_TIER '%s' (expected 'scalar', "
                      "'neon', 'avx2', or 'avx512')",
                      env);
        ARK_FATAL(msg);
    }
    return tier;
}

SimdTier
dispatchedSimdTier(SimdTier cap)
{
    return std::min(simdTierFromEnv(cap), detectSimdTier());
}

std::string
cpuFeatureString()
{
    std::string out;
#if (defined(__x86_64__) || defined(__i386__)) &&                        \
    (defined(__GNUC__) || defined(__clang__))
    struct Probe
    {
        const char *name;
        bool present;
    };
    const Probe probes[] = {
        {"sse4.2", static_cast<bool>(__builtin_cpu_supports("sse4.2"))},
        {"avx", static_cast<bool>(__builtin_cpu_supports("avx"))},
        {"avx2", static_cast<bool>(__builtin_cpu_supports("avx2"))},
        {"avx512f", static_cast<bool>(__builtin_cpu_supports("avx512f"))},
        {"avx512dq",
         static_cast<bool>(__builtin_cpu_supports("avx512dq"))},
        {"avx512vl",
         static_cast<bool>(__builtin_cpu_supports("avx512vl"))},
    };
    for (const Probe &p : probes) {
        if (!p.present)
            continue;
        if (!out.empty())
            out += ' ';
        out += p.name;
    }
#elif defined(__aarch64__)
    out = "neon";
#endif
    if (out.empty())
        out = "none";
    return out;
}

} // namespace ark
