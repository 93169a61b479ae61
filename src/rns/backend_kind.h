/**
 * @file
 * Backend selector shared by CkksParams and the kernel-backend
 * factory. Lives in its own header so the lightweight params header
 * does not have to pull in the full backend interface.
 */

#pragma once

#include <cstddef>

namespace ark {

/** Which executor x kernel-table combination executes limb-level
 *  compute (rns/backend.h). */
enum class BackendKind {
    Scalar,   ///< serial executor, scalar reference loops
    Parallel, ///< thread-pool executor, scalar reference loops
    Simd,     ///< thread-pool executor, AVX-512/AVX2 kernels (CPUID)
};

inline const char *
backendKindName(BackendKind kind)
{
    static const char *const names[] = {"scalar", "parallel", "simd"};
    return names[static_cast<size_t>(kind)];
}

/** Parse "scalar" / "parallel" / "simd"; false on anything else. */
bool parseBackendKind(const char *name, BackendKind &out);

/** Upper bound accepted for a thread-count knob (sanity guard against
 *  overflowed or wrapped values like ARK_THREADS=-1). */
constexpr size_t kMaxBackendThreads = 4096;

/**
 * Parse a thread count: digits only, <= kMaxBackendThreads (0 means
 * hardware concurrency). Returns false on junk — signs, whitespace,
 * trailing characters, or out-of-range values.
 */
bool parseBackendThreads(const char *s, size_t &out);

/** ARK_BACKEND env override, else @p fallback; exits with a clear
 *  error naming the offending value on junk input. */
BackendKind backendKindFromEnv(BackendKind fallback);

/** ARK_THREADS env override, else @p fallback (0 = hardware); exits
 *  with a clear error naming the offending value on junk input. */
size_t backendThreadsFromEnv(size_t fallback);

} // namespace ark
