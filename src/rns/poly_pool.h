/**
 * @file
 * Thread-safe free-list pool for RnsPoly backing buffers.
 *
 * Every hot CKKS op churns through short-lived (limbs x N) temporaries
 * — key-switch digits, BConv outputs and scratch, automorphism
 * results. Allocating each one fresh pays a heap round-trip plus an
 * O(N * limbs) zero-fill per op. The pool recycles those buffers by
 * (degree, limb count): acquire() hands back a poly whose words are
 * UNSPECIFIED (stale contents of the previous user), which is safe
 * exactly when every word is overwritten before being read — the
 * contract all pooled call sites in rns/backend.cpp and
 * ckks/evaluator.cpp uphold. Accumulators that are read-modify-written
 * use acquireZeroed() instead.
 *
 * Lifetime rules (see docs/architecture.md):
 *  - release() may only be called on polys whose words this pool (or
 *    a plain constructor) produced and that no other reference aliases;
 *    after release the poly is empty and must not be used.
 *  - A poly acquired from the pool is a normal value: letting it
 *    destruct (e.g. escaping into a user-held Ciphertext) is always
 *    correct, it just returns the buffer to the heap instead of the
 *    pool.
 *  - The pool may be shared by any number of threads (the serving
 *    runtime's workers share one context/backend); all methods are
 *    mutex-guarded, and the critical sections move only pointers.
 *
 * Internally the free lists are striped: each thread is pinned to one
 * of kStripes stripes (a thread-local ticket, round-robin), so the
 * workers of a serving pool park and reclaim their temporaries on
 * disjoint mutexes instead of serializing on one. An acquire that
 * misses its own stripe steals from the others (one lock at a time,
 * never nested) before falling back to the heap, so buffers released
 * by another thread are still recycled.
 *
 * Every stripe has the same retention caps: a word budget (32 MiB by
 * default) and a buffer count per (degree, limbs) key. A scheme op
 * acquires and releases all its temporaries on the calling thread, so
 * one stripe must hold a whole op's working set for the next op to
 * recycle it. The owner sizes that with reserve(): a CkksContext
 * raises its backend's caps to one top-level key switch (the digits,
 * two accumulators, and the level-sized tensor and ModDown polys),
 * which at CkksParams::ark() is 153 MiB per stripe; smaller
 * parameter sets keep the 32 MiB floor. Releases beyond the caps free
 * to the heap.
 */

#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "rns/poly.h"

namespace ark {

/** Free-list recycler of RnsPoly buffers keyed by (degree, limbs). */
class PolyPool
{
  public:
    PolyPool() = default;
    PolyPool(const PolyPool &) = delete;
    PolyPool &operator=(const PolyPool &) = delete;

    /**
     * A (degree x limbs) poly whose word contents are UNSPECIFIED
     * (zero when freshly allocated, stale when recycled). Callers must
     * overwrite every word before reading any.
     */
    RnsPoly acquire(size_t degree, size_t limbs, Rep rep);

    /** Like acquire but with every word cleared (for accumulators). */
    RnsPoly acquireZeroed(size_t degree, size_t limbs, Rep rep);

    /** Return @p p 's buffer to the free list; @p p becomes empty. */
    void release(RnsPoly &&p);

    /** Recycling tallies (for tests and the micro-kernel bench). */
    struct Stats
    {
        u64 hits = 0;     ///< acquires served from the free list
        u64 misses = 0;   ///< acquires that had to heap-allocate
        u64 released = 0; ///< buffers returned (dropped ones included)
        size_t cached_buffers = 0; ///< buffers currently pooled
        size_t cached_words = 0;   ///< words currently pooled
    };
    Stats stats() const;

    /** Drop every cached buffer (memory back to the heap). */
    void trim();

    /**
     * Raise each stripe's retention caps to at least @p words words
     * and @p per_key buffers per shape; never lowers them. Call before
     * the pool is shared across threads.
     */
    void reserve(size_t words, size_t per_key);

    /** Default per-stripe word budget (32 MiB), the floor reserve()
     *  raises from. Long-running servers churn through many shapes as
     *  workloads change level; the byte budget keeps cached memory
     *  from ratcheting up by shape. */
    static constexpr size_t kStripeWords = (size_t(32) << 20) / sizeof(u64);

    /**
     * Process-wide pool used by callers without a backend of their own
     * (the BaseConverter compatibility stages, standalone tools).
     * Backends own private pools so contexts do not contend.
     */
    static PolyPool &process();

  private:
    /** Free-list stripes; a power of two so the thread ticket maps on
     *  with a mask. Eight comfortably spreads the serving runtime's
     *  worker counts without bloating the idle pool. */
    static constexpr size_t kStripes = 8;
    /** Default buffers pooled per (degree, limbs) key and stripe
     *  beyond which release() frees instead of caching: bounds
     *  per-shape retention of small polys, whose word budget alone
     *  would let thousands pile up. */
    static constexpr size_t kStripePerKey = 8;

    struct Stripe
    {
        mutable std::mutex m;
        std::map<std::pair<size_t, size_t>,
                 std::vector<std::vector<u64>>>
            free;
        size_t cached_words = 0;
        u64 hits = 0;
        u64 misses = 0;
        u64 released = 0;
    };

    /** Pop a cached buffer of @p key shape off @p s, if any. */
    static bool popFrom(Stripe &s, std::pair<size_t, size_t> key,
                        std::vector<u64> &buf);

    size_t stripe_words_ = kStripeWords;
    size_t stripe_per_key_ = kStripePerKey;
    std::array<Stripe, kStripes> stripes_;
};

} // namespace ark
