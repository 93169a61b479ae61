/**
 * @file
 * Pluggable kernel-backend layer: every limb-level kernel of the
 * library — element-wise limb ops, (I)NTT, BConv, automorphism, the
 * evk MAC, the fused INTT->BConv->NTT key-switch digit path (Alg. 1),
 * and the element-wise tails fused into an op's last pass (HMult's
 * tensor, embed -> NTT, the ModDown and rescale sub-mul tail) —
 * executes behind this interface.
 *
 * The scheme layers (ckks/, boot/) never touch kernel loops directly;
 * they dispatch through the KernelBackend owned by their CkksContext.
 * That seam is what lets the same scheme code run on any executor x
 * kernel-table combination, and it is where per-kernel invocation
 * counts and word-traffic tallies (KernelStats) are recorded for
 * core/traffic_analyzer and sim/simulator to consume.
 *
 * Every combination is bit-identical to the serial scalar reference:
 * the executor only decides which thread runs each independent job,
 * and the vector kernel tables apply the same exact integer arithmetic
 * lane-wise (tests/test_backend_parity.cpp enforces both).
 */

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "rns/automorphism.h"
#include "rns/backend_kind.h"
#include "rns/bconv.h"
#include "rns/cpu_features.h"
#include "rns/kernel_stats.h"
#include "rns/ntt.h"
#include "rns/poly.h"
#include "rns/poly_pool.h"
#include "rns/simd_kernels.h"

namespace ark {

class ThreadPool;

/**
 * Engine executing all limb-level kernels; owned by a CkksContext.
 *
 * One engine is an executor crossed with a kernel table. The executor
 * is serial or a work-stealing thread pool (common/thread_pool.h); the
 * table holds the per-job NTT, BConv-tile and evk-MAC bodies: the
 * scalar reference loops, or the avx2 / avx512 vector kernels
 * (rns/simd_kernels.h) dispatched from CPUID. Every kernel call splits
 * into independent jobs (one per limb row, or one per BConv
 * coefficient tile) of known size, and the pool fans a call out only
 * when jobs x words per job reaches kGrainWords, so small rings never
 * pay more dispatch latency than work.
 */
class KernelBackend
{
  public:
    /** Smallest call (jobs x words per job) the pool fans out: an
     *  N = 2^10 ciphertext's kernels (at most six 1024-word limbs)
     *  stay serial, every N >= 2^12 kernel of 4+ limbs is parallel. */
    static constexpr size_t kGrainWords = size_t(1) << 14;

    /**
     * @param kind the shipped combination to build: Scalar = serial x
     *     scalar table, Parallel = pool x scalar table, Simd = pool x
     *     the best vector table the host runs.
     * @param threads total threads of the pool executor, the caller
     *     included (0 = hardware concurrency; 1 = serial). Ignored for
     *     Scalar.
     * @param max_tier cap on the Simd kernel table, further clamped by
     *     ARK_SIMD_TIER and the host (tests pin a code path with it).
     */
    explicit KernelBackend(BackendKind kind = BackendKind::Scalar,
                           size_t threads = 1,
                           SimdTier max_tier = SimdTier::Avx512);
    ~KernelBackend();

    const char *name() const { return backendKindName(kind_); }
    BackendKind kind() const { return kind_; }
    /** Threads a kernel call may use, the caller included (1 = serial). */
    size_t threads() const { return threads_; }
    /** ISA tier of the kernel table (Scalar for the reference loops). */
    SimdTier tier() const { return kernels_.tier; }
    /// @name Element-wise limb kernels
    /// @{
    void add(const RnsPoly &a, const RnsPoly &b,
             const std::vector<Modulus> &moduli, RnsPoly &r);
    void sub(const RnsPoly &a, const RnsPoly &b,
             const std::vector<Modulus> &moduli, RnsPoly &r);
    void neg(const RnsPoly &a, const std::vector<Modulus> &moduli,
             RnsPoly &r);
    void mulEval(const RnsPoly &a, const RnsPoly &b,
                 const std::vector<Modulus> &moduli, RnsPoly &r);
    void mulAccEval(const RnsPoly &a, const RnsPoly &b,
                    const std::vector<Modulus> &moduli, RnsPoly &r);
    void mulScalar(const RnsPoly &a,
                   const std::vector<u64> &scalar_per_limb,
                   const std::vector<Modulus> &moduli, RnsPoly &r);
    void addScalar(const RnsPoly &a,
                   const std::vector<u64> &scalar_per_limb,
                   const std::vector<Modulus> &moduli, RnsPoly &r);
    /**
     * The tensor step of HMult in one pass over the four operands
     * (Eval rep): d0 = b1*b2, d1 = a1*b2 + a2*b1, d2 = a1*a2.
     */
    void tensor(const RnsPoly &b1, const RnsPoly &a1, const RnsPoly &b2,
                const RnsPoly &a2, const std::vector<Modulus> &moduli,
                RnsPoly &d0, RnsPoly &d1, RnsPoly &d2);
    /** Negacyclic multiply by X^shift (Coeff rep; mulByI uses N/2). */
    void monomialMul(const RnsPoly &a, size_t shift,
                     const std::vector<Modulus> &moduli, RnsPoly &r);
    /**
     * One key-switch MAC (Alg. 2 line 5, the MADU inner loop):
     * acc_b += digit * evk_b, acc_a += digit * evk_a, where the evk
     * polys span the full [q_0..q_L, p_*] basis and the digit spans
     * [q_0..q_level, p_*]; @p nq = level+1, @p full_nq = L+1 select
     * the matching evk limb. With @p accumulate false the products
     * overwrite the accumulators instead (the first digit), so they
     * need no clearing. Also tallies the evk operand stream.
     */
    void evkMulAcc(const RnsPoly &digit, const RnsPoly &evk_b,
                   const RnsPoly &evk_a, size_t nq, size_t full_nq,
                   const std::vector<Modulus> &key_moduli,
                   RnsPoly &acc_b, RnsPoly &acc_a, bool accumulate = true);
    /// @}

    /**
     * Element-wise tail a fused kernel applies to each output row v
     * right after forward-NTTing it, while the row is still in cache:
     * v = (minuend - v) * scalar, then v = addend + v when @c addend
     * is non-empty. That is the ModDown-by-P and rescale division,
     * optionally followed by the HMult / HRot add. Entry i pairs with
     * output row i; the modulus is that row's NTT table's.
     */
    struct SubMulTail
    {
        std::vector<const u64 *> minuend;
        std::vector<u64> scalars;
        std::vector<const u64 *> addend;
    };

    /// @name NTT kernels
    /// @{
    void nttForward(RnsPoly &p, const std::vector<NttTables> &tables);
    void nttInverse(RnsPoly &p, const std::vector<NttTables> &tables);
    /** Per-limb table selection (extended/key polys, digit slices). */
    void nttForward(RnsPoly &p,
                    const std::vector<const NttTables *> &tables);
    void nttInverse(RnsPoly &p,
                    const std::vector<const NttTables *> &tables);
    /** Single detached limb (rescale / ModRaise bookkeeping). */
    void nttForwardLimb(u64 *limb, const NttTables &table);
    void nttInverseLimb(u64 *limb, const NttTables &table);
    /**
     * Runtime limb generation fused with its forward NTT: extend the
     * centered residues @p src mod @p src_q (degree words, Coeff rep;
     * values above src_q/2 embed as negative) into every limb of
     * @p out, forward-NTT each limb with @p tables in the same job and
     * apply @p tail if given. This is ModRaise, OF-Limb plaintext
     * generation (Eq. 12) and, with the tail, rescale. @p out becomes
     * Eval rep.
     */
    void embedNtt(const u64 *src, const Modulus &src_q,
                  const std::vector<const NttTables *> &tables,
                  RnsPoly &out, const SubMulTail *tail = nullptr);
    /// @}

    /// @name Base conversion and automorphism
    /// @{
    /** BConv @p in (Coeff rep over bc.inBase()) to bc.outBase(). */
    RnsPoly bconv(const BaseConverter &bc, const RnsPoly &in);
    /** Apply @p am to every limb of @p p (either representation). */
    RnsPoly automorphism(const Automorphism &am, const RnsPoly &p,
                         const std::vector<Modulus> &moduli);
    /**
     * Fused key-switch digit path (Alg. 1): INTT the Eval-rep digit
     * with @p in_tables, base-convert through @p bc, and forward-NTT
     * each output limb with @p out_tables — one pipelined call with a
     * single scratch buffer instead of three materialized
     * intermediates. Returns the converted limbs in Eval rep.
     */
    RnsPoly nttBconvNtt(const RnsPoly &digit,
                        const std::vector<const NttTables *> &in_tables,
                        const BaseConverter &bc,
                        const std::vector<const NttTables *> &out_tables);
    /**
     * Copy-free form of the fused digit path: reads the Eval-rep digit
     * limbs in place through @p digit_rows (one per in-base prime,
     * left unmodified) and writes each converted Eval-rep limb straight
     * into @p out_rows (one per out-base prime), e.g. the missing limbs
     * of an extended poly. Rows hold in_tables[0]->degree() words.
     * @p tail, if given, runs on each output row after its NTT (the
     * ModDown division).
     */
    void nttBconvNtt(const std::vector<const u64 *> &digit_rows,
                     const std::vector<const NttTables *> &in_tables,
                     const BaseConverter &bc,
                     const std::vector<const NttTables *> &out_tables,
                     const std::vector<u64 *> &out_rows,
                     const SubMulTail *tail = nullptr);
    /// @}

    /// @name Limb movement
    /// Copies the scheme layers cannot avoid, run through the executor
    /// (untallied: KernelStats counts modular arithmetic only).
    /// @{
    /** dst limbs [dst_lo, dst_lo + count) = src limbs [src_lo, ...). */
    void copyLimbs(const RnsPoly &src, size_t src_lo, RnsPoly &dst,
                   size_t dst_lo, size_t count);
    /// @}

    /// @name Measured execution tallies
    /// @{
    /**
     * Merged snapshot of every caller thread's tally shard. Kernels
     * record into a per-thread shard (no shared-counter contention and
     * no data race under concurrent callers); stats() sums the shards
     * on demand. The snapshot is exact when no kernel is in flight —
     * drain callers first, as the serving runtime does.
     */
    KernelStats stats() const;
    void resetStats();
    /** Operand-stream traffic noted by scheme layers (PlaintextStore). */
    void notePlaintextWords(u64 words);
    /// @}

    /**
     * The backend's buffer recycler. Allocating kernels (bconv,
     * automorphism, nttBconvNtt) draw their outputs and scratch from
     * it, and scheme layers (ckks/evaluator.cpp) route their
     * fully-overwritten temporaries through it; see rns/poly_pool.h
     * for the stale-contents contract. Thread-safe, shared by every
     * thread dispatching through this backend.
     */
    PolyPool &pool() { return pool_; }

  private:
    /**
     * Execute @p jobs independent jobs of about @p job_words words
     * each: serially on the caller, or fanned out over the pool when
     * the call reaches kGrainWords.
     */
    void run(size_t jobs, size_t job_words,
             const std::function<void(size_t)> &fn) const;

    /// @name Per-job kernel bodies
    /// The innermost bodies every NTT / BConv job executes (evkMulAcc
    /// inlines its own): the kernel table's vector code when it has an
    /// entry for the call, the reference scalar loop otherwise
    /// (bit-identical either way). Element-wise kernels have no table
    /// entry: they are memory-bound and the compiler already
    /// vectorizes their loops.
    /// @{
    /** One limb of the lazy forward NTT (in place). */
    void nttForwardLimbKernel(u64 *limb, const NttTables &table) const;
    /** One limb of the lazy inverse NTT (in place). */
    void nttInverseLimbKernel(u64 *limb, const NttTables &table) const;
    /** One fused BConv scale+MAC tile (convertTile contract). */
    void bconvTileKernel(const BaseConverter &bc, const u64 *const *in,
                         size_t c0, size_t c1, u64 *scratch,
                         u64 *const *out) const;
    /// @}

    /** Tally one kernel call into the calling thread's shard. */
    void recordStats(KernelOp op, u64 limbs, u64 words, u64 mults);
    /** Tally evk operand-stream words (EvkMulAcc). */
    void noteEvkWords(u64 words);

    struct StatsShard;
    /** The calling thread's shard for this backend instance
     *  (registered on first use, found via a thread-local cache). */
    StatsShard &shard() const;

    /** Process-unique instance id keying the thread-local shard cache
     *  (never reused, so a stale cache entry for a destroyed backend
     *  can never alias a live one). */
    const u64 instance_id_;
    mutable std::mutex shards_m_;
    mutable std::vector<std::unique_ptr<StatsShard>> shards_;
    PolyPool pool_;
    const BackendKind kind_;
    const SimdKernels &kernels_;
    const size_t threads_;
    /** The pool executor; null for the serial one. */
    std::unique_ptr<ThreadPool> exec_;
};

/** The simd engine's former class name: code that casts a backend to
 *  it to read tier() keeps compiling (every engine reports tier()). */
using SimdBackend = KernelBackend;

/** Build a backend of @p kind (@p num_threads: total threads,
 *  0 = hardware concurrency). */
std::unique_ptr<KernelBackend> makeKernelBackend(BackendKind kind,
                                                 size_t num_threads = 0);

/**
 * Process-wide backend used by the RnsPoly free-function wrappers
 * (callers without a CkksContext). Selected by ARK_BACKEND /
 * ARK_THREADS at first use; defaults to the scalar engine.
 */
KernelBackend &processBackend();

} // namespace ark
