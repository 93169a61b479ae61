/**
 * bootstrap: one full Bootstrapper::bootstrap (Min-KS key schedule,
 * OF-Limb plaintexts) of a level-0 ciphertext at a time, on
 * CkksParams::testBoot() (N=2^12, L=20, dnum=3) with the SIMD backend.
 * The boot layer dominates, and the same rns kernels as in paper-ops
 * run on a working set that fits in cache.
 */

#include <memory>
#include <thread>

#include "boot/bootstrapper.h"
#include "ckks/encryptor.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ark;

/** Lowest accepted bootstrap precision. The default configuration
 *  reaches 16.7 bits on one input and 16.1-16.7 as the minimum over
 *  these inputs; the floor leaves 0.6 bits below the lowest. */
constexpr double kPrecisionFloorBits = 15.5;
constexpr size_t kInputs = 4;

struct BootstrapSetup
{
    explicit BootstrapSetup(u64 seed)
        : ctx(params()), key_rng(kKeySeed), rng(seed), encoder(ctx),
          keygen(ctx, key_rng),
          sk(keygen.secretKey()), keys(keygen, sk, ctx.degree()),
          eval(ctx), boot(ctx, encoder, BootConfig{})
    {
        CkksEncryptor encryptor(ctx, rng);
        const size_t slots = ctx.params().num_slots;
        const double delta0 =
            static_cast<double>(ctx.qModuli()[0].value()) /
            boot.config().msg_ratio;
        for (size_t k = 0; k < kInputs; ++k) {
            msgs.push_back(randomSlots(slots, 0.5, seed * 31 + k));
            inputs.push_back(encryptor.encryptSymmetric(
                encoder.encode(msgs.back(), 0, delta0), sk));
            inputs.back().slots = slots;
        }
        // Untimed warm-up: generates every evk the bootstrap touches
        // into the lazy KeyCache and fills the pool and caches.
        (void)boot.bootstrap(eval, inputs[0], keys);
    }

    static CkksParams params()
    {
        CkksParams p = CkksParams::testBoot();
        p.backend = BackendKind::Simd;
        p.backend_threads = std::thread::hardware_concurrency();
        return p;
    }

    CkksContext ctx;
    Rng key_rng;
    Rng rng; ///< encryption noise of the inputs
    CkksEncoder encoder;
    KeyGenerator keygen;
    SecretKey sk;
    KeyCache keys;
    CkksEvaluator eval;
    Bootstrapper boot;
    std::vector<std::vector<Complex>> msgs;
    std::vector<Ciphertext> inputs;
};

/**
 * Trace-only: time the public pieces of one bootstrap (ModRaise and
 * EvalMod) beside whole bootstraps, @p reps times, and record the boot
 * counts and the kernel tallies of one bootstrap.
 */
void
probeBoot(BootstrapSetup &s, int reps, Tracer &tracer, Report &r)
{
    const CkksContext &ctx = s.ctx;
    KernelBackend &kb = ctx.backend();
    const Ciphertext &in = s.inputs[0];

    BootStats bs;
    const u64 misses0 = KeyCache::threadStats().misses;
    const KernelStats before = kb.stats();
    (void)s.boot.bootstrap(s.eval, in, s.keys, &bs);
    const KernelStats delta = statsDelta(kb.stats(), before);
    recordOpCounts("bootstrap", delta, ctx.params(), r);
    r.count("rns.bootstrap.plaintext_words", delta.plaintext_words);
    r.count("boot.evk_miss", KeyCache::threadStats().misses - misses0);
    r.count("boot.rotations", bs.subsum_rotations + bs.hidft.rotations +
                                  bs.hdft.rotations);
    r.count("boot.pmults", bs.hidft.pmults + bs.hdft.pmults);
    r.count("boot.distinct_evks", s.keys.distinctGaloisKeys() + 1);

    // EvalMod runs twice per bootstrap (real and imaginary halves) on
    // a ciphertext one level below the top, after CoeffToSlot.
    const double ratio_inv = 1.0 / s.boot.config().msg_ratio;
    const Ciphertext evalmod_in = CkksEncryptor(ctx, s.rng).encryptSymmetric(
        s.encoder.encode(randomSlots(ctx.params().num_slots, 0.5, 7),
                         ctx.maxLevel() - 1),
        s.sk);
    const EvalKey &mult = s.keys.multiplication();
    for (int rep = 0; rep < reps; ++rep) {
        const u64 op = static_cast<u64>(rep) + 1;
        Span root(tracer, true, "probe", 0, op);
        {
            Span b(tracer, true, "boot.bootstrap", root.id(), op);
            (void)s.boot.bootstrap(s.eval, in, s.keys);
        }
        {
            Span m(tracer, true, "boot.modraise", root.id(), op);
            (void)s.eval.modRaise(in);
        }
        {
            Span e(tracer, true, "boot.evalmod", root.id(), op);
            (void)evalMod(s.eval, evalmod_in, mult, s.boot.config().evalmod,
                          ratio_inv);
        }
    }
}

} // namespace

void
probeBootLayer(u64 seed, Tracer &tracer, Report &r)
{
    BootstrapSetup s(seed);
    probeBoot(s, 1, tracer, r);
}

void
runBootstrap(const Options &opt, Tracer &tracer, Report &r)
{
    const auto s = setUpRepeatedly<BootstrapSetup>(opt.seed, r);
    recordProvenance(s->ctx, r);

    CkksDecryptor decryptor(s->ctx, s->sk);
    const size_t slots = s->ctx.params().num_slots;
    double min_bits = 1e9;
    u64 units = 0, failed = 0;
    double busy_ms = 0;
    timedLoop(opt.seconds, 3, [&](size_t i) {
        const bool traced = opt.trace && i % 2 == 1;
        const u64 op = i + 1;
        Span unit(tracer, traced, "unit", 0, op);
        Span b(tracer, traced, "bootstrap", unit.id(), op);
        const Ciphertext out =
            s->boot.bootstrap(s->eval, s->inputs[i % kInputs], s->keys);
        b.close();
        const double ms = unit.close();
        r.sample("unit_ms", ms);
        busy_ms += ms;
        if (opt.trace)
            r.sample(traced ? "ab_traced_ms" : "ab_untraced_ms", ms);
        const double bits = precisionBits(
            s->encoder.decode(decryptor.decrypt(out), slots),
            s->msgs[i % kInputs]);
        min_bits = std::min(min_bits, bits);
        ++units;
        if (bits < kPrecisionFloorBits)
            ++failed;
    });
    r.value("measured_s", busy_ms / 1e3);
    r.count("attempted", units);
    r.count("ok", units - failed);
    r.count("failed", failed);
    r.value("precision_bits", min_bits);
    r.value("precision_floor_bits", kPrecisionFloorBits);

    if (opt.trace) {
        probeBoot(*s, 3, tracer, r);
        // The rns and ckks layers at the top level of this parameter
        // set, with the bootstrap's own mult and rotation-by-1 keys.
        const Ciphertext top = CkksEncryptor(s->ctx, s->rng).encryptSymmetric(
            s->encoder.encode(s->msgs[0], s->ctx.maxLevel()), s->sk);
        probeLayers(s->eval, s->keys.multiplication(), s->keys.rotation(1),
                    top, 3, tracer, r);
        probeWire(s->ctx, top, 100, tracer);
        probeServeLayers(opt.seed, r);
    }
    r.value("peak_rss_mib", peakRssMiB());
}

} // namespace perfbench
