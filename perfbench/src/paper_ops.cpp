/**
 * paper-ops: HMult, then HRot(r=1), then rescale, one op at a time at
 * the top level of CkksParams::ark() (N=2^16, L=23, dnum=4) on the
 * SIMD backend. A ciphertext is 25 MB and the mult evk about 126 MB,
 * more than the last-level cache, so the rns and ckks layers do almost
 * all the work and memory traffic shows.
 */

#include <memory>
#include <thread>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ark;

/** Lowest accepted -log2(max slot error) of rot(m^2, 1). */
constexpr double kPrecisionFloorBits = 30.0;
constexpr size_t kInputs = 2;

struct PaperOpsSetup
{
    explicit PaperOpsSetup(u64 seed)
        : ctx(params()), key_rng(kKeySeed), encoder(ctx),
          keygen(ctx, key_rng),
          sk(keygen.secretKey()), mult(keygen.evkMult(sk)),
          rot1(keygen.evkRotation(sk, 1)), eval(ctx)
    {
        Rng input_rng(seed);
        CkksEncryptor encryptor(ctx, input_rng);
        const size_t slots = ctx.params().num_slots;
        for (size_t k = 0; k < kInputs; ++k) {
            msgs.push_back(randomSlots(slots, 1.0, seed * 31 + k));
            inputs.push_back(encryptor.encryptSymmetric(
                encoder.encode(msgs.back(), ctx.maxLevel()), sk));
        }
        // Untimed warm-up: fills the poly pool and the context's
        // automorphism and BConv caches.
        (void)eval.rescale(
            eval.rotate(eval.mul(inputs[0], inputs[0], mult), 1, rot1));
    }

    static CkksParams params()
    {
        CkksParams p = CkksParams::ark();
        p.backend = BackendKind::Simd;
        p.backend_threads = std::thread::hardware_concurrency();
        return p;
    }

    CkksContext ctx;
    Rng key_rng;
    CkksEncoder encoder;
    KeyGenerator keygen;
    SecretKey sk;
    EvalKey mult, rot1;
    CkksEvaluator eval;
    std::vector<std::vector<Complex>> msgs;
    std::vector<Ciphertext> inputs;
};

} // namespace

void
runPaperOps(const Options &opt, Tracer &tracer, Report &r)
{
    const auto s = setUpRepeatedly<PaperOpsSetup>(opt.seed, r);
    recordProvenance(s->ctx, r);

    std::vector<std::vector<Complex>> want;
    for (const auto &m : s->msgs) {
        std::vector<Complex> sq(m.size());
        for (size_t i = 0; i < m.size(); ++i)
            sq[i] = m[i] * m[i];
        want.push_back(rotateSlots(sq, 1));
    }
    CkksDecryptor decryptor(s->ctx, s->sk);
    const size_t slots = s->ctx.params().num_slots;

    double min_bits = 1e9;
    u64 units = 0, failed = 0;
    double busy_ms = 0;
    timedLoop(opt.seconds, 3, [&](size_t i) {
        const Ciphertext &in = s->inputs[i % kInputs];
        const bool traced = opt.trace && i % 2 == 1;
        const u64 op = i + 1;
        Ciphertext z;
        {
            Span unit(tracer, traced, "unit", 0, op);
            Span a(tracer, traced, "hmult", unit.id(), op);
            Ciphertext x = s->eval.mul(in, in, s->mult);
            r.sample("hmult_ms", a.close());
            Span b(tracer, traced, "hrot", unit.id(), op);
            Ciphertext y = s->eval.rotate(x, 1, s->rot1);
            r.sample("hrot_ms", b.close());
            Span c(tracer, traced, "rescale", unit.id(), op);
            z = s->eval.rescale(y);
            r.sample("rescale_ms", c.close());
            const double ms = unit.close();
            r.sample("unit_ms", ms);
            busy_ms += ms;
            if (opt.trace)
                r.sample(traced ? "ab_traced_ms" : "ab_untraced_ms", ms);
        }
        const double bits = precisionBits(
            s->encoder.decode(decryptor.decrypt(z), slots),
            want[i % kInputs]);
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
        probeLayers(s->eval, s->mult, s->rot1, s->inputs[0], 3, tracer, r);
        probeWire(s->ctx, s->inputs[0], 10, tracer);
        probeBootLayer(opt.seed, tracer, r);
        probeServeLayers(opt.seed, r);
    }
    r.value("peak_rss_mib", peakRssMiB());
}

} // namespace perfbench
