/**
 * @file
 * The benchmark's workloads. Each one sets itself up several times
 * (setup_s is the median), runs its timed loop for the requested
 * seconds, checks its outputs, and, in a traced run, also probes the
 * rns and ckks layers at the shapes its own HE ops use.
 */

#pragma once

#include <memory>

#include "ckks/evaluator.h"
#include "harness.h"

namespace perfbench {

/** Setups per run; setup_s reports their median. */
constexpr int kSetupRepeats = 3;

/**
 * Construct a workload's set-up @p T from @p seed kSetupRepeats times,
 * each after destroying the previous one, and record every duration as
 * a setup_s sample; the first is timed from process start. Returns the
 * last set-up.
 */
template <class T>
std::unique_ptr<T>
setUpRepeatedly(ark::u64 seed, Report &r)
{
    std::unique_ptr<T> s;
    Clock::time_point t0 = processStart();
    for (int k = 0; k < kSetupRepeats; ++k) {
        s.reset();
        s = std::make_unique<T>(seed);
        const Clock::time_point t1 = Clock::now();
        r.sample("setup_s", msBetween(t0, t1) / 1e3);
        t0 = t1;
    }
    return s;
}

void runPaperOps(const Options &opt, Tracer &tracer, Report &r);
void runBootstrap(const Options &opt, Tracer &tracer, Report &r);
/** @p saturated: closed loop (serve-saturated) instead of open loop. */
void runServing(const Options &opt, bool saturated, Tracer &tracer,
                Report &r);

/**
 * Time the public rns kernels and ckks key-switch stages at the shapes
 * an HMult of @p ct uses, plus one HMult and one HRot(r=1), @p reps
 * times each, as traced spans. Records the counts and modeled time of
 * one HMult and one HRot. @p ct must be at its top level.
 */
void probeLayers(const ark::CkksEvaluator &eval,
                 const ark::EvalKey &evk_mult, const ark::EvalKey &evk_rot1,
                 const ark::Ciphertext &ct, int reps, Tracer &tracer,
                 Report &r);

/** Time writeCiphertext / readCiphertext of @p ct, @p reps times. */
void probeWire(const ark::CkksContext &ctx, const ark::Ciphertext &ct,
               int reps, Tracer &tracer);

/*
 * Traced runs report every per-layer metric. A workload that does not
 * exercise the boot or the serving layer measures it with one of these
 * side probes, on that layer's own workload set-up built from @p seed.
 */

/** One counted bootstrap, then one traced bootstrap, ModRaise and
 *  EvalMod (the bootstrap workload's probe, with one repetition). */
void probeBootLayer(ark::u64 seed, Tracer &tracer, Report &r);

/** Two seconds of serve-open traffic: execute time, client overhead,
 *  generator lag, refusals and reconnects. */
void probeServeLayers(ark::u64 seed, Report &r);

/**
 * Run @p unit(i) for i = 0, 1, ... until @p seconds have elapsed (at
 * least @p min_units times).
 */
template <class F>
void
timedLoop(double seconds, size_t min_units, F &&unit)
{
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0;; ++i) {
        if (i >= min_units && msBetween(t0, Clock::now()) >= seconds * 1e3)
            return;
        unit(i);
    }
}

} // namespace perfbench
