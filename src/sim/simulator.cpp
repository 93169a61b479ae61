#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "common/logging.h"
#include "common/stats_util.h"
#include "core/hdft_plan.h"

namespace ark {

namespace {

/**
 * Streamed-pipeline efficiency: FU chains overlap but not perfectly
 * (RF hazards, stage ramp-up, scheduling bubbles). Calibrated against
 * the paper's bootstrapping latency on the base configuration.
 */
constexpr double kPipelineEff = 0.40;

/** Working-set polynomials alive during a key switch (hoisted digits,
 *  BSGS babies, accumulators). Sets the scratchpad pressure. */
constexpr double kWorkingPolys = 12.0;

double
workingSetBytes(const CkksParams &p, int level)
{
    return kWorkingPolys * (level + 1 + p.alpha()) *
           static_cast<double>(p.degree) * p.word_bytes;
}

} // namespace

ArkSimulator::OpCycles
ArkSimulator::opCycles(const SimOp &op, const CkksParams &p,
                       const CostModel &cost) const
{
    const double n = static_cast<double>(p.degree);
    const int lv = op.level;
    const size_t limbs = static_cast<size_t>(lv) + 1;
    const double lane_words =
        static_cast<double>(machine_.clusters * machine_.lanes);
    const double noc_bytes_per_cycle =
        machine_.noc_gb_per_s / machine_.freq_ghz; // GB/s at GHz = B/cyc

    OpCycles oc;
    switch (op.kind) {
      case SimOpKind::KeySwitch: {
        OpCost c = cost.keySwitch(lv);
        oc.ntt = c.ntt / machine_.nttMults();
        oc.bconv = c.bconv / machine_.bconvMults();
        oc.mad = (c.evk_mult + c.other) / machine_.madMults();
        oc.autou = limbs * n / lane_words; // rotation permutation pass
        const int a = p.alpha();
        const int digits = (lv + a) / a;
        double noc_words;
        if (machine_.dist == DataDist::Alternating) {
            // (dnum + 2) distribution switches per key switch.
            noc_words = (digits + 2.0) * (limbs + a) * n;
        } else {
            // Limb-wise only: redistribution for the accumulation,
            // 2 * dnum * (alpha + l + 1) * N words when dnum > 2.
            noc_words = 2.0 * std::max(digits, 2) * (limbs + a) * n;
        }
        oc.noc = noc_words * p.word_bytes / noc_bytes_per_cycle;
        break;
      }
      case SimOpKind::PMult: {
        const bool of = algo_.of_limb && op.of_limb_eligible;
        OpCost c = cost.pmult(lv, of);
        oc.ntt = c.ntt / machine_.nttMults();
        oc.mad = c.other / machine_.madMults();
        oc.hbm_bytes = static_cast<double>(
            HdftPlan::plaintextBytes(p, lv, of));
        break;
      }
      case SimOpKind::Elementwise:
        oc.mad = 2.0 * limbs * n / machine_.madMults();
        break;
      case SimOpKind::Rescale: {
        OpCost c = cost.rescale(lv);
        oc.ntt = c.ntt / machine_.nttMults();
        oc.mad = c.other / machine_.madMults();
        break;
      }
      case SimOpKind::ModRaise: {
        const int L = p.max_level;
        oc.ntt = 2.0 * (L + 2) * cost.nttLimb() / machine_.nttMults();
        oc.mad = 2.0 * (L + 1) * n / machine_.madMults();
        break;
      }
    }

    double crit = std::max({oc.ntt, oc.bconv, oc.autou, oc.mad});
    if (machine_.dist == DataDist::Alternating) {
        oc.duration = std::max(crit / kPipelineEff, oc.noc);
    } else {
        // The on-transit-adder NoC cannot overlap the accumulation
        // redistribution with the FU pipeline.
        oc.duration = crit / kPipelineEff + oc.noc;
    }
    return oc;
}

SimResult
ArkSimulator::run(const SimProgram &prog) const
{
    return runOrder(prog, nullptr, EvictionPolicy::LRU);
}

size_t
ArkSimulator::evkSlotCapacity(const CkksParams &p) const
{
    const double spad_bytes = machine_.scratchpad_mib * 1024.0 * 1024.0;
    const double free_bytes =
        std::max(0.0, spad_bytes - workingSetBytes(p, p.max_level));
    const double full_evk_bytes =
        static_cast<double>(HdftPlan::evkBytes(p, p.max_level));
    return static_cast<size_t>(free_bytes / full_evk_bytes);
}

SimResult
ArkSimulator::runOrder(const SimProgram &prog,
                       const std::vector<size_t> *order,
                       EvictionPolicy eviction) const
{
    const CkksParams &p = prog.params;
    CostModel cost(p);
    const size_t n_ops = prog.ops.size();
    ARK_ASSERT(order == nullptr || order->size() == n_ops,
               "schedule order must cover the whole program");
    auto opAt = [&](size_t s) -> const SimOp & {
        return prog.ops[order ? (*order)[s] : s];
    };

    const double spad_bytes = machine_.scratchpad_mib * 1024.0 * 1024.0;
    const double hbm_bytes_per_cycle =
        machine_.hbm_gb_per_s / machine_.freq_ghz;

    // Evk cache: keys are uniform full-size slots against the capacity
    // the working set leaves free. The replay itself is the SAME
    // EvkSlotCache the residency planner uses (graph/residency.h), so
    // predicted and simulated hits agree by construction.
    const size_t slots = evkSlotCapacity(p);
    EvkSlotCache cache(slots, eviction);

    // Belady needs each step's next use of the same evk, precomputed
    // over the issue order.
    std::vector<size_t> next_use;
    if (eviction == EvictionPolicy::Belady) {
        std::vector<int> evk_seq;
        evk_seq.reserve(n_ops);
        for (size_t s = 0; s < n_ops; ++s) {
            const SimOp &op = opAt(s);
            evk_seq.push_back(op.kind == SimOpKind::KeySwitch
                                  ? op.evk_id
                                  : -1);
        }
        next_use = nextUseSteps(evk_seq);
    }

    SimResult r;
    double compute_free = 0, hbm_free = 0;

    for (size_t s = 0; s < n_ops; ++s) {
        const SimOp &op = opAt(s);
        OpCycles oc = opCycles(op, p, cost);
        double load_bytes = oc.hbm_bytes;

        if (op.kind == SimOpKind::KeySwitch && op.evk_id >= 0) {
            if (cache.access(op.evk_id, s,
                             next_use.empty() ? EvkSlotCache::kNever
                                              : next_use[s])) {
                r.evk_hits += 1;
            } else {
                r.evk_misses += 1;
                const double key_bytes = static_cast<double>(
                    HdftPlan::evkBytes(p, op.level));
                load_bytes += key_bytes;
                r.evk_bytes += key_bytes;
            }
            // Scratchpad spill: when the working set plus the active
            // key exceed capacity, the overflow streams to HBM.
            double need = workingSetBytes(p, op.level) +
                          HdftPlan::evkBytes(p, op.level);
            if (need > spad_bytes)
                load_bytes += need - spad_bytes;
        }

        // Software prefetch: the stream for this op starts as soon as
        // HBM frees up, independent of compute progress.
        double load_done = hbm_free + load_bytes / hbm_bytes_per_cycle;
        hbm_free = load_done;
        r.busy_hbm += load_bytes / hbm_bytes_per_cycle;
        r.hbm_bytes += load_bytes;

        // Conservative: compute starts when both the pipe is free and
        // the op's operand stream has fully landed (no load/compute
        // overlap within one op; prefetch overlaps across ops via
        // hbm_free running ahead).
        double start = std::max(compute_free, load_done);
        if (load_bytes == 0)
            start = compute_free;
        compute_free = start + oc.duration;

        r.busy_ntt += oc.ntt;
        r.busy_bconv += oc.bconv;
        r.busy_auto += oc.autou;
        r.busy_mad += oc.mad;
        r.busy_noc += oc.noc;
        r.noc_bytes += oc.noc;
    }

    r.cycles = std::max(compute_free, hbm_free);
    r.seconds = r.cycles / (machine_.freq_ghz * 1e9);
    if (r.cycles == 0)
        return r; // empty program (e.g. an unpopulated shard)

    r.util.ntt = std::min(1.0, r.busy_ntt / r.cycles);
    r.util.bconv = std::min(1.0, r.busy_bconv / r.cycles);
    r.util.autou = std::min(1.0, r.busy_auto / r.cycles);
    r.util.madu = std::min(1.0, r.busy_mad / r.cycles);
    r.util.hbm = std::min(1.0, r.busy_hbm / r.cycles);
    r.util.noc = std::min(1.0, r.busy_noc / r.cycles);
    double compute_util =
        std::max({r.util.ntt, r.util.bconv, r.util.madu});
    r.util.rf = compute_util;
    r.util.sram = 0.5 * compute_util + 0.5 * r.util.hbm;
    r.avg_power_w = averagePower(machine_, r.util);
    return r;
}

ScheduledSimResult
ArkSimulator::runScheduled(const ScheduledProgram &sp,
                           const SimResult *source_baseline) const
{
    ScheduledSimResult out;
    // Baseline: the trace as emitted, online LRU residency — exactly
    // what run() reports. Callers comparing several policies over one
    // trace pass the baseline in to avoid re-simulating it per call.
    out.source = source_baseline
                     ? *source_baseline
                     : runOrder(sp.source, nullptr, EvictionPolicy::LRU);
    out.scheduled = runOrder(sp.source, &sp.order, sp.eviction);
    out.hbm_saved_bytes =
        out.source.hbm_bytes - out.scheduled.hbm_bytes;
    out.evk_saved_bytes =
        out.source.evk_bytes - out.scheduled.evk_bytes;
    out.speedup = out.scheduled.seconds > 0
                      ? out.source.seconds / out.scheduled.seconds
                      : 1.0;
    return out;
}

ShardedSimResult
ArkSimulator::runSharded(const ScheduledProgram &sp,
                         const ShardPlan &plan,
                         const SimResult *single_baseline) const
{
    const size_t n_ops = sp.source.ops.size();
    ARK_ASSERT(plan.shard_of_node.size() == n_ops,
               "shard plan must cover the whole program");
    ARK_ASSERT(sp.order.size() == n_ops,
               "schedule order must cover the whole program");

    ShardedSimResult out;
    out.shards = plan.shards;
    out.single = single_baseline
                     ? *single_baseline
                     : runOrder(sp.source, &sp.order, sp.eviction);

    // Each shard executes the subsequence of the schedule assigned to
    // it — the induced (filtered) issue order, so same-key runs the
    // scheduler built survive the partition intact.
    double slowest = 0;
    for (size_t s = 0; s < plan.shards; ++s) {
        SimProgram sub;
        sub.name = sp.source.name + "/shard" + std::to_string(s);
        sub.params = sp.source.params;
        for (size_t idx : sp.order) {
            if (plan.shard_of_node[idx] == s)
                sub.ops.push_back(sp.source.ops[idx]);
        }
        SimResult r = runOrder(sub, nullptr, sp.eviction);
        slowest = std::max(slowest, r.seconds);
        out.max_shard_evk_bytes =
            std::max(out.max_shard_evk_bytes, r.evk_bytes);
        out.total_evk_bytes += r.evk_bytes;
        out.per_shard.push_back(std::move(r));
    }

    // Every cut dependence edge ships the producer's ciphertext (two
    // polynomials at the producer's level) across the inter-chip
    // link — once per destination chip, however many remote consumers
    // it has (multicast). The aggregate is charged serially to the
    // makespan, a conservative stand-in for cross-chip
    // synchronization.
    const CkksParams &p = sp.source.params;
    std::set<std::pair<size_t, size_t>> shipped; // (producer, chip)
    for (const auto &[prod, cons] : plan.cut_edges) {
        if (!shipped.emplace(prod, plan.shard_of_node[cons]).second)
            continue;
        const double limbs =
            static_cast<double>(sp.source.ops[prod].level) + 1;
        out.link_bytes += 2.0 * limbs *
                          static_cast<double>(p.degree) *
                          static_cast<double>(p.word_bytes);
    }
    out.link_seconds = out.link_bytes / (machine_.link_gb_per_s * 1e9);
    out.seconds = slowest + out.link_seconds;
    out.speedup =
        out.seconds > 0 ? out.single.seconds / out.seconds : 1.0;
    return out;
}

BatchSimResult
ArkSimulator::runBatch(const std::vector<const SimProgram *> &progs) const
{
    BatchSimResult b;
    b.requests = progs.size();
    if (progs.empty())
        return b;

    // FCFS completion times: request i finishes at the prefix sum of
    // service times (its latency, since the batch arrives at t = 0).
    // Batches repeat a few distinct programs many times, so memoize
    // the (deterministic) per-program simulation.
    std::map<const SimProgram *, SimResult> memo;
    std::vector<double> completion;
    completion.reserve(progs.size());
    double clock = 0, energy_j = 0;
    for (const SimProgram *prog : progs) {
        ARK_ASSERT(prog != nullptr, "null program in batch");
        auto it = memo.find(prog);
        if (it == memo.end())
            it = memo.emplace(prog, run(*prog)).first;
        const SimResult &r = it->second;
        clock += r.seconds;
        completion.push_back(clock);
        b.hbm_bytes += r.hbm_bytes;
        energy_j += r.avg_power_w * r.seconds;
    }
    b.seconds = clock;
    b.requests_per_sec =
        b.seconds > 0
            ? static_cast<double>(progs.size()) / b.seconds
            : 0;
    b.avg_power_w = b.seconds > 0 ? energy_j / b.seconds : 0;

    // completion is already ascending (prefix sums of service times).
    b.p50_latency = nearestRankPercentile(completion, 0.50);
    b.p99_latency = nearestRankPercentile(completion, 0.99);
    b.max_latency = completion.back();
    return b;
}

SimResult
ArkSimulator::runMeasured(const KernelStats &st,
                          const CkksParams &p) const
{
    const double wb = static_cast<double>(p.word_bytes);
    const double lane_words =
        static_cast<double>(machine_.clusters * machine_.lanes);
    const double hbm_bytes_per_cycle =
        machine_.hbm_gb_per_s / machine_.freq_ghz;

    SimResult r;
    // FU occupancy from the measured per-kernel mult counts. The
    // fused ntt_bconv_ntt path already credits its component counters,
    // so summing the plain counters covers it exactly once.
    const double ntt_mults = static_cast<double>(
        st.at(KernelOp::NttForward).mults +
        st.at(KernelOp::NttInverse).mults);
    const double bconv_mults =
        static_cast<double>(st.at(KernelOp::BConv).mults);
    double mad_mults = 0;
    for (KernelOp op : {KernelOp::MulEval, KernelOp::MulAccEval,
                        KernelOp::Tensor, KernelOp::MulScalar,
                        KernelOp::SubMulScalar, KernelOp::EvkMulAcc})
        mad_mults += static_cast<double>(st.at(op).mults);
    // Permutations occupy the AutoU lanes one word per lane-cycle.
    const double auto_words = static_cast<double>(
        st.at(KernelOp::Automorphism).words / 2);

    r.busy_ntt = ntt_mults / machine_.nttMults();
    r.busy_bconv = bconv_mults / machine_.bconvMults();
    r.busy_mad = mad_mults / machine_.madMults();
    r.busy_auto = auto_words / lane_words;

    // Off-chip traffic: the measured single-use operand streams.
    r.hbm_bytes =
        static_cast<double>(st.evk_words + st.plaintext_words) * wb;
    r.busy_hbm = r.hbm_bytes / hbm_bytes_per_cycle;

    const double crit =
        std::max({r.busy_ntt, r.busy_bconv, r.busy_auto, r.busy_mad});
    r.cycles = std::max(crit / kPipelineEff, r.busy_hbm);
    r.seconds = r.cycles / (machine_.freq_ghz * 1e9);
    if (r.cycles == 0)
        return r; // nothing recorded

    r.util.ntt = std::min(1.0, r.busy_ntt / r.cycles);
    r.util.bconv = std::min(1.0, r.busy_bconv / r.cycles);
    r.util.autou = std::min(1.0, r.busy_auto / r.cycles);
    r.util.madu = std::min(1.0, r.busy_mad / r.cycles);
    r.util.hbm = std::min(1.0, r.busy_hbm / r.cycles);
    r.util.noc = 0;
    const double compute_util =
        std::max({r.util.ntt, r.util.bconv, r.util.madu});
    r.util.rf = compute_util;
    r.util.sram = 0.5 * compute_util + 0.5 * r.util.hbm;
    r.avg_power_w = averagePower(machine_, r.util);
    return r;
}

} // namespace ark
