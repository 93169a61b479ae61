"""Reduce one raw runner report to the benchmark's metrics.

The C++ runner (perfbench/src) writes raw samples, counts and spans.
This module turns them into the end-to-end and per-layer metrics named
in BENCHMARK.json, applies the percentile rule, and checks the ledgers:
that the parts of an op add up to the op, and that every request sent
is accounted for. It has no I/O, so perfbench/test_ledger.py can test
it directly.
"""

import math
import statistics

WORKLOADS = ("paper-ops", "bootstrap", "serve-open", "serve-saturated")
SERVING = ("serve-open", "serve-saturated")

# Percentiles the tail rule may report, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10



def median(xs):
    return statistics.median(xs)


def nearest_rank(sorted_xs, pct):
    """Value at percentile pct by the nearest-rank rule."""
    n = len(sorted_xs)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_xs[rank - 1]


def tail_percentile(xs):
    """Highest ladder percentile with at least MIN_BEYOND samples above
    its rank, as (label, value). With too few samples for any rung the
    maximum is reported, labelled "max"."""
    s = sorted(xs)
    n = len(s)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return "p%g" % pct, nearest_rank(s, pct)
    return "max", s[-1]


def op_ledger(total, parts):
    """Split total into the named parts plus the uncovered remainder.
    Returns (rest, ok): ok when the parts and the remainder add up to
    the total and the parts do not exceed it."""
    rest = total - sum(parts)
    ok = math.isclose(sum(parts) + rest, total, rel_tol=1e-9) and rest >= 0
    return rest, ok


def conservation(counts):
    """Serving ledger rows: (workload, sent, ok, mismatched, refused,
    failed, balanced) for each mix workload in the report."""
    rows = []
    names = sorted({k.split(".")[1] for k in counts if k.startswith("mix.")})
    for name in names:
        c = [counts["mix.%s.%s" % (name, col)]
             for col in ("sent", "ok", "mismatched", "refused", "failed")]
        rows.append((name, *c, c[0] == sum(c[1:])))
    return rows


def span_table(spans):
    """Per span name: (count, median duration ms, total self time ms).
    Self time is a span's duration less the part its children cover."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[1] in by_id:
            children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        dur = (s[5] - s[4]) / 1e3
        covered = _union_ms(
            [(max(c[4], s[4]), min(c[5], s[5])) for c in children.get(s[0], [])])
        durs, self_ms = out.get(s[3], ([], 0.0))
        durs.append(dur)
        out[s[3]] = (durs, self_ms + dur - covered)
    return {k: (len(d), median(d), self_ms) for k, (d, self_ms) in out.items()}


def _union_ms(intervals_us):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals_us):
        if b <= a:
            continue
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total / 1e3


def end_to_end(raw, workload):
    """End-to-end metrics of one untraced run, with sample counts.

    Returns (metrics, printed, failed): metrics holds the gated metrics
    of BENCHMARK.json; printed holds the tail latency and the op-level
    names of the workload, which are reported but not gated."""
    s, v, c = raw["samples"], raw["values"], raw["counts"]
    unit = s["unit_ms"]
    failed = c["attempted"] - c["ok"]
    m = {
        "setup_s": (median(s["setup_s"]), len(s["setup_s"])),
        "peak_rss_mib": (v["peak_rss_mib"], 1),
        "latency_p50_ms": (median(unit), len(unit)),
        "throughput_per_s": (c["ok"] / v["measured_s"], c["ok"]),
        "precision_bits": (v["precision_bits"], 1),
        "ok_frac": (c["ok"] / c["attempted"], c["attempted"]),
    }
    tail_label, tail = tail_percentile(unit)
    printed = {}
    if tail_label != "p50":  # else it is latency_p50_ms itself
        printed["latency_%s_ms" % tail_label] = (tail, len(unit))
    if workload == "paper-ops":
        for op in ("hmult", "hrot", "rescale"):
            printed[op + "_ms"] = (median(s[op + "_ms"]), len(s[op + "_ms"]))
    elif workload == "bootstrap":
        printed["bootstrap_ms"] = m["latency_p50_ms"]
    elif workload == "serve-open":
        printed["serve_p50_ms"] = m["latency_p50_ms"]
        printed["serve_%s_ms" % tail_label] = (tail, len(unit))
    else:
        printed["serve_rps"] = m["throughput_per_s"]
    printed["fail_frac"] = (failed / c["attempted"], c["attempted"])
    return m, printed, failed


def per_layer(raw, workload, names):
    """Per-layer metrics of one traced run for every name in names.

    Returns (metrics, ledgers, table): metrics maps name -> value,
    ledgers lists (label, total, parts, rest, ok, checked), and table
    is the span table. A ledger is checked on the workload it was
    written for; elsewhere it is only printed, since at the small
    parameter sets the remainder is within the timing noise."""
    s, v, c = raw["samples"], raw["values"], raw["counts"]
    table = span_table(raw["spans"])

    def span(name):
        return table[name][1]

    m = {}
    for name in ("ntt_fwd", "ntt_inv", "ntt_bconv_ntt", "evk_mac",
                 "automorphism", "elementwise"):
        m["rns.%s_ms" % name] = span("rns." + name)
    m["rns.pool_cycle_us"] = (span("rns.pool_cycle") * 1e3
                              / v["rns.pool_cycles_per_span"])
    for name in ("decompose", "keyswitch", "moddown"):
        m["ckks.%s_ms" % name] = span("ckks." + name)
    ledgers = []
    for op in ("hmult", "hrot"):
        parts = [("decompose", m["ckks.decompose_ms"]),
                 ("keyswitch", m["ckks.keyswitch_ms"])]
        rest, ok = op_ledger(span("ckks." + op), [p for _, p in parts])
        m["ckks.%s_rest_ms" % op] = rest
        ledgers.append((op, span("ckks." + op), parts, rest, ok,
                        workload == "paper-ops"))
    host = {"hmult": span("ckks.hmult"), "hrot": span("ckks.hrot"),
            "bootstrap": span("boot.bootstrap")}

    for name in ("evalmod", "modraise"):
        m["boot.%s_ms" % name] = span("boot." + name)
    parts = [("2 x evalmod", 2 * m["boot.evalmod_ms"]),
             ("modraise", m["boot.modraise_ms"])]
    rest, ok = op_ledger(host["bootstrap"], [p for _, p in parts])
    m["boot.rest_ms"] = rest
    ledgers.append(("bootstrap", host["bootstrap"], parts, rest, ok,
                    workload == "bootstrap"))

    m["wire.ct_encode_us"] = span("wire.ct_encode") * 1e3
    m["wire.ct_decode_us"] = span("wire.ct_decode") * 1e3
    m["serve.exec_ms"] = median(s["serve.exec_ms"])
    m["net.overhead_ms"] = median(s["net.overhead_ms"])
    m["gen.lag_ms"] = tail_percentile(s["gen.lag_ms"])[1]

    for op, host_ms in host.items():
        model = v["sim.%s_model_ms" % op]
        m["sim.%s_model_ms" % op] = model
        m["sim.%s.host_over_model" % op] = host_ms / model
    for key, value in c.items():
        if key.startswith(("rns.", "boot.", "serve.", "net.")):
            m[key] = value

    # Traced and untraced units alternate within the run; the overhead
    # is their difference as a share of the e2e median.
    m["trace.overhead_pct"] = 100.0 * (
        median(s["ab_traced_ms"]) - median(s["ab_untraced_ms"])
    ) / median(s["unit_ms"])

    return {name: m[name] for name in names}, ledgers, table
