/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * Every bench prints the paper's reported value next to the value this
 * repository measures/models, so EXPERIMENTS.md can record both. The
 * goal is the paper's shape (who wins, by what factor, where the
 * curves saturate), not bit-exact ASIC numbers.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "rns/cpu_features.h"
#include "sim/simulator.h"
#include "workloads/programs.h"

namespace ark {

/**
 * Parse the standard bench flags shared by the gated benches:
 * --smoke sets @p smoke, --help/-h prints @p usage and requests exit
 * 0, anything else prints the usage to stderr and requests exit 2.
 * Returns true to continue into the bench; false means main should
 * return @p exit_code immediately.
 */
inline bool
parseBenchArgs(int argc, char **argv, const char *name,
               const char *usage, bool &smoke, int &exit_code)
{
    smoke = false;
    exit_code = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::fputs(usage, stdout);
            return false;
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n\n%s", name,
                         argv[i], usage);
            exit_code = 2;
            return false;
        }
    }
    return true;
}

/**
 * Variant of parseBenchArgs for benches that also take `--json PATH`
 * (machine-readable rows for scripts/check_bench_regression.py).
 */
inline bool
parseBenchArgs(int argc, char **argv, const char *name,
               const char *usage, bool &smoke, std::string &json_path,
               int &exit_code)
{
    smoke = false;
    json_path.clear();
    exit_code = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::fputs(usage, stdout);
            return false;
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n\n%s", name,
                         argv[i], usage);
            exit_code = 2;
            return false;
        }
    }
    return true;
}

/**
 * Variant of parseBenchArgs for benches whose request-batch size is
 * tunable via `--requests N` (N >= 1). @p requests is left at 0 when
 * the flag is absent — "use the mode default", which each bench's
 * --help documents next to its smoke value.
 */
inline bool
parseBenchArgs(int argc, char **argv, const char *name,
               const char *usage, bool &smoke, std::string &json_path,
               size_t &requests, int &exit_code)
{
    smoke = false;
    json_path.clear();
    requests = 0;
    exit_code = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--requests") == 0 &&
                   i + 1 < argc) {
            char *end = nullptr;
            const unsigned long v = std::strtoul(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || v == 0) {
                std::fprintf(stderr,
                             "%s: --requests wants a positive "
                             "integer, got '%s'\n\n%s",
                             name, argv[i], usage);
                exit_code = 2;
                return false;
            }
            requests = static_cast<size_t>(v);
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::fputs(usage, stdout);
            return false;
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n\n%s", name,
                         argv[i], usage);
            exit_code = 2;
            return false;
        }
    }
    return true;
}

/**
 * One machine-readable row of a --json emission. The field names
 * deliberately match bench_micro_kernels' schema so one
 * check_bench_regression.py diffs every bench: `speedup` is always
 * the compared metric (higher = better); what n / limbs /
 * baseline_ms / optimized_ms mean is per-bench and documented where
 * the rows are filled.
 */
struct BenchJsonRow
{
    std::string name;
    size_t n = 0;
    size_t limbs = 0;
    double baseline_ms = 0;
    double optimized_ms = 0;
    double speedup = 0;
};

/**
 * Write @p rows in the shared bench JSON schema:
 * {"bench","mode","machine_class","simd_tier","cpu_features",
 *  "parity_ok","results"}.
 * `machine_class` is the host's dispatched vector-ISA tier — the
 * label check_bench_regression.py uses to pick a like-for-like
 * baseline from bench/baselines/<class>/ (timings from an AVX-512
 * box say nothing about a NEON one; comparing across classes is the
 * regression tracker's main noise source). Returns false (with a
 * message on stderr) if the file can't be written.
 */
inline bool
writeBenchJson(const std::string &path, const char *bench, bool smoke,
               bool parity_ok, const std::vector<BenchJsonRow> &rows)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench);
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"machine_class\": \"%s\",\n",
                 simdTierName(dispatchedSimdTier()));
    std::fprintf(f, "  \"simd_tier\": \"%s\",\n",
                 simdTierName(dispatchedSimdTier()));
    std::fprintf(f, "  \"cpu_features\": \"%s\",\n",
                 cpuFeatureString().c_str());
    std::fprintf(f, "  \"parity_ok\": %s,\n",
                 parity_ok ? "true" : "false");
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const BenchJsonRow &r = rows[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"n\": %zu, \"limbs\": "
                     "%zu, \"baseline_ms\": %.6f, \"optimized_ms\": "
                     "%.6f, \"speedup\": %.3f}%s\n",
                     r.name.c_str(), r.n, r.limbs, r.baseline_ms,
                     r.optimized_ms, r.speedup,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/** Run one workload program on one machine/algorithm config. */
inline SimResult
simulate(const SimProgram &prog, const MachineConfig &m,
         const SimAlgo &algo)
{
    return ArkSimulator(m, algo).run(prog);
}

/** Convenience: seconds for a workload under a machine+algorithm. */
inline double
runSeconds(const SimProgram &prog, const MachineConfig &m,
           KeySchedule sched, bool of_limb)
{
    return simulate(prog, m, SimAlgo{sched, of_limb}).seconds;
}

inline std::string
fmtMs(double seconds, int prec = 3)
{
    return TablePrinter::fmt(seconds * 1e3, prec);
}

inline void
header(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

} // namespace ark
