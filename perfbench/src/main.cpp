/**
 * Benchmark runner binary. Runs one workload and writes its raw
 * samples, counts and spans as JSON to --out; perfbench/run.py builds
 * this binary, runs it and reduces the report to the benchmark's
 * metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper-ops|bootstrap|serve-open|serve-saturated --seed N "
                 "--seconds S --trace 0|1 --out FILE\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            opt.workload = v;
        } else if (k == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            have_seed = *v != '\0' && *end == '\0';
        } else if (k == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(opt.seconds > 0 && opt.seconds <= 600))
                usage("--seconds must be a number in (0, 600]");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace must be 0 or 1");
            opt.trace = v[0] == '1';
        } else if (k == "--out") {
            opt.out = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (argc % 2 == 0)
        usage("every option takes one value");
    if (!have_seed || opt.seconds <= 0 || opt.out.empty() ||
        opt.workload.empty())
        usage("--workload, --seed, --seconds and --out are required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    (void)processStart();
    const Options opt = parseOptions(argc, argv);
    refuseArkEnvironment();

    Tracer tracer(opt.trace);
    Report report;
    report.info("workload", opt.workload);
    report.info("seed", std::to_string(opt.seed));
    try {
        if (opt.workload == "paper-ops")
            runPaperOps(opt, tracer, report);
        else if (opt.workload == "bootstrap")
            runBootstrap(opt, tracer, report);
        else if (opt.workload == "serve-open")
            runServing(opt, false, tracer, report);
        else if (opt.workload == "serve-saturated")
            runServing(opt, true, tracer, report);
        else
            usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }

    std::ofstream out(opt.out);
    out << report.toJson(tracer);
    out.close();
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.out.c_str());
        return 1;
    }
    return 0;
}
