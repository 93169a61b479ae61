#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include <cpuid.h>
#include <sys/resource.h>

#include "common/random.h"
#include "rns/backend.h"
#include "sim/simulator.h"

extern char **environ;

namespace perfbench {

namespace {

/** JSON string literal for @p s (the report only carries ASCII). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
cpuModel()
{
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

const Clock::time_point kProcessStart = Clock::now();

} // namespace

Clock::time_point
processStart()
{
    return kProcessStart;
}

void
Tracer::record(ark::u64 id, ark::u64 parent, ark::u64 op,
               const char *name, Clock::time_point start,
               Clock::time_point end)
{
    using us = std::chrono::duration<double, std::micro>;
    Entry e{id, parent, op, name, us(start - origin_).count(),
            us(end - origin_).count()};
    std::lock_guard<std::mutex> lk(m_);
    entries_.push_back(e);
}

std::string
Tracer::toJson() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        os << (i ? ",\n" : "\n") << "[" << e.id << "," << e.parent << ","
           << e.op << "," << quote(e.name) << "," << number(e.start_us)
           << "," << number(e.end_us) << "]";
    }
    os << "]";
    return os.str();
}

Span::Span(Tracer &tracer, bool traced, const char *name,
           ark::u64 parent, ark::u64 op)
    : tracer_(tracer), traced_(traced && tracer.enabled()), name_(name),
      parent_(parent), op_(op), id_(traced_ ? tracer.newId() : 0),
      start_(Clock::now())
{
}

double
Span::close()
{
    if (!open_)
        return ms_;
    const Clock::time_point end = Clock::now();
    open_ = false;
    ms_ = msBetween(start_, end);
    if (traced_)
        tracer_.record(id_, parent_, op_, name_, start_, end);
    return ms_;
}

std::string
Report::toJson(const Tracer &tracer) const
{
    std::ostringstream os;
    os << "{\n\"info\": {";
    const char *sep = "";
    for (const auto &[k, v] : info_) {
        os << sep << "\n  " << quote(k) << ": " << quote(v);
        sep = ",";
    }
    os << "},\n\"values\": {";
    sep = "";
    for (const auto &[k, v] : values_) {
        os << sep << "\n  " << quote(k) << ": " << number(v);
        sep = ",";
    }
    os << "},\n\"counts\": {";
    sep = "";
    for (const auto &[k, v] : counts_) {
        os << sep << "\n  " << quote(k) << ": " << v;
        sep = ",";
    }
    os << "},\n\"samples\": {";
    sep = "";
    for (const auto &[k, vs] : samples_) {
        os << sep << "\n  " << quote(k) << ": [";
        for (size_t i = 0; i < vs.size(); ++i)
            os << (i ? "," : "") << number(vs[i]);
        os << "]";
        sep = ",";
    }
    os << "},\n\"spans\": " << tracer.toJson() << "\n}\n";
    return os.str();
}

void
refuseArkEnvironment()
{
    bool refused = false;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "ARK_", 4) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; every "
                         "ARK_* variable changes what is measured\n",
                         *e);
            refused = true;
        }
    }
    if (refused)
        std::exit(2);
}

void
recordProvenance(const ark::CkksContext &ctx, Report &r)
{
    const ark::KernelBackend &kb = ctx.backend();
    r.info("backend", kb.name());
    r.info("backend_threads", std::to_string(kb.threads()));
    const auto *simd = dynamic_cast<const ark::SimdBackend *>(&kb);
    r.info("simd_tier", simd ? ark::simdTierName(simd->tier()) : "none");
    r.info("nproc", std::to_string(std::thread::hardware_concurrency()));
    r.info("cpu_model", cpuModel());
    r.info("cpu_features", ark::cpuFeatureString());
    r.info("compiler", __VERSION__);
    r.info("build_type", PERFBENCH_BUILD_TYPE);
    r.info("params", ctx.params().name);
}

double
peakRssMiB()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
precisionBits(const std::vector<Complex> &got,
              const std::vector<Complex> &want)
{
    double err = 0;
    for (size_t i = 0; i < want.size(); ++i)
        err = std::max(err, std::abs(got.at(i) - want[i]));
    return err > 0 ? -std::log2(err) : 64.0;
}

std::vector<Complex>
rotateSlots(const std::vector<Complex> &v, ark::i64 r)
{
    const ark::i64 n = static_cast<ark::i64>(v.size());
    std::vector<Complex> out(v.size());
    for (ark::i64 i = 0; i < n; ++i)
        out[i] = v[static_cast<size_t>(((i + r) % n + n) % n)];
    return out;
}

std::vector<Complex>
randomSlots(size_t n, double bound, ark::u64 seed)
{
    ark::Rng rng(seed);
    std::vector<Complex> m(n);
    for (auto &v : m)
        v = Complex((2 * rng.uniformReal() - 1) * bound,
                    (2 * rng.uniformReal() - 1) * bound);
    return m;
}

ark::KernelStats
statsDelta(const ark::KernelStats &after, const ark::KernelStats &before)
{
    ark::KernelStats d;
    for (size_t i = 0; i < ark::kNumKernelOps; ++i) {
        d.counters[i].calls = after.counters[i].calls - before.counters[i].calls;
        d.counters[i].limbs = after.counters[i].limbs - before.counters[i].limbs;
        d.counters[i].words = after.counters[i].words - before.counters[i].words;
        d.counters[i].mults = after.counters[i].mults - before.counters[i].mults;
    }
    d.evk_words = after.evk_words - before.evk_words;
    d.plaintext_words = after.plaintext_words - before.plaintext_words;
    return d;
}

void
recordOpCounts(const std::string &op, const ark::KernelStats &delta,
               const ark::CkksParams &params, Report &r)
{
    r.count("rns." + op + ".mod_mults", delta.totalMults());
    r.count("rns." + op + ".words", delta.totalWords());
    r.count("rns." + op + ".evk_words", delta.evk_words);
    const ark::ArkSimulator sim(ark::MachineConfig::arkBase(),
                                ark::SimAlgo{});
    r.value("sim." + op + "_model_ms",
            sim.runMeasured(delta, params).seconds * 1e3);
}

} // namespace perfbench
