/**
 * @file
 * Shared plumbing of the benchmark runner: command-line options,
 * wall-clock spans, the raw report the Python front end reduces, run
 * provenance and the cleartext precision check.
 *
 * The runner measures; it does not summarise. Every timed call is
 * written out as a raw sample, so the percentile rule and the ledger
 * arithmetic live in one place (perfbench/ledger.py) and are unit
 * tested there.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <complex>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ckks/context.h"
#include "rns/kernel_stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Complex = std::complex<double>;

/**
 * Seed of every key generator. Keys stay the same across workload
 * seeds, which drive only the inputs (with their encryption noise),
 * the request mix and the arrivals: a difference between seeds then
 * comes from the inputs, not from another key draw.
 */
constexpr ark::u64 kKeySeed = 0xa2c0ffee;

/** Milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Parsed command line of the runner binary. */
struct Options
{
    std::string workload;
    ark::u64 seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string out; ///< raw report path
};

/**
 * In-memory span log. Each span has a name, a parent span id (0 for a
 * root), an op id shared by every span of one op or request, and start
 * and end times relative to the recorder's creation. Nothing is
 * written until the report is serialised at exit.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    ark::u64 newId() { return next_id_.fetch_add(1); }

    void record(ark::u64 id, ark::u64 parent, ark::u64 op,
                const char *name, Clock::time_point start,
                Clock::time_point end);

    /** JSON array of [id, parent, op, name, start_us, end_us]. */
    std::string toJson() const;

  private:
    struct Entry
    {
        ark::u64 id, parent, op;
        const char *name;
        double start_us, end_us;
    };
    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    std::atomic<ark::u64> next_id_{1};
    mutable std::mutex m_;
    std::vector<Entry> entries_;
};

/**
 * One timed call. Always measures its duration; records itself in the
 * tracer only when @p traced is set, so a traced and an untraced call
 * run the same code apart from the recording.
 */
class Span
{
  public:
    Span(Tracer &tracer, bool traced, const char *name,
         ark::u64 parent = 0, ark::u64 op = 0);
    ~Span() { close(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ark::u64 id() const { return id_; }
    /** End the span (idempotent); returns its duration in ms. */
    double close();

  private:
    Tracer &tracer_;
    const bool traced_;
    const char *name_;
    const ark::u64 parent_, op_, id_;
    const Clock::time_point start_;
    bool open_ = true;
    double ms_ = 0;
};

/**
 * Raw measurements of one run: named sample arrays, scalar values,
 * counts and provenance strings. Serialised as one JSON object.
 */
class Report
{
  public:
    void sample(const std::string &key, double v) { samples_[key].push_back(v); }
    void value(const std::string &key, double v) { values_[key] = v; }
    void count(const std::string &key, ark::u64 v) { counts_[key] = v; }
    void info(const std::string &key, const std::string &v) { info_[key] = v; }

    std::string toJson(const Tracer &tracer) const;

  private:
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> values_;
    std::map<std::string, ark::u64> counts_;
    std::map<std::string, std::string> info_;
};

/** Exit with an error unless no ARK_* variable is set: every one of
 *  them silently changes what the library runs. */
void refuseArkEnvironment();

/** Record backend, thread count, SIMD tier, CPU and build in @p r. */
void recordProvenance(const ark::CkksContext &ctx, Report &r);

/** Peak resident set of this process so far, MiB. */
double peakRssMiB();

/** -log2 of the largest slot error of @p got against @p want. */
double precisionBits(const std::vector<Complex> &got,
                     const std::vector<Complex> &want);

/** Slot vector rotated left by @p r: out[i] = v[(i + r) mod n]. */
std::vector<Complex> rotateSlots(const std::vector<Complex> &v, ark::i64 r);

/** Uniform complex slots with real and imaginary parts in
 *  [-bound, bound), drawn from @p seed. */
std::vector<Complex> randomSlots(size_t n, double bound, ark::u64 seed);

/** Kernel-tally delta @p after - @p before. */
ark::KernelStats statsDelta(const ark::KernelStats &after,
                            const ark::KernelStats &before);

/**
 * Record the rns counts of one op under "rns.<op>.*" and the machine
 * model's time for the same tallies under "sim.<op>_model_ms".
 */
void recordOpCounts(const std::string &op, const ark::KernelStats &delta,
                    const ark::CkksParams &params, Report &r);

/** Time point at which main() started (the setup clock's origin). */
Clock::time_point processStart();

} // namespace perfbench
