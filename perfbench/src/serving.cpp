/**
 * serve-open and serve-saturated: a seeded uniform mix of the four
 * standardServingMix workloads at testTiny, sent over loopback TCP
 * from nproc WireClient sessions to an in-process WireServer over a
 * BatchServer (SIMD backend).
 *
 * serve-open is an open loop: requests are due on a seeded Poisson
 * schedule at a fixed rate below the host's capacity, each is sent by
 * the next free session, and its latency runs from when it was due.
 * serve-saturated is a closed loop: every session sends its next
 * request as soon as the previous one returns, so the queue never
 * empties and the run measures throughput.
 *
 * Every response's checksum must equal the in-process result for the
 * same (workload, input), computed during setup; the in-process result
 * is also decrypted and checked against a cleartext evaluation.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <thread>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ark;

/** serve-open arrival rate, requests per second. serve-saturated
 *  completes about 420-500/s on a 4-core AVX-512 host; at half of
 *  that the workers stay warm and the queue stays short. */
constexpr double kOpenRatePerS = 250.0;
/** Lowest accepted precision of a served result. */
constexpr double kPrecisionFloorBits = 20.0;
constexpr size_t kInputs = 4;
constexpr size_t kPlaintexts = 2;

size_t
sessionCount()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Cleartext evaluation of @p w on slot vector @p m. */
std::vector<Complex>
cleartext(const ServeWorkload &w, std::vector<Complex> m,
          const std::vector<std::vector<Complex>> &plaintexts)
{
    for (const ServeOp &op : w.ops) {
        switch (op.kind) {
          case ServeOpKind::Square:
            for (auto &v : m)
                v *= v;
            break;
          case ServeOpKind::Rescale:
            break;
          case ServeOpKind::Rotate:
            m = rotateSlots(m, op.rotation);
            break;
          case ServeOpKind::MulPlain: {
            const auto &pt = plaintexts[op.pt_index % plaintexts.size()];
            for (size_t i = 0; i < m.size(); ++i)
                m[i] *= pt[i];
            break;
          }
          case ServeOpKind::AddScalar:
            for (auto &v : m)
                v += op.scalar;
            break;
        }
    }
    return m;
}

/** Everything a serving run sets up: server stack, tenant keys, one
 *  session per client thread, inputs and the expected checksums. */
struct ServingSetup
{
    explicit ServingSetup(u64 seed)
        : ctx(params()), rng(kKeySeed), keygen(ctx, rng),
          sk(keygen.secretKey()), keys(keygen, sk, ctx.degree()),
          encoder(ctx), store(ctx, PlaintextMode::OFLimb)
    {
        const size_t slots = ctx.params().num_slots;
        for (size_t k = 0; k < kPlaintexts; ++k) {
            pt_msgs.push_back(randomSlots(slots, 0.7, kKeySeed + k));
            store.insert(encoder.encode(pt_msgs.back(), ctx.maxLevel()));
        }
        CkksEncryptor server_enc(ctx, rng);
        std::vector<Ciphertext> server_inputs{server_enc.encryptSymmetric(
            encoder.encode(pt_msgs[0], ctx.maxLevel()), sk)};
        BatchServerConfig cfg;
        cfg.workers = sessionCount();
        server = std::make_unique<BatchServer>(
            ctx, keys, store, standardServingMix(ctx.params()),
            std::move(server_inputs), cfg);
        net = std::make_unique<WireServer>(*server);

        for (size_t c = 0; c < sessionCount(); ++c)
            clients.push_back(
                std::make_unique<WireClient>("127.0.0.1", net->port()));
        const CkksContext &cctx = clients[0]->context();

        // One tenant: its own secret and seeded evks for every
        // rotation any workload uses, uploaded by every session.
        Rng tenant_rng(kKeySeed + 1);
        KeyGenerator tenant_gen(cctx, tenant_rng);
        tenant_sk = tenant_gen.secretKey();
        u64 key_seed = kKeySeed + 2;
        const EvalKey mult = tenant_gen.evkMultSeeded(tenant_sk, key_seed++);
        tenant_keys = std::make_unique<KeyCache>(cctx.degree());
        tenant_keys->insertMultiplication(mult);
        std::vector<std::pair<i64, EvalKey>> rots;
        for (const RemoteWorkload &w : clients[0]->workloads())
            for (i64 r : w.rotations) {
                bool seen = false;
                for (const auto &kr : rots)
                    seen = seen || kr.first == r;
                if (!seen) {
                    rots.emplace_back(r, tenant_gen.evkRotationSeeded(
                                             tenant_sk, r, key_seed++));
                    tenant_keys->insertRotation(r, rots.back().second);
                }
            }
        for (size_t c = 0; c < clients.size(); ++c) {
            clients[c]->openSession("tenant-" + std::to_string(c));
            clients[c]->uploadMultiplicationKey(mult);
            for (const auto &[r, key] : rots)
                clients[c]->uploadRotationKey(r, key);
        }

        CkksEncoder cenc(cctx);
        Rng input_rng(seed);
        CkksEncryptor tenant_enc(cctx, input_rng);
        for (size_t k = 0; k < kInputs; ++k) {
            in_msgs.push_back(randomSlots(slots, 0.5, seed * 41 + k));
            inputs.push_back(tenant_enc.encryptSymmetric(
                cenc.encode(in_msgs.back(), cctx.maxLevel()), tenant_sk));
        }

        // The in-process result of every (workload, input) pair: its
        // checksum is what each served response must match, and its
        // decryption is checked against the cleartext evaluation.
        CkksDecryptor dec(cctx, tenant_sk);
        const auto &wls = server->workloads();
        expected.assign(wls.size(), std::vector<u64>(kInputs, 0));
        for (size_t w = 0; w < wls.size(); ++w) {
            for (size_t k = 0; k < kInputs; ++k) {
                std::future<ServeResult> fut;
                if (server->trySubmitRemote(
                        w, std::make_shared<Ciphertext>(inputs[k]),
                        tenant_keys.get(), fut) != AdmitResult::Admitted)
                    throw std::runtime_error("in-process submit refused");
                const ServeResult res = fut.get();
                if (!res.ok)
                    throw std::runtime_error("in-process " + wls[w].name +
                                             " failed: " + res.error);
                expected[w][k] = res.checksum;
                precision_bits = std::min(
                    precision_bits,
                    precisionBits(cenc.decode(dec.decrypt(*res.output), slots),
                                  cleartext(wls[w], in_msgs[k], pt_msgs)));
            }
        }
        // Untimed warm-up: one request per session.
        for (size_t c = 0; c < clients.size(); ++c) {
            const auto out = clients[c]->submit(c % wls.size(), inputs[0]);
            if (!out.ok || out.checksum != expected[c % wls.size()][0])
                throw std::runtime_error("warm-up request failed");
        }
    }

    ~ServingSetup()
    {
        clients.clear();
        net->stop();
        server->shutdown();
    }
    ServingSetup(const ServingSetup &) = delete;
    ServingSetup &operator=(const ServingSetup &) = delete;

    static CkksParams params()
    {
        CkksParams p = CkksParams::testTiny();
        p.backend = BackendKind::Simd;
        p.backend_threads = std::thread::hardware_concurrency();
        return p;
    }

    CkksContext ctx;
    Rng rng;
    KeyGenerator keygen;
    SecretKey sk;
    KeyCache keys;
    CkksEncoder encoder;
    PlaintextStore store;
    std::vector<std::vector<Complex>> pt_msgs;
    std::unique_ptr<BatchServer> server;
    std::unique_ptr<WireServer> net;
    std::vector<std::unique_ptr<WireClient>> clients;
    SecretKey tenant_sk;
    std::unique_ptr<KeyCache> tenant_keys;
    std::vector<std::vector<Complex>> in_msgs;
    std::vector<Ciphertext> inputs;
    std::vector<std::vector<u64>> expected;
    double precision_bits = 1e9;
};

/** One request: what was sent, when, and how it ended. */
struct Request
{
    size_t workload = 0, input = 0;
    /** When the request was due: open loop, its scheduled send time;
     *  closed loop, when its session's previous response arrived. */
    double due_ms = 0;
    double send_ms = 0, done_ms = 0, exec_ms = 0;
    /** Doubles as the column of the per-workload tally. */
    enum Status { Pending, Ok, Mismatch, Refused, Failed } status = Pending;
};

/**
 * The seeded request stream. Workloads come in blocks holding each one
 * once, in seeded order, so every run sends the same mix, and inputs
 * are uniform. Open-loop due times are a Poisson process conditioned on
 * its count: rate x seconds uniform instants, so every run offers the
 * same load. A closed loop gets more requests than it can send.
 */
std::vector<Request>
makeRequests(u64 seed, size_t n_workloads, bool saturated, double seconds)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::vector<double> due;
    if (saturated) {
        due.assign(200000, 0.0);
    } else {
        due.resize(static_cast<size_t>(kOpenRatePerS * seconds));
        for (double &d : due)
            d = rng.uniformReal() * seconds * 1e3;
        std::sort(due.begin(), due.end());
    }
    std::vector<Request> reqs(due.size());
    std::vector<size_t> block(n_workloads);
    for (size_t i = 0; i < reqs.size(); ++i) {
        const size_t pos = i % n_workloads;
        if (pos == 0) {
            for (size_t w = 0; w < n_workloads; ++w)
                block[w] = w;
            for (size_t w = n_workloads; w > 1; --w)
                std::swap(block[w - 1], block[rng.uniform(w)]);
        }
        reqs[i].workload = block[pos];
        reqs[i].input = rng.uniform(kInputs);
        reqs[i].due_ms = due[i];
    }
    return reqs;
}

/**
 * Send @p reqs from every session of @p s, one thread per session:
 * each thread takes the next request when it is free. Open loop: a
 * request is sent at its due time, or late if every session is busy.
 * Closed loop: sessions send back to back for @p seconds. Requests with
 * an odd index record their spans when @p traced is set.
 */
void
sendRequests(ServingSetup &s, std::vector<Request> &reqs, bool saturated,
             double seconds, bool traced, Tracer &tracer)
{
    std::atomic<size_t> next{0};
    const Clock::time_point start = Clock::now();
    auto at = [&](double ms) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(ms));
    };
    auto client_loop = [&](WireClient &client) {
        double prev_done_ms = 0;
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= reqs.size())
                return;
            Request &q = reqs[i];
            if (saturated) {
                if (msBetween(start, Clock::now()) >= seconds * 1e3)
                    return;
                q.due_ms = prev_done_ms;
            } else {
                std::this_thread::sleep_until(at(q.due_ms));
            }
            const Clock::time_point sent = Clock::now();
            q.send_ms = msBetween(start, sent);
            try {
                const auto out = client.submit(q.workload, s.inputs[q.input]);
                if (out.ok) {
                    q.exec_ms = out.latency_ms;
                    q.status = out.checksum == s.expected[q.workload][q.input]
                                   ? Request::Ok
                                   : Request::Mismatch;
                } else {
                    q.status = out.code == WireCode::QueueFull ||
                                       out.code == WireCode::Shed
                                   ? Request::Refused
                                   : Request::Failed;
                }
            } catch (const std::exception &) {
                q.status = Request::Failed;
            }
            const Clock::time_point done = Clock::now();
            q.done_ms = prev_done_ms = msBetween(start, done);
            if (traced && i % 2 == 1) {
                const u64 op = i + 1;
                const u64 root = tracer.newId();
                tracer.record(root, 0, op, "unit", at(q.due_ms), done);
                tracer.record(tracer.newId(), root, op, "gen.lag",
                              at(q.due_ms), sent);
                tracer.record(tracer.newId(), root, op, "net.rtt", sent,
                              done);
            }
        }
    };
    std::vector<std::thread> threads;
    for (auto &c : s.clients)
        threads.emplace_back(client_loop, std::ref(*c));
    for (auto &t : threads)
        t.join();
}

/** The serve, net and generator layer samples and counts of @p reqs. */
void
recordServeLayers(const ServingSetup &s, const std::vector<Request> &reqs,
                  Report &r)
{
    u64 refused = 0, reconnects = 0;
    for (const Request &q : reqs) {
        refused += q.status == Request::Refused;
        if (q.status != Request::Ok)
            continue;
        r.sample("serve.exec_ms", q.exec_ms);
        r.sample("net.overhead_ms", q.done_ms - q.send_ms - q.exec_ms);
        r.sample("gen.lag_ms", q.send_ms - q.due_ms);
    }
    for (const auto &c : s.clients)
        reconnects += c->reconnects();
    r.count("serve.refused", refused);
    r.count("net.reconnects", reconnects);
}

} // namespace

void
probeServeLayers(u64 seed, Report &r)
{
    ServingSetup s(seed);
    const double seconds = 2;
    auto reqs = makeRequests(seed, s.server->workloads().size(), false,
                             seconds);
    Tracer untraced(false);
    sendRequests(s, reqs, false, seconds, false, untraced);
    recordServeLayers(s, reqs, r);
}

void
runServing(const Options &opt, bool saturated, Tracer &tracer, Report &r)
{
    const auto s = setUpRepeatedly<ServingSetup>(opt.seed, r);
    recordProvenance(s->ctx, r);

    const size_t n_workloads = s->server->workloads().size();
    auto reqs = makeRequests(opt.seed, n_workloads, saturated, opt.seconds);
    sendRequests(*s, reqs, saturated, opt.seconds, opt.trace, tracer);
    recordServeLayers(*s, reqs, r);

    // Per mix workload: sent, ok, mismatched, refused, failed.
    std::vector<std::array<u64, 5>> tally(n_workloads, {0, 0, 0, 0, 0});
    double window_ms = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const Request &q = reqs[i];
        if (q.status == Request::Pending)
            continue;
        ++tally[q.workload][0];
        ++tally[q.workload][q.status];
        window_ms = std::max(window_ms, q.done_ms);
        r.sample("unit_ms", q.done_ms - q.due_ms);
        // Spans are recorded on the client, so they cannot change the
        // server's execute time; comparing latency less execute time
        // keeps the mix of workloads out of the A/B difference.
        if (opt.trace && q.status == Request::Ok)
            r.sample(i % 2 == 1 ? "ab_traced_ms" : "ab_untraced_ms",
                     q.done_ms - q.due_ms - q.exec_ms);
    }
    static const char *const kTallyNames[5] = {"sent", "ok", "mismatched",
                                               "refused", "failed"};
    u64 totals[5] = {0, 0, 0, 0, 0};
    for (size_t w = 0; w < n_workloads; ++w) {
        for (size_t c = 0; c < 5; ++c) {
            r.count("mix." + s->server->workloads()[w].name + "." +
                        kTallyNames[c],
                    tally[w][c]);
            totals[c] += tally[w][c];
        }
    }
    r.value("measured_s", window_ms / 1e3);
    r.count("attempted", totals[0]);
    r.count("ok", totals[1]);
    r.count("mismatched", totals[2]);
    r.count("refused", totals[3]);
    r.count("failed", totals[4]);
    r.value("precision_bits", s->precision_bits);
    r.value("precision_floor_bits", kPrecisionFloorBits);

    if (opt.trace) {
        probeWire(s->ctx, s->inputs[0], 200, tracer);
        CkksEncryptor enc(s->ctx, s->rng);
        const Ciphertext top = enc.encryptSymmetric(
            s->encoder.encode(s->pt_msgs[0], s->ctx.maxLevel()), s->sk);
        probeLayers(CkksEvaluator(s->ctx), s->keys.multiplication(),
                    s->keys.rotation(1), top, 5, tracer, r);
        probeBootLayer(opt.seed, tracer, r);
    }
    r.value("peak_rss_mib", peakRssMiB());
}

} // namespace perfbench
