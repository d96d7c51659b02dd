/**
 * @file
 * The two served-request workloads: an open loop of seeded Poisson
 * arrivals at a fixed absolute rate, then a saturation phase that
 * keeps the queue full, against a freshly built HeServer.
 *
 * Latency is taken from when each request was due, not from when the
 * server stamped it: a late generator (lag) is part of what a user
 * would wait. The server's own totalMicros covers submit to
 * completion, so due-to-done = lag + totalMicros.
 *
 * model_us_per_op comes from a separate paused, one-dispatcher replay
 * of a fixed request set (independent of the seed), whose busy
 * makespan on the topology's ledger repeats exactly run to run.
 */
#include <cmath>
#include <deque>
#include <future>
#include <thread>
#include <tuple>
#include <utility>

#include "common.hh"
#include "rpu/topology.hh"
#include "serve/server.hh"
#include "trace.hh"

namespace rpubench {

namespace {

using namespace rpu;
using serve::RequestOp;

/** One request kind of a workload's mix: tenant class and op. */
struct Slot
{
    bool large; ///< an n=4096 tenant (else n=1024)
    RequestOp op;
};

struct ServeSpec
{
    double rate;          ///< offered open-loop arrivals, ops/s
    size_t smallTenants;  ///< CKKS n=1024, 3 x 45-bit towers
    size_t largeTenants;  ///< CKKS n=4096, 4 x 45-bit towers
    /** The request mix of one tenant class. Arrivals come in blocks
     *  holding each tenant's slots of its class once, in a seeded
     *  shuffle, so every block has the exact mix and tenant balance:
     *  a MulCtRescale costs ~10x a MulPlainRescale, and per-request
     *  draws moved p50 and capacity by 10-30% between seeds. */
    std::vector<Slot> mix;
    size_t devices;       ///< serial devices in the topology
    unsigned dispatchers; ///< dispatcher threads of the live server
    double limitMs;       ///< latency limit a request must meet (a few
                          ///< times a healthy p99 on the development host)
};

constexpr Slot kSmallPlain{false, RequestOp::MulPlainRescale};
constexpr Slot kLargePlain{true, RequestOp::MulPlainRescale};
constexpr Slot kSmallCt{false, RequestOp::MulCtRescale};
constexpr Slot kLargeCt{true, RequestOp::MulCtRescale};

// Open-loop requests mostly run uncoalesced (~1.1 requests a chunk),
// so the rates are set against uncoalesced service, not against the
// coalesced saturation capacity: serve_small's lone dispatcher spends
// ~4 ms on an n=1024 request. At half the saturation capacity (150
// and 70 ops/s) the dispatchers were ~70% busy, and queueing turned
// the host's own speed swings (+-15% over seconds on the 4-core
// x86-64 development host) into 30-80% swings of p50 and the tail
// between runs; at 80 ops/s the tail still swung 35%. The
// saturation phase measures capacity.
const ServeSpec kServeSmall{50.0, 4, 0, {kSmallPlain}, 1, 1, 25.0};
// 20% MulCtRescale, half of the requests in each kernel class.
const ServeSpec kServeMixed{50.0, 4, 4,
                            {kSmallPlain, kSmallPlain, kSmallPlain,
                             kSmallPlain, kLargePlain, kLargePlain,
                             kLargePlain, kLargePlain, kSmallCt, kLargeCt},
                            4, 2, 400.0};

struct Phases
{
    double openSeconds;
    double satSeconds;
    size_t setupReps; ///< rep 0 is the replay rig; the last one serves
};

constexpr size_t kSlots = 32;
constexpr size_t kReplayRequests = 64;
constexpr size_t kSaturationDepth = 64;
constexpr size_t kTracedSamples = 12;
constexpr uint64_t kBitCheckEvery = 16; ///< sample odds for runSerial

CkksParams
tenantParams(bool large)
{
    return large ? ckksParams(4096, 4) : ckksParams(1024, 3);
}

struct Rig
{
    std::shared_ptr<RpuTopology> topology;
    std::unique_ptr<serve::HeServer> server;
    std::vector<uint64_t> tenants;
    std::vector<uint64_t> small, large; ///< tenant ids by class
};

Rig
buildRig(const ServeSpec &spec, const serve::ServeConfig &cfg, bool traced)
{
    auto caches = std::make_shared<DeviceCaches>();
    std::vector<std::shared_ptr<RpuDevice>> devices;
    for (size_t d = 0; d < spec.devices; ++d)
        devices.push_back(
            std::make_shared<RpuDevice>(makeBackend(traced), caches));
    Rig rig;
    rig.topology = RpuTopology::adopt(devices);
    rig.server = std::make_unique<serve::HeServer>(cfg, rig.topology);
    const size_t total = spec.smallTenants + spec.largeTenants;
    for (size_t t = 0; t < total; ++t) {
        const uint64_t id = t + 1;
        const bool large = t >= spec.smallTenants;
        rig.server->addTenant({id, tenantParams(large), 30});
        rig.tenants.push_back(id);
        (large ? rig.large : rig.small).push_back(id);
    }
    rig.server->prewarm();
    return rig;
}

struct Req
{
    uint64_t tenant = 0;
    RequestOp op = RequestOp::MulPlainRescale;
    Slots a, b;
};

/** (tenant, op) pairs of one block: every tenant's slots of its
 *  class, in tenant order. */
std::vector<std::pair<uint64_t, RequestOp>>
requestBlock(const ServeSpec &spec, const Rig &rig)
{
    std::vector<std::pair<uint64_t, RequestOp>> block;
    for (bool large : {false, true}) {
        for (uint64_t id : large ? rig.large : rig.small) {
            for (const Slot &slot : spec.mix) {
                if (slot.large == large)
                    block.emplace_back(id, slot.op);
            }
        }
    }
    return block;
}

/** The seeded request sequence: shuffled request blocks with random
 *  slot values. */
class RequestStream
{
  public:
    RequestStream(const ServeSpec &spec, const Rig &rig, uint64_t seed)
        : block_(requestBlock(spec, rig)), pos_(block_.size()), rng_(seed)
    {
    }

    Req
    next()
    {
        if (pos_ == block_.size()) {
            for (size_t i = block_.size(); i > 1; --i)
                std::swap(block_[i - 1], block_[rng_.below64(i)]);
            pos_ = 0;
        }
        Req r;
        std::tie(r.tenant, r.op) = block_[pos_++];
        r.a = randomSlots(rng_, kSlots);
        r.b = randomSlots(rng_, kSlots);
        return r;
    }

    /** Uniform double in [0, 1) from the same stream. */
    double uniform() { return rng_.nextDouble(); }

  private:
    std::vector<std::pair<uint64_t, RequestOp>> block_;
    size_t pos_;
    Rng rng_;
};

struct InFlight
{
    Req req;
    Clock::time_point sent;
    bool accepted = false;
    std::future<serve::ServeResponse> response;
};

InFlight
submit(serve::HeServer &server, Req req)
{
    InFlight f;
    f.sent = Clock::now();
    auto sub = server.submit(req.tenant, req.op, req.a, req.b);
    f.accepted = sub.status == serve::SubmitStatus::Accepted;
    if (f.accepted)
        f.response = std::move(sub.response);
    f.req = std::move(req);
    return f;
}

/** A completed request kept for the off-path runSerial comparison. */
struct BitCheck
{
    Req req;
    uint64_t seq;
    Slots values;
};

void
openLoop(Rig &rig, const ServeSpec &spec, RequestStream &stream,
         Rng &sampler, double seconds, Record &rec, const std::string &p,
         std::vector<BitCheck> &checks)
{
    // The whole schedule is drawn before the clock starts, so the
    // generator's only work on the timed path is sleep + submit.
    std::vector<double> due_s;
    std::vector<Req> reqs;
    for (double t = 0;;) {
        t += -std::log(1.0 - stream.uniform()) / spec.rate;
        if (t >= seconds)
            break;
        due_s.push_back(t);
        reqs.push_back(stream.next());
    }

    serve::HeServer &server = *rig.server;
    const auto snap = rig.topology->snapshot();
    const serve::ServerStats before = server.stats();

    std::vector<InFlight> sent;
    std::vector<double> lag_us, submit_us;
    sent.reserve(reqs.size());
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    for (size_t i = 0; i < reqs.size(); ++i) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(due_s[i]));
        std::this_thread::sleep_until(due);
        InFlight f = submit(server, std::move(reqs[i]));
        lag_us.push_back(usBetween(due, f.sent));
        submit_us.push_back(usBetween(f.sent, Clock::now()));
        sent.push_back(std::move(f));
    }

    for (size_t i = 0; i < sent.size(); ++i) {
        InFlight &f = sent[i];
        rec.add(p + "open.lag_us", lag_us[i]);
        rec.add(p + "open.submit_us", submit_us[i]);
        rec.add(p + "open.accepted", f.accepted ? 1 : 0);
        rec.add(p + "open.mulct", f.req.op == RequestOp::MulCtRescale);
        if (!f.accepted) {
            rec.add(p + "open.total_us", NAN);
            rec.add(p + "open.queue_us", NAN);
            rec.add(p + "open.service_us", NAN);
            rec.add(p + "open.correct", 0);
            continue;
        }
        serve::ServeResponse resp = f.response.get();
        rec.add(p + "open.total_us", resp.totalMicros);
        rec.add(p + "open.queue_us", resp.queueMicros);
        rec.add(p + "open.service_us", resp.serviceMicros);
        rec.add(p + "open.correct",
                productError(resp.values, f.req.a, f.req.b) <=
                    kProductTolerance);
        if (sampler.below64(kBitCheckEvery) == 0)
            checks.push_back({std::move(f.req), resp.seq,
                              std::move(resp.values)});
    }

    const DeviceStats d = RpuTopology::aggregate(rig.topology->since(snap));
    const serve::ServerStats s = server.stats();
    rec.set(p + "ledger.launches", double(d.launches));
    rec.set(p + "ledger.staged_words", double(d.stagedWords));
    rec.set(p + "ledger.kernel_hits", double(d.kernelHits));
    rec.set(p + "ledger.kernel_misses", double(d.kernelMisses));
    rec.set(p + "ledger.contended_launches", double(d.contendedLaunches));
    rec.set(p + "ledger.cached_kernels",
            double(rig.topology->device(0)->cachedKernels()));
    rec.set(p + "server.completed", double(s.completed - before.completed));
    rec.set(p + "server.failed", double(s.failed - before.failed));
    rec.set(p + "server.chunks", double(s.chunks - before.chunks));
    rec.set(p + "server.coalesced_requests",
            double(s.coalescedRequests - before.coalescedRequests));
    rec.set(p + "server.split_chunks",
            double(s.splitChunks - before.splitChunks));
    rec.set(p + "server.stolen_chunks",
            double(s.stolenChunks - before.stolenChunks));
}

/** Keep kSaturationDepth requests outstanding for @p seconds; count
 *  the completions that land inside the window. */
void
saturate(Rig &rig, RequestStream &stream, double seconds, Record &rec,
         const std::string &p)
{
    serve::HeServer &server = *rig.server;
    std::deque<InFlight> outstanding;
    size_t attempted = 0, failed = 0, in_window = 0;
    const auto t0 = Clock::now();
    const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    auto send = [&] {
        ++attempted;
        InFlight f = submit(server, stream.next());
        if (f.accepted)
            outstanding.push_back(std::move(f));
        else
            ++failed;
    };
    for (size_t i = 0; i < kSaturationDepth; ++i)
        send();
    while (!outstanding.empty()) {
        InFlight f = std::move(outstanding.front());
        outstanding.pop_front();
        const serve::ServeResponse resp = f.response.get();
        const auto done =
            f.sent + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(
                             resp.totalMicros));
        if (done <= t_end)
            ++in_window;
        if (productError(resp.values, f.req.a, f.req.b) > kProductTolerance)
            ++failed;
        if (Clock::now() < t_end)
            send();
    }
    rec.set(p + "sat.completed", double(in_window));
    rec.set(p + "sat.seconds", seconds);
    rec.set(p + "sat.attempted", double(attempted));
    rec.set(p + "sat.failed", double(failed));
}

/** The deterministic ledger replay on a freshly set-up paused rig. */
void
replay(Rig &rig, const ServeSpec &spec, Record &rec, const std::string &p)
{
    Rng rng(0x5eedf100ull); // fixed request set, whatever the seed
    std::vector<InFlight> sent;
    const auto block = requestBlock(spec, rig);
    for (size_t i = 0; i < kReplayRequests; ++i) {
        Req r;
        std::tie(r.tenant, r.op) = block[i % block.size()];
        r.a = randomSlots(rng, kSlots);
        r.b = randomSlots(rng, kSlots);
        sent.push_back(submit(*rig.server, std::move(r)));
    }
    const auto snap = rig.topology->snapshot();
    rig.server->shutdown(); // starts the paused dispatcher, drains
    size_t failed = 0;
    for (InFlight &f : sent) {
        if (!f.accepted ||
            productError(f.response.get().values, f.req.a, f.req.b) >
                kProductTolerance)
            ++failed;
    }
    const RpuTopology::Snapshot since = rig.topology->since(snap);
    rec.set(p + "replay.requests", double(kReplayRequests));
    rec.set(p + "replay.failed", double(failed));
    rec.set(p + "replay.devices", double(rig.topology->size()));
    rec.set(p + "replay.makespan_cycles",
            double(RpuTopology::makespanCycles(since)));
    rec.set(p + "replay.busy_cycles",
            double(RpuTopology::aggregate(since).busyCycleTotal()));
}

/** runSerial on a sampled set of served requests, off the timed path:
 *  every result must be bit-identical to what the server returned. */
void
bitCheck(Rig &rig, const std::vector<BitCheck> &checks, Record &rec,
         const std::string &p)
{
    size_t mismatched = 0, mulct = 0;
    for (const BitCheck &c : checks) {
        const serve::Session *sess = rig.server->tenant(c.req.tenant);
        if (sess->runSerial(c.req.op, c.req.a, c.req.b, c.seq) != c.values)
            ++mismatched;
        mulct += c.req.op == RequestOp::MulCtRescale;
    }
    rec.set(p + "check.sampled", double(checks.size()));
    rec.set(p + "check.sampled_mulct", double(mulct));
    rec.set(p + "check.mismatched", double(mismatched));
}

/**
 * The traced replay: kTracedSamples requests, one at a time, each
 * through HeServer::submit and then through a span-split copy of
 * Session::runSerial (encrypt / op / rescale / decrypt), whose device
 * launches the traced backend decomposes further. Each request's
 * runSerial is also timed against a context on a plain device: the
 * pair gives the tracing overhead.
 */
void
tracedSample(Rig &rig, RequestStream &stream, Record &rec,
             const std::string &p)
{
    std::map<std::string, std::unique_ptr<CkksContext>> plain;
    for (uint64_t id : rig.tenants) {
        const serve::Session &sess = *rig.server->tenant(id);
        auto &ctx = plain[sess.kernelClass()];
        if (ctx)
            continue;
        ctx = std::make_unique<CkksContext>(sess.config().params);
        ctx->attachDevice(std::make_shared<RpuDevice>());
        const Slots warm(kSlots, {0.5, 0.25});
        (void)sess.runSerialWith(*ctx, RequestOp::MulPlainRescale, warm,
                                 warm, 0);
        (void)sess.runSerialWith(*ctx, RequestOp::MulCtRescale, warm,
                                 warm, 0);
    }

    Tracer &tr = Tracer::instance();
    for (size_t k = 0; k < kTracedSamples; ++k) {
        const Req r = stream.next();
        const uint64_t request = k + 1;
        const serve::Session &sess = *rig.server->tenant(r.tenant);
        const CkksContext &pctx = *plain.at(sess.kernelClass());

        auto plain_run = [&] {
            const auto t0 = Clock::now();
            (void)sess.runSerialWith(pctx, r.op, r.a, r.b, 0);
            rec.add(p + "trace.plain_us", usBetween(t0, Clock::now()));
        };
        if (k % 2 == 1)
            plain_run();

        tr.setRecording(true);
        serve::ServeResponse resp;
        {
            SpanScope root("serve.request", request);
            const double s0 = nowUs();
            serve::Submission sub;
            {
                SpanScope s("serve.submit");
                sub = rig.server->submit(r.tenant, r.op, r.a, r.b);
            }
            if (sub.status != serve::SubmitStatus::Accepted) {
                rec.add(p + "trace.correct", 0);
                tr.setRecording(false);
                continue;
            }
            resp = sub.response.get();
            const double q_end = s0 + resp.queueMicros;
            tr.record("serve.queue", s0, q_end, root.id(), request);
            const uint64_t svc =
                tr.record("serve.service", q_end, q_end + resp.serviceMicros,
                          root.id(), request);
            tr.reparent(root.id(), svc, q_end);
        }
        Slots replica;
        const auto t0 = Clock::now();
        {
            SpanScope rs("session.run_serial", request);
            const CkksContext &ctx = sess.ctx();
            Rng req_rng = sess.requestRng(resp.seq);
            CkksCiphertext ct, prod, out;
            {
                SpanScope s("ckks.encrypt");
                ct = ctx.encrypt(sess.secretKey(), r.a, req_rng);
            }
            if (r.op == RequestOp::MulPlainRescale) {
                SpanScope s("ckks.mul_plain");
                prod = ctx.mulPlain(ct, ctx.encodePlain(r.b, ct.towers()));
            } else {
                CkksCiphertext ct_b;
                {
                    SpanScope s("ckks.encrypt");
                    ct_b = ctx.encrypt(sess.secretKey(), r.b, req_rng);
                }
                SpanScope s("ckks.mul_ct");
                prod = ctx.mulCt(ct, ct_b, sess.relinKey());
            }
            {
                SpanScope s("ckks.rescale");
                out = ctx.rescale(prod);
            }
            SpanScope s("ckks.decrypt");
            replica = ctx.decrypt(sess.secretKey(), out);
        }
        rec.add(p + "trace.traced_us", usBetween(t0, Clock::now()));
        tr.setRecording(false);
        if (k % 2 == 0)
            plain_run();
        rec.add(p + "trace.correct", replica == resp.values);
    }
}

void
runServe(const ServeSpec &spec, const Phases &ph, const Args &args,
         Record &rec, const std::string &p)
{
    rec.set(p + "spec.rate", spec.rate);
    rec.set(p + "spec.limit_ms", spec.limitMs);
    rec.set(p + "spec.devices", double(spec.devices));

    serve::ServeConfig live;
    live.dispatchers = spec.dispatchers;
    serve::ServeConfig paused;
    paused.dispatchers = 1;
    paused.startPaused = true;

    Rig rig;
    for (size_t rep = 0; rep < ph.setupReps; ++rep) {
        rig = Rig(); // tear the previous rig down before timing
        const auto t0 = Clock::now();
        rig = buildRig(spec, rep == 0 ? paused : live, args.trace);
        rec.add(p + "setup_s", usBetween(t0, Clock::now()) * 1e-6);
        if (rep == 0)
            replay(rig, spec, rec, p);
    }

    RequestStream stream(spec, rig, args.seed);
    // Warm-up: one request block, one request at a time, untimed.
    for (size_t i = 0; i < requestBlock(spec, rig).size(); ++i) {
        InFlight f = submit(*rig.server, stream.next());
        if (f.accepted)
            (void)f.response.get();
    }
    Rng sampler(args.seed ^ 0xb17c4ec5ull);
    std::vector<BitCheck> checks;
    openLoop(rig, spec, stream, sampler, ph.openSeconds, rec, p, checks);
    saturate(rig, stream, ph.satSeconds, rec, p);
    bitCheck(rig, checks, rec, p);
    if (args.trace)
        tracedSample(rig, stream, rec, p);
}

} // namespace

void
runServeSmall(const Args &args, Record &rec)
{
    runServe(kServeSmall, {0.75 * args.seconds, 0.25 * args.seconds, 7},
             args, rec, "");
}

void
runServeMixed(const Args &args, Record &rec)
{
    runServe(kServeMixed, {0.75 * args.seconds, 0.25 * args.seconds, 7},
             args, rec, "");
}

void
runServeProbe(const Args &args, Record &rec)
{
    Args probe = args;
    probe.trace = false; // serve-layer counters only; no second replay
    runServe(kServeMixed, {3.0, 0.5, 2}, probe, rec, "probe.");
}

} // namespace rpubench
