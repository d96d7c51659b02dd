/**
 * @file
 * The two closed-loop workloads without a serve layer.
 *
 * ntt_paper: forward 64K NTT launches over a 124-bit modulus on one
 * functional-sim device at the default (128, 128) design point — the
 * paper's headline kernel, almost pure interpretation. Every output
 * is checked against the host NttContext.
 *
 * ckks_pool: CKKS mulCt + rescale at n=4096, L=4 on one device with a
 * 4-worker pool, the only path that exercises ThreadPool and the
 * pooled per-tower dispatch. Every result must be bit-identical to a
 * serial-device golden run of the same inputs.
 */
#include "common.hh"
#include "model/comparisons.hh"
#include "modmath/primegen.hh"
#include "trace.hh"

namespace rpubench {

using namespace rpu;

namespace {

constexpr uint64_t kPaperN = 65536;
constexpr unsigned kPaperBits = 124;
constexpr size_t kSetupReps = 7;
constexpr size_t kTracedSamples = 4;
constexpr size_t kPoolPairs = 4;
constexpr size_t kPoolSlots = 64;
constexpr unsigned kPoolWorkers = 4;

double
cyclesToUs(double cycles)
{
    return cycles / (designClockGhz() * 1e3);
}

void
recordLedger(const DeviceStats &d, double ops, Record &rec)
{
    rec.set("ledger.ops", ops);
    rec.set("ledger.launches", double(d.launches));
    rec.set("ledger.staged_words", double(d.stagedWords));
    rec.set("ledger.kernel_hits", double(d.kernelHits));
    rec.set("ledger.kernel_misses", double(d.kernelMisses));
    rec.set("ledger.contended_launches", double(d.contendedLaunches));
    rec.set("ledger.busy_makespan_cycles", double(d.busyMakespanCycles()));
    rec.set("ledger.busy_cycles", double(d.busyCycleTotal()));
    rec.set("ledger.transforms", double(d.transformsIssued()));
    rec.set("ledger.keyswitch_transforms", double(d.keySwitchTransforms));
}

std::vector<u128>
randomPoly(Rng &rng, u128 q, uint64_t n)
{
    std::vector<u128> x(n);
    for (auto &v : x)
        v = rng.below128(q);
    return x;
}

/** Run @p step(i) for i = 0, 1, ... until @p seconds of wall time
 *  have passed; returns the number of steps. */
template <typename F>
size_t
repeatFor(double seconds, F &&step)
{
    const auto t_end = Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    size_t ops = 0;
    while (Clock::now() < t_end)
        step(ops++);
    return ops;
}

/** Untimed ops before a closed loop, so allocator and pool state
 *  settle first. */
constexpr double kWarmSeconds = 0.5;

} // namespace

void
recordPaperModel(Record &rec)
{
    RpuDevice dev;
    const KernelImage &img =
        dev.kernel(KernelKind::ForwardNtt, kPaperN, {nttPrime(kPaperBits, kPaperN)});
    rec.set("model.ntt64k_cycles", double(img.modelCycles));
    rec.set("model.ntt64k_us", cyclesToUs(double(img.modelCycles)));
    rec.set("model.paper_ntt64k_us", paperReference().ntt64kRuntimeUs);
}

void
runNttPaper(const Args &args, Record &rec)
{
    std::shared_ptr<RpuDevice> dev;
    const KernelImage *img = nullptr;
    const u128 q = nttPrime(kPaperBits, kPaperN);
    Rng warm_rng(0x3a3a);
    const std::vector<u128> warm = randomPoly(warm_rng, q, kPaperN);
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
        dev.reset();
        const auto t0 = Clock::now();
        dev = std::make_shared<RpuDevice>(makeBackend(args.trace));
        img = &dev->kernel(KernelKind::ForwardNtt, kPaperN, {q});
        (void)dev->nttContext(kPaperN, q);
        (void)dev->launch(*img, {warm});
        rec.add("setup_s", usBetween(t0, Clock::now()) * 1e-6);
    }
    rec.set("model.us_per_op", cyclesToUs(double(img->modelCycles)));
    rec.set("spec.limit_ms", 100.0);

    const NttContext &ref = dev->nttContext(kPaperN, q);
    Rng rng(args.seed);
    repeatFor(kWarmSeconds, [&](size_t) { (void)dev->launch(*img, {warm}); });
    const DeviceStats before = dev->stats();
    const size_t ops = repeatFor(args.seconds, [&](size_t) {
        const std::vector<u128> x = randomPoly(rng, q, kPaperN);
        const auto t0 = Clock::now();
        const auto out = dev->launch(*img, {x});
        rec.add("closed.op_us", usBetween(t0, Clock::now()));
        std::vector<u128> want = x;
        ref.forward(want);
        rec.add("closed.correct", out.at(0) == want);
    });
    recordLedger(dev->statsSince(before), double(ops), rec);
    rec.set("ledger.cached_kernels", double(dev->cachedKernels()));

    if (!args.trace)
        return;
    RpuDevice plain;
    const KernelImage &plain_img = plain.kernel(KernelKind::ForwardNtt, kPaperN, {q});
    (void)plain.launch(plain_img, {warm});
    Tracer &tr = Tracer::instance();
    for (size_t k = 0; k < kTracedSamples; ++k) {
        const std::vector<u128> x = randomPoly(rng, q, kPaperN);
        auto plain_run = [&] {
            const auto t0 = Clock::now();
            (void)plain.launch(plain_img, {x});
            rec.add("trace.plain_us", usBetween(t0, Clock::now()));
        };
        if (k % 2 == 1)
            plain_run();
        tr.setRecording(true);
        const auto t0 = Clock::now();
        std::vector<std::vector<u128>> out;
        {
            SpanScope root("device.launch", k + 1);
            out = dev->launch(*img, {x});
        }
        rec.add("trace.traced_us", usBetween(t0, Clock::now()));
        tr.setRecording(false);
        if (k % 2 == 0)
            plain_run();
        std::vector<u128> want = x;
        ref.forward(want);
        rec.add("trace.correct", out.at(0) == want);
    }
}

void
runCkksPool(const Args &args, Record &rec)
{
    const CkksParams params = ckksParams(4096, 4);
    std::shared_ptr<RpuDevice> dev;
    std::unique_ptr<CkksContext> ctx;
    CkksSecretKey sk;
    RelinKey rk;
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
        ctx.reset();
        dev.reset();
        const auto t0 = Clock::now();
        dev = std::make_shared<RpuDevice>(makeBackend(args.trace));
        dev->setParallelism(kPoolWorkers);
        ctx = std::make_unique<CkksContext>(params, 7);
        ctx->attachDevice(dev);
        sk = ctx->keygen();
        rk = ctx->makeRelinKey(sk, 30);
        // Prewarm: one op generates and cycle-stamps every kernel.
        const Slots w(kPoolSlots, {0.5, 0.25});
        const CkksCiphertext cw = ctx->encrypt(sk, w);
        (void)ctx->rescale(ctx->mulCt(cw, cw, rk));
        rec.add("setup_s", usBetween(t0, Clock::now()) * 1e-6);
    }
    rec.set("spec.limit_ms", 100.0);

    // Seeded inputs, and their golden products from a serial device.
    Rng rng(args.seed);
    std::vector<Slots> a, b;
    std::vector<CkksCiphertext> ca, cb, golden;
    CkksContext serial(params, 7);
    serial.attachDevice(std::make_shared<RpuDevice>());
    size_t golden_bad = 0;
    for (size_t i = 0; i < kPoolPairs; ++i) {
        a.push_back(randomSlots(rng, kPoolSlots));
        b.push_back(randomSlots(rng, kPoolSlots));
        ca.push_back(ctx->encrypt(sk, a[i], rng));
        cb.push_back(ctx->encrypt(sk, b[i], rng));
        golden.push_back(serial.rescale(serial.mulCt(ca[i], cb[i], rk)));
        golden_bad += productError(ctx->decrypt(sk, golden[i]), a[i], b[i]) >
                      kProductTolerance;
    }
    rec.set("check.golden_bad", double(golden_bad));

    repeatFor(kWarmSeconds, [&](size_t i) {
        (void)ctx->rescale(ctx->mulCt(ca[i % kPoolPairs], cb[i % kPoolPairs], rk));
    });
    const DeviceStats before = dev->stats();
    const size_t ops = repeatFor(args.seconds, [&](size_t i) {
        const size_t k = i % kPoolPairs;
        const auto t0 = Clock::now();
        const CkksCiphertext r = ctx->rescale(ctx->mulCt(ca[k], cb[k], rk));
        rec.add("closed.op_us", usBetween(t0, Clock::now()));
        rec.add("closed.correct", r.c0 == golden[k].c0 &&
                                      r.c1 == golden[k].c1 &&
                                      r.scale == golden[k].scale);
    });
    const DeviceStats d = dev->statsSince(before);
    recordLedger(d, double(ops), rec);
    rec.set("ledger.cached_kernels", double(dev->cachedKernels()));
    rec.set("model.us_per_op",
            cyclesToUs(double(d.busyMakespanCycles())) / double(ops));

    if (!args.trace)
        return;
    auto plain_dev = std::make_shared<RpuDevice>();
    plain_dev->setParallelism(kPoolWorkers);
    CkksContext plain(params, 7);
    plain.attachDevice(plain_dev);
    (void)plain.rescale(plain.mulCt(ca[0], cb[0], rk));
    Tracer &tr = Tracer::instance();
    for (size_t k = 0; k < kTracedSamples; ++k) {
        const size_t pair = k % kPoolPairs;
        auto plain_run = [&] {
            const auto t0 = Clock::now();
            (void)plain.rescale(plain.mulCt(ca[pair], cb[pair], rk));
            rec.add("trace.plain_us", usBetween(t0, Clock::now()));
        };
        if (k % 2 == 1)
            plain_run();
        tr.setRecording(true);
        const auto t0 = Clock::now();
        CkksCiphertext r;
        {
            SpanScope root("ckks.op", k + 1);
            CkksCiphertext prod;
            {
                SpanScope s("ckks.mul_ct");
                prod = ctx->mulCt(ca[pair], cb[pair], rk);
            }
            SpanScope s("ckks.rescale");
            r = ctx->rescale(prod);
        }
        rec.add("trace.traced_us", usBetween(t0, Clock::now()));
        tr.setRecording(false);
        if (k % 2 == 0)
            plain_run();
        rec.add("trace.correct",
                r.c0 == golden[pair].c0 && r.c1 == golden[pair].c1);
    }
}

} // namespace rpubench
