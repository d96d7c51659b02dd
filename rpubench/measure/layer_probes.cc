/**
 * @file
 * Fixed-shape per-layer probes, identical in every traced run: device
 * launches of the four kernel images the workloads lean on (with
 * their codegen time and the traced backend's state-init / interpret
 * split), host NTTs, the RLWE operations one by one, and the thread
 * pool. Each is timed from outside, through the layer's public calls.
 */
#include <algorithm>

#include "common.hh"
#include "modmath/primegen.hh"
#include "rpu/thread_pool.hh"
#include "trace.hh"

namespace rpubench {

using namespace rpu;

namespace {

struct ImageProbe
{
    const char *name;
    KernelKind kind;
    uint64_t n;
    std::vector<u128> moduli;
    size_t launches;
};

/** Time @p op @p reps times into the series @p key (scaled by
 *  @p scale from microseconds). */
template <typename F>
void
timeInto(Record &rec, const std::string &key, size_t reps, F &&op,
         double scale = 1.0)
{
    for (size_t i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        op();
        rec.add(key, usBetween(t0, Clock::now()) * scale);
    }
}

void
probeImages(Rng &rng, const CkksContext &small, const CkksContext &large,
            Record &rec)
{
    const std::vector<ImageProbe> probes = {
        {"pointwise_n1024_t3", KernelKind::PointwiseMulBatched, 1024,
         small.basis().primes(), 40},
        {"ntt_n1024_t3", KernelKind::BatchedForwardNtt, 1024,
         small.basis().primes(), 40},
        {"ntt_n4096_t4", KernelKind::BatchedForwardNtt, 4096,
         large.basis().primes(), 15},
        {"ntt_n65536", KernelKind::ForwardNtt, 65536,
         {nttPrime(124, 65536)}, 5},
    };
    RpuDevice dev(std::make_unique<TracedSimBackend>());
    for (const ImageProbe &pr : probes) {
        const std::string k = pr.name;
        const KernelImage *img = nullptr;
        timeInto(rec, "layer.codegen_ms." + k, 1,
                 [&] { img = &dev.kernel(pr.kind, pr.n, pr.moduli); }, 1e-3);

        const u128 bound = *std::min_element(pr.moduli.begin(), pr.moduli.end());
        std::vector<std::vector<u128>> inputs;
        for (const DataRegion *r : img->inputRegions()) {
            std::vector<u128> x(r->words);
            for (auto &v : x)
                v = rng.below128(bound);
            inputs.push_back(std::move(x));
        }
        (void)dev.launch(*img, inputs); // warm the modulus contexts
        resetKernelExecStats();
        timeInto(rec, "layer.launch_us." + k, pr.launches,
                 [&] { (void)dev.launch(*img, inputs); });
        const KernelExecStats s = kernelExecStats().at(kernelLabel(*img));
        for (size_t i = 0; i < s.launches; ++i) {
            rec.add("layer.state_init_us." + k, s.stateInitUs[i]);
            rec.add("layer.run_us." + k, s.runUs[i]);
        }
        rec.set("layer.inst_per_launch." + k,
                double(s.instructions) / double(s.launches));
        rec.set("layer.lane_ops_per_launch." + k,
                double(s.laneOps) / double(s.launches));
    }
}

void
probeHostNtt(Rng &rng, const CkksContext &ctx, const std::string &key,
             size_t reps, Record &rec)
{
    const NttContext &ntt = ctx.hostNtt(0);
    const u128 q = ctx.basis().primes()[0];
    std::vector<u128> x(ctx.params().n);
    for (auto &v : x)
        v = rng.below128(q);
    for (size_t i = 0; i < reps; ++i) {
        std::vector<u128> y = x;
        const auto t0 = Clock::now();
        ntt.forward(y);
        rec.add("layer.host_ntt_us." + key, usBetween(t0, Clock::now()));
    }
}

/** The RLWE layer at the n=4096, L=4 shape, on a serial device. */
void
probeRlwe(Rng &rng, Record &rec)
{
    const CkksParams params = ckksParams(4096, 4);
    constexpr size_t reps = 5;
    CkksContext ctx(params, 11);
    ctx.attachDevice(std::make_shared<RpuDevice>());
    CkksSecretKey sk;
    timeInto(rec, "layer.keygen_ms", 3, [&] { sk = ctx.keygen(); }, 1e-3);
    RelinKey rk;
    timeInto(rec, "layer.relin_keygen_ms", 3,
             [&] { rk = ctx.makeRelinKey(sk, 30); }, 1e-3);

    const Slots a = randomSlots(rng, 64), b = randomSlots(rng, 64);
    const CkksPlaintext pt = ctx.encodePlain(b, params.towers);
    CkksCiphertext ca = ctx.encrypt(sk, a, rng);
    const CkksCiphertext cb = ctx.encrypt(sk, b, rng);
    (void)ctx.rescale(ctx.mulCt(ca, cb, rk)); // warm every kernel
    (void)ctx.rescale(ctx.mulPlain(ca, pt));

    timeInto(rec, "layer.encrypt_us", reps,
             [&] { ca = ctx.encrypt(sk, a, rng); });
    CkksCiphertext prod;
    timeInto(rec, "layer.mul_plain_us", reps,
             [&] { prod = ctx.mulPlain(ca, pt); });
    timeInto(rec, "layer.mul_ct_us", reps,
             [&] { prod = ctx.mulCt(ca, cb, rk); });
    const RlweEvaluator &ev = ctx.evaluator();
    const auto d = ev.tensorPair(ca.c0, ca.c1, cb.c0, cb.c1);
    timeInto(rec, "layer.relin_us", reps,
             [&] { (void)ev.relinearise(d[0], d[1], d[2], rk); });
    CkksCiphertext out;
    timeInto(rec, "layer.rescale_us", reps, [&] { out = ctx.rescale(prod); });
    timeInto(rec, "layer.decrypt_us", reps,
             [&] { (void)ctx.decrypt(sk, out); });

    const DeviceStats before = ctx.device()->stats();
    (void)ctx.rescale(ctx.mulCt(ca, cb, rk));
    const DeviceStats op = ctx.device()->statsSince(before);
    rec.set("layer.transforms_per_op", double(op.transformsIssued()));
    rec.set("layer.keyswitch_transforms_per_op",
            double(op.keySwitchTransforms));

    // Pool: one empty job's round trip, and the same mulCt + rescale
    // on a 4-worker device against the serial one above.
    ThreadPool pool(4);
    for (int i = 0; i < 20; ++i)
        (void)pool.submit([] { return 0; }).get();
    timeInto(rec, "layer.pool_roundtrip_us", 400,
             [&] { (void)pool.submit([] { return 0; }).get(); });
    CkksContext pooled(params, 11);
    auto pooled_dev = std::make_shared<RpuDevice>();
    pooled_dev->setParallelism(4);
    pooled.attachDevice(pooled_dev);
    (void)pooled.rescale(pooled.mulCt(ca, cb, rk));
    for (size_t i = 0; i < reps; ++i) {
        timeInto(rec, "layer.pool_serial_op_us", 1,
                 [&] { (void)ctx.rescale(ctx.mulCt(ca, cb, rk)); });
        timeInto(rec, "layer.pool_pooled_op_us", 1,
                 [&] { (void)pooled.rescale(pooled.mulCt(ca, cb, rk)); });
    }
}

} // namespace

void
runLayerProbes(const Args &args, Record &rec)
{
    Rng rng(args.seed ^ 0x1a7e5ull);
    const CkksContext small(ckksParams(1024, 3));
    const CkksContext large(ckksParams(4096, 4));
    probeImages(rng, small, large, rec);
    probeHostNtt(rng, small, "n1024", 200, rec);
    probeHostNtt(rng, large, "n4096", 50, rec);
    probeRlwe(rng, rec);
}

} // namespace rpubench
