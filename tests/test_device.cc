/**
 * @file
 * The RpuDevice backend layer: kernel-cache semantics, shared numeric
 * context caches, backend equivalence (functional simulator vs CPU
 * reference baseline), batched tower launches, and the BFV RNS-tower
 * multiply path that makes the simulated RPU the execution engine of
 * the HE pipeline, and resident simulator state reused across
 * interleaved, serial and pooled launches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>
#include <thread>

#include "modmath/primegen.hh"
#include "rlwe/bfv.hh"
#include "rlwe_test_util.hh"
#include "rpu/device.hh"
#include "rpu/runner.hh"

namespace rpu {
namespace {

TEST(KernelCache, HitMissSemantics)
{
    RpuDevice dev;
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);

    const KernelImage &fwd = dev.kernel(KernelKind::ForwardNtt, n, {q});
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, 0u);

    // Same spec: a hit, and the very same image.
    const KernelImage &again =
        dev.kernel(KernelKind::ForwardNtt, n, {q});
    EXPECT_EQ(&fwd, &again);
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, 1u);

    // Different kind, codegen flavour, or modulus: all misses.
    dev.kernel(KernelKind::InverseNtt, n, {q});
    dev.kernel(KernelKind::ForwardNtt, n, {q}, {.optimized = false});
    dev.kernel(KernelKind::ForwardNtt, n, {nttPrime(59, n)});
    EXPECT_EQ(dev.counters().kernelMisses, 4u);
    EXPECT_EQ(dev.cachedKernels(), 4u);

    // A different design point reschedules, so it is a distinct kernel.
    NttCodegenOptions opts;
    opts.scheduleConfig.numHples = 32;
    dev.kernel(KernelKind::ForwardNtt, n, {q}, opts);
    EXPECT_EQ(dev.counters().kernelMisses, 5u);

    // ... but unoptimized generation never consults the design point,
    // so sweeping it must keep hitting the one unoptimized kernel.
    NttCodegenOptions unopt;
    unopt.optimized = false;
    unopt.scheduleConfig.numHples = 32;
    dev.kernel(KernelKind::ForwardNtt, n, {q}, unopt);
    EXPECT_EQ(dev.counters().kernelMisses, 5u);
    EXPECT_EQ(dev.counters().kernelHits, 2u);
}

TEST(KernelCache, LaunchesShareKernelsAndModulusContexts)
{
    RpuDevice dev;
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);
    Rng rng(7);
    const auto x = randomPoly(Modulus(q), n, rng);

    dev.ntt(n, q, x);
    const size_t contexts_after_first = dev.modulusCache().size();
    EXPECT_GT(contexts_after_first, 0u);

    dev.ntt(n, q, x);
    // Second launch: kernel cache hit, and no Montgomery context is
    // rebuilt (the per-launch rebuild this layer was added to fix).
    EXPECT_EQ(dev.counters().launches, 2u);
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, 1u);
    EXPECT_EQ(dev.modulusCache().size(), contexts_after_first);
}

/** Fused negacyclic product of @p a and @p b in one PolyMul launch. */
std::vector<u128>
polyMul(RpuDevice &dev, uint64_t n, u128 q, const std::vector<u128> &a,
        const std::vector<u128> &b)
{
    return dev.launch(dev.kernel(KernelKind::PolyMul, n, {q}), {a, b})[0];
}

/** Every tower's fused product in one BatchedPolyMul launch (regions
 *  t0.a, t0.b, t1.a, t1.b, ...). */
std::vector<std::vector<u128>>
batchedPolyMul(RpuDevice &dev, uint64_t n, const std::vector<u128> &primes,
               const std::vector<std::vector<u128>> &a,
               const std::vector<std::vector<u128>> &b)
{
    std::vector<std::vector<u128>> in;
    for (size_t t = 0; t < primes.size(); ++t) {
        in.push_back(a[t]);
        in.push_back(b[t]);
    }
    return dev.launch(dev.kernel(KernelKind::BatchedPolyMul, n, primes),
                      in);
}

/** One single-ring PolyMul request per tower, for launchAll. */
std::vector<LaunchRequest>
perTowerPolyMul(RpuDevice &dev, uint64_t n,
                const std::vector<u128> &primes,
                const std::vector<std::vector<u128>> &a,
                const std::vector<std::vector<u128>> &b)
{
    std::vector<LaunchRequest> batch;
    for (size_t t = 0; t < primes.size(); ++t) {
        batch.push_back({&dev.kernel(KernelKind::PolyMul, n, {primes[t]}),
                         {a[t], b[t]}});
    }
    return batch;
}

class BackendEquivalence : public testing::TestWithParam<uint64_t>
{
};

TEST_P(BackendEquivalence, FunctionalSimMatchesCpuReference)
{
    const uint64_t n = GetParam();
    const u128 q = nttPrime(100, n);
    RpuDevice sim; // default: functional simulator
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());

    Rng rng(n);
    const auto a = randomPoly(Modulus(q), n, rng);
    const auto b = randomPoly(Modulus(q), n, rng);

    // Forward, inverse, and the fused negacyclic product must be
    // bit-identical across backends.
    const auto fwd_sim = sim.ntt(n, q, a);
    EXPECT_EQ(fwd_sim, ref.ntt(n, q, a));
    EXPECT_EQ(sim.ntt(n, q, fwd_sim, true),
              ref.ntt(n, q, fwd_sim, true));
    EXPECT_EQ(polyMul(sim, n, q, a, b), polyMul(ref, n, q, a, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BackendEquivalence,
                         testing::Values(1024ull, 2048ull, 4096ull));

TEST(BatchedPolyMul, MatchesPerTowerReference)
{
    const uint64_t n = 1024;
    const size_t towers = 3;
    const auto primes = nttPrimes(60, n, towers);

    RpuDevice dev;
    Rng rng(21);
    std::vector<std::vector<u128>> a, b;
    for (u128 q : primes) {
        const Modulus mod(q);
        a.push_back(randomPoly(mod, n, rng));
        b.push_back(randomPoly(mod, n, rng));
    }

    const auto products = batchedPolyMul(dev, n, primes, a, b);
    ASSERT_EQ(products.size(), towers);
    EXPECT_EQ(dev.counters().launches, 1u);
    EXPECT_EQ(dev.counters().towerLaunches, towers);

    for (size_t t = 0; t < towers; ++t) {
        const Modulus mod(primes[t]);
        const TwiddleTable tw(mod, n);
        const NttContext ntt(tw);
        EXPECT_EQ(products[t], negacyclicMulNtt(ntt, a[t], b[t]))
            << "tower " << t;
    }
}

TEST(BatchedPolyMul, EquivalentAcrossBackends)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(58, n, 2);
    RpuDevice sim;
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());

    Rng rng(5);
    std::vector<std::vector<u128>> a, b;
    for (u128 q : primes) {
        const Modulus mod(q);
        a.push_back(randomPoly(mod, n, rng));
        b.push_back(randomPoly(mod, n, rng));
    }
    EXPECT_EQ(batchedPolyMul(sim, n, primes, a, b),
              batchedPolyMul(ref, n, primes, a, b));
}

TEST(KernelCache, EveryScheduleFieldIsKeyed)
{
    // Regression for a key that omitted an RpuConfig field: two
    // design points differing in any single field must never alias
    // to one cached kernel.
    RpuDevice dev;
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);

    NttCodegenOptions base;
    dev.kernel(KernelKind::ForwardNtt, n, {q}, base);

    const std::vector<std::function<void(RpuConfig &)>> mutations = {
        [](RpuConfig &c) { c.numHples = 64; },
        [](RpuConfig &c) { c.numBanks = 64; },
        [](RpuConfig &c) { c.vdmBytes = 8ull << 20; },
        [](RpuConfig &c) { c.mulLatency = 7; },
        [](RpuConfig &c) { c.mulII = 2; },
        [](RpuConfig &c) { c.addLatency = 3; },
        [](RpuConfig &c) { c.shuffleLatency = 5; },
        [](RpuConfig &c) { c.lsLatency = 5; },
        [](RpuConfig &c) { c.sdmLatency = 3; },
        [](RpuConfig &c) { c.queueDepth = 4; },
        [](RpuConfig &c) { c.dispatchWidth = 2; },
        [](RpuConfig &c) { c.exclusiveReaders = true; },
    };
    uint64_t expected_misses = 1;
    for (const auto &mutate : mutations) {
        NttCodegenOptions opts = base;
        mutate(opts.scheduleConfig);
        dev.kernel(KernelKind::ForwardNtt, n, {q}, opts);
        ++expected_misses;
        EXPECT_EQ(dev.counters().kernelMisses, expected_misses)
            << "a scheduleConfig field is missing from the kernel key";
        // Requesting the same mutated config again must hit.
        dev.kernel(KernelKind::ForwardNtt, n, {q}, opts);
    }
    EXPECT_EQ(dev.counters().kernelHits, mutations.size());
}

TEST(LaunchAll, MatchesIndividualLaunches)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(60, n, 2);
    RpuDevice dev;

    Rng rng(9);
    std::vector<LaunchRequest> batch;
    for (u128 q : primes) {
        const KernelImage &k =
            dev.kernel(KernelKind::PolyMul, n, {q});
        const Modulus mod(q);
        batch.push_back(
            {&k, {randomPoly(mod, n, rng), randomPoly(mod, n, rng)}});
    }

    const auto results = dev.launchAll(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(results[i],
                  dev.launch(*batch[i].image, batch[i].inputs));
    }
}

// ----------------------------------------------------------------------
// Parallel launches
// ----------------------------------------------------------------------

/** A batch of per-tower fused products over distinct moduli. */
std::vector<LaunchRequest>
towerBatch(RpuDevice &dev, uint64_t n, const std::vector<u128> &primes,
           uint64_t seed)
{
    Rng rng(seed);
    std::vector<LaunchRequest> batch;
    for (u128 q : primes) {
        const KernelImage &k = dev.kernel(KernelKind::PolyMul, n, {q});
        const Modulus mod(q);
        batch.push_back(
            {&k, {randomPoly(mod, n, rng), randomPoly(mod, n, rng)}});
    }
    return batch;
}

TEST(ParallelLaunch, BitIdenticalToSerial)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(60, n, 6);
    RpuDevice dev;
    const auto batch = towerBatch(dev, n, primes, 17);

    EXPECT_EQ(dev.parallelism(), 1u);
    const auto serial = dev.launchAll(batch);

    dev.setParallelism(4);
    EXPECT_EQ(dev.parallelism(), 4u);
    const auto parallel = dev.launchAll(batch);

    // Same batch, worker pool on: request-ordered and bit-identical.
    EXPECT_EQ(parallel, serial);

    // Determinism across repeated parallel runs.
    EXPECT_EQ(dev.launchAll(batch), serial);

    dev.setParallelism(1);
    EXPECT_EQ(dev.parallelism(), 1u);
    EXPECT_EQ(dev.launchAll(batch), serial);
}

TEST(ParallelLaunch, MulTowersMatchesSerial)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(58, n, 4);

    Rng rng(23);
    std::vector<std::vector<u128>> a, b;
    for (u128 q : primes) {
        const Modulus mod(q);
        a.push_back(randomPoly(mod, n, rng));
        b.push_back(randomPoly(mod, n, rng));
    }

    RpuDevice serial_dev;
    const auto serial = batchedPolyMul(serial_dev, n, primes, a, b);

    RpuDevice parallel_dev;
    parallel_dev.setParallelism(4);
    const auto per_tower = parallel_dev.launchAll(
        perTowerPolyMul(parallel_dev, n, primes, a, b));
    ASSERT_EQ(per_tower.size(), primes.size());
    for (size_t t = 0; t < primes.size(); ++t)
        EXPECT_EQ(per_tower[t][0], serial[t]) << "tower " << t;

    // The parallel path fans one launch per tower.
    EXPECT_EQ(parallel_dev.counters().launches, primes.size());
    EXPECT_EQ(parallel_dev.counters().towerLaunches, primes.size());
}

TEST(ParallelLaunch, LaunchAsyncMatchesSync)
{
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);
    RpuDevice dev;
    const KernelImage &k = dev.kernel(KernelKind::PolyMul, n, {q});

    Rng rng(29);
    const Modulus mod(q);
    const auto a = randomPoly(mod, n, rng);
    const auto b = randomPoly(mod, n, rng);
    const auto expected = dev.launch(k, {a, b});

    // Serial device: the future is already resolved.
    auto fut = dev.launchAsync(k, {a, b});
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(fut.get(), expected);

    // Pooled device: same result through a worker.
    dev.setParallelism(2);
    auto pooled = dev.launchAsync(k, {a, b});
    EXPECT_EQ(pooled.get(), expected);
}

TEST(ParallelLaunch, ConcurrentCallersStress)
{
    // >= 4 host threads hammer one 4-worker device concurrently —
    // kernel cache, context caches, counters, and the worker pool all
    // see contention; every result must still be exact.
    const uint64_t n = 1024;
    const size_t callers = 4;
    const size_t rounds = 3;
    const auto primes = nttPrimes(59, n, callers);

    RpuDevice dev;
    dev.setParallelism(4);

    std::vector<std::thread> threads;
    std::vector<int> failures(callers, 0);
    for (size_t c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            // Each caller works a different modulus, so kernel
            // generation, twiddle tables, and Montgomery contexts are
            // first touched under contention.
            const u128 q = primes[c];
            const Modulus mod(q);
            const TwiddleTable tw(mod, n);
            const NttContext ntt(tw);
            Rng rng(100 + c);
            for (size_t r = 0; r < rounds; ++r) {
                const auto a = randomPoly(mod, n, rng);
                const auto b = randomPoly(mod, n, rng);
                const auto got = polyMul(dev, n, q, a, b);
                if (got != negacyclicMulNtt(ntt, a, b))
                    ++failures[c];
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t c = 0; c < callers; ++c)
        EXPECT_EQ(failures[c], 0) << "caller " << c;

    // Every launch was counted exactly once despite the contention.
    EXPECT_EQ(dev.counters().launches, callers * rounds);
    EXPECT_EQ(dev.counters().kernelMisses, callers);
}

TEST(WhenAll, JoinsAsyncLaunchesInRequestOrder)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(60, n, 3);
    RpuDevice dev;
    dev.setParallelism(2);

    Rng rng(61);
    std::vector<LaunchFuture> futures;
    std::vector<std::vector<std::vector<u128>>> expected;
    for (u128 q : primes) {
        const KernelImage &k = dev.kernel(KernelKind::PolyMul, n, {q});
        const Modulus mod(q);
        const auto a = randomPoly(mod, n, rng);
        const auto b = randomPoly(mod, n, rng);
        expected.push_back(dev.launch(k, {a, b}));
        futures.push_back(dev.launchAsync(k, {a, b}));
    }
    EXPECT_EQ(RpuDevice::whenAll(std::move(futures)), expected);
}

TEST(KernelCache, SameKeyRaceGeneratesOnce)
{
    // Many threads racing for one kernel: the generation-in-progress
    // set must hand every waiter the single generated image — one
    // miss, every other request a hit.
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);
    const size_t callers = 4;
    RpuDevice dev;

    std::vector<std::thread> threads;
    std::vector<const KernelImage *> images(callers, nullptr);
    for (size_t c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            images[c] = &dev.kernel(KernelKind::ForwardNtt, n, {q});
        });
    }
    for (auto &t : threads)
        t.join();

    for (size_t c = 1; c < callers; ++c)
        EXPECT_EQ(images[c], images[0]) << "caller " << c;
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, callers - 1);
    EXPECT_EQ(dev.cachedKernels(), 1u);
}

TEST(KernelCache, DistinctKeysGenerateConcurrently)
{
    // Distinct kernels generated from concurrent threads: every
    // generation is a miss (no spurious waiting or duplication), and
    // each thread's kernel computes the right transform.
    const uint64_t n = 1024;
    const size_t callers = 3;
    const auto primes = nttPrimes(57, n, callers);
    RpuDevice dev;

    std::vector<std::thread> threads;
    std::vector<int> failures(callers, 0);
    for (size_t c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            const u128 q = primes[c];
            const KernelImage &k =
                dev.kernel(KernelKind::ForwardNtt, n, {q});
            Rng rng(73 + c);
            std::vector<u128> x = randomPoly(Modulus(q), n, rng);
            const auto got = dev.launch(k, {x})[0];
            const Modulus mod(q);
            const TwiddleTable tw(mod, n);
            const NttContext ntt(tw);
            ntt.forward(x);
            if (got != x)
                ++failures[c];
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t c = 0; c < callers; ++c)
        EXPECT_EQ(failures[c], 0) << "caller " << c;
    EXPECT_EQ(dev.counters().kernelMisses, callers);
    EXPECT_EQ(dev.cachedKernels(), callers);
}

// ----------------------------------------------------------------------
// BFV on the device
// ----------------------------------------------------------------------

RlweParams
smallParams()
{
    RlweParams p;
    p.n = 1024;
    p.towers = 2;
    p.towerBits = 50;
    p.plaintextModulus = 65537;
    p.noiseBound = 4;
    return p;
}

TEST(BfvOnDevice, PlaintextMultiplyExecutesOnTheRpu)
{
    // The acceptance check: an HE multiply must actually run on the
    // simulated RPU through the device (non-zero launch and cache
    // counters) and produce ciphertexts identical to the host
    // pointwise path, tower for tower.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();

    Rng rng(33);
    std::vector<uint64_t> msg(ctx.params().n);
    for (auto &v : msg)
        v = rng.below64(ctx.params().plaintextModulus);
    std::vector<uint64_t> plain(ctx.params().n, 0);
    plain[0] = 2;
    plain[5] = 40000;
    const Ciphertext ct = ctx.encrypt(sk, msg);

    // Host reference path first (no device attached yet).
    const Ciphertext via_host = ctx.mulPlain(ct, plain);

    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);
    const Ciphertext via_rpu = ctx.mulPlain(ct, plain);

    // Identical ciphertexts, bit for bit, still Eval-resident.
    EXPECT_EQ(via_rpu.c0, via_host.c0);
    EXPECT_EQ(via_rpu.c1, via_host.c1);
    EXPECT_EQ(via_rpu.domain(), ResidueDomain::Eval);

    // The device did the work, and only the minimal work: one
    // batched forward transform for the plaintext encode, then one
    // batched pointwise launch per ciphertext component — the
    // Eval-resident ciphertext itself was never transformed (the
    // elision ledger shows both components skipped).
    const size_t towers = ctx.basis().towers();
    {
        const DeviceStats s = device->stats();
        EXPECT_EQ(s.launches, 3u);
        EXPECT_EQ(s.kernelMisses, 2u);
        EXPECT_EQ(s.towerLaunches, 3 * towers);
        EXPECT_EQ(s.forwardTransforms, towers);
        EXPECT_EQ(s.inverseTransforms, 0u);
        EXPECT_EQ(s.pointwiseMuls, 2 * towers);
        EXPECT_EQ(s.transformsElided, 2 * towers);
    }

    // A second multiply reuses both cached kernels.
    const Ciphertext again = ctx.mulPlain(ct, plain);
    EXPECT_EQ(again.c0, via_host.c0);
    const DeviceCounters &c = device->counters();
    EXPECT_EQ(c.launches, 6u);
    EXPECT_EQ(c.kernelMisses, 2u);
    EXPECT_EQ(c.kernelHits, 2u);

    // And the result still decrypts correctly.
    EXPECT_EQ(ctx.decrypt(sk, via_rpu),
              testutil::naiveNegacyclicModT(
                  msg, plain, ctx.params().plaintextModulus));
}

TEST(BfvOnDevice, ParallelDeviceBitIdenticalToSerial)
{
    // The whole Eval-resident pipeline — per-tower pointwise
    // products fanned across the worker pool — must be bit-identical
    // to both the serial device and the host path.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();

    Rng rng(51);
    std::vector<uint64_t> msg(ctx.params().n), plain(ctx.params().n);
    for (auto &v : msg)
        v = rng.below64(ctx.params().plaintextModulus);
    for (auto &v : plain)
        v = rng.below64(ctx.params().plaintextModulus);
    const Ciphertext ct = ctx.encrypt(sk, msg);
    const Ciphertext via_host = ctx.mulPlain(ct, plain); // no device

    const auto device = std::make_shared<RpuDevice>();
    device->setParallelism(4);
    ctx.attachDevice(device);
    const Ciphertext via_pool = ctx.mulPlain(ct, plain);
    EXPECT_EQ(via_pool.c0, via_host.c0);
    EXPECT_EQ(via_pool.c1, via_host.c1);

    // One single-tower launch per (polynomial, tower): the encode's
    // forward fan-out plus both components' pointwise products.
    EXPECT_EQ(device->counters().launches,
              3 * ctx.basis().towers());

    device->setParallelism(1);
    const Ciphertext via_serial = ctx.mulPlain(ct, plain);
    EXPECT_EQ(via_serial.c0, via_pool.c0);
    EXPECT_EQ(via_serial.c1, via_pool.c1);
}

TEST(BfvOnDevice, EvalResidentPathMatchesAcrossBackends)
{
    // Backend-equivalence for the full encode + pointwise-multiply
    // path: the functional simulator and the CPU reference baseline
    // must both reproduce the host-path ciphertexts bit for bit.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();

    Rng rng(53);
    std::vector<uint64_t> msg(ctx.params().n), plain(ctx.params().n);
    for (auto &v : msg)
        v = rng.below64(ctx.params().plaintextModulus);
    for (auto &v : plain)
        v = rng.below64(ctx.params().plaintextModulus);
    const Ciphertext ct = ctx.encrypt(sk, msg);
    const Ciphertext reference = ctx.mulPlain(ct, plain); // no device

    ctx.attachDevice(
        std::make_shared<RpuDevice>(
            std::make_unique<CpuReferenceBackend>()));
    const Ciphertext via_cpu_ref = ctx.mulPlain(ct, plain);
    EXPECT_EQ(via_cpu_ref.c0, reference.c0);
    EXPECT_EQ(via_cpu_ref.c1, reference.c1);

    ctx.attachDevice(std::make_shared<RpuDevice>());
    const Ciphertext via_sim = ctx.mulPlain(ct, plain);
    EXPECT_EQ(via_sim.c0, reference.c0);
    EXPECT_EQ(via_sim.c1, reference.c1);
}

// ----------------------------------------------------------------------
// Pointwise kernels and the domain-boundary dispatch paths
// ----------------------------------------------------------------------

TEST(CpuReference, EveryKernelKindHasAHandler)
{
    // The reference backend's kind -> handler table must cover every
    // KernelKind: a new kind merged without a reference handler fails
    // here, in ctest, instead of fataling at the first launch of a
    // production run.
    for (int k = 0; k < int(KernelKind::kCount); ++k) {
        EXPECT_TRUE(CpuReferenceBackend::handles(KernelKind(k)))
            << "KernelKind " << k
            << " has no CpuReferenceBackend handler";
    }
}

TEST(PointwiseKernel, MatchesHostPointwiseAcrossBackends)
{
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);
    RpuDevice sim;
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());

    Rng rng(83);
    const Modulus mod(q);
    const auto a = randomPoly(mod, n, rng);
    const auto b = randomPoly(mod, n, rng);

    const auto expected = polyPointwise(mod, a, b);
    EXPECT_EQ(sim.pointwiseMul(n, q, a, b), expected);
    EXPECT_EQ(ref.pointwiseMul(n, q, a, b), expected);

    // The generated program really has no butterfly stages: it is a
    // small fraction of the fused polymul's size.
    const KernelImage &pw = sim.kernel(KernelKind::PointwiseMul, n, {q});
    const KernelImage &mul = sim.kernel(KernelKind::PolyMul, n, {q});
    EXPECT_LT(10 * pw.program.size(), mul.program.size());
}

TEST(PointwiseKernel, BatchedMatchesPerTowerAcrossBackends)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(58, n, 3);
    RpuDevice sim;
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());

    Rng rng(89);
    std::vector<std::vector<std::vector<u128>>> a(1), b(1);
    for (u128 q : primes) {
        const Modulus mod(q);
        a[0].push_back(randomPoly(mod, n, rng));
        b[0].push_back(randomPoly(mod, n, rng));
    }

    for (RpuDevice *dev : {&sim, &ref}) {
        const auto items =
            dev->runTowers(TowerOp::Pointwise, n, primes, a, b);
        ASSERT_EQ(items.size(), 1u);
        const auto &towers = items[0];
        ASSERT_EQ(towers.size(), primes.size());
        for (size_t t = 0; t < primes.size(); ++t) {
            EXPECT_EQ(towers[t],
                      polyPointwise(Modulus(primes[t]), a[0][t],
                                    b[0][t]))
                << dev->backend().name() << " tower " << t;
        }
    }
}

TEST(TransformTowers, BatchedInverseUndoesBatchedForward)
{
    // Eval <-> Coeff round trip, bit-identical on every tower, across
    // the serial device, a pooled device, and the CPU reference
    // backend — the transition ResidueOps issues at domain
    // boundaries.
    const uint64_t n = 1024;
    const auto primes = nttPrimes(59, n, 3);

    Rng rng(97);
    std::vector<std::vector<u128>> original;
    for (u128 q : primes)
        original.push_back(randomPoly(Modulus(q), n, rng));

    const auto round_trip = [&](RpuDevice &dev) {
        auto ys = dev.runTowers(TowerOp::Forward, n, primes, {original});
        // The evaluation form is not the coefficient form.
        EXPECT_NE(ys[0], original) << dev.backend().name();
        return dev.runTowers(TowerOp::Inverse, n, primes,
                             std::move(ys))[0];
    };

    RpuDevice serial;
    EXPECT_EQ(round_trip(serial), original);

    RpuDevice pooled;
    pooled.setParallelism(4);
    EXPECT_EQ(round_trip(pooled), original);

    RpuDevice ref(std::make_unique<CpuReferenceBackend>());
    EXPECT_EQ(round_trip(ref), original);
}

TEST(DeviceStats, AggregatesLaunchesTransformsAndWorkers)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(60, n, 2);
    RpuDevice dev;

    Rng rng(101);
    std::vector<std::vector<u128>> a, b;
    for (u128 q : primes) {
        const Modulus mod(q);
        a.push_back(randomPoly(mod, n, rng));
        b.push_back(randomPoly(mod, n, rng));
    }

    // Serial: one batched polymul launch (2 fwd + 1 inv + 1 pointwise
    // per tower) plus one explicitly elided conversion.
    batchedPolyMul(dev, n, primes, a, b);
    dev.noteElidedTransforms(primes.size());
    {
        const DeviceStats s = dev.stats();
        EXPECT_EQ(s.launches, 1u);
        EXPECT_EQ(s.towerLaunches, primes.size());
        EXPECT_EQ(s.forwardTransforms, 2 * primes.size());
        EXPECT_EQ(s.inverseTransforms, primes.size());
        EXPECT_EQ(s.pointwiseMuls, primes.size());
        EXPECT_EQ(s.transformsElided, primes.size());
        EXPECT_EQ(s.transformsIssued(), 3 * primes.size());
        // Serial launches attribute to slot 0 (the calling thread).
        ASSERT_EQ(s.perWorkerLaunches.size(), 1u);
        EXPECT_EQ(s.perWorkerLaunches[0], 1u);
        // The cycle ledger folds the kernel's modelled cost into the
        // same slot: one lane did everything, so the makespan IS the
        // total.
        ASSERT_EQ(s.perWorkerCycles.size(), 1u);
        EXPECT_GT(s.perWorkerCycles[0], 0u);
        EXPECT_EQ(s.cycleTotal(), s.perWorkerCycles[0]);
        EXPECT_EQ(s.makespanCycles(), s.cycleTotal());
        EXPECT_FALSE(s.summary().empty());
    }

    // Pooled: per-tower launches spread across workers; the
    // per-worker ledger must account for every launch exactly once.
    dev.resetCounters();
    dev.setParallelism(2);
    dev.launchAll(perTowerPolyMul(dev, n, primes, a, b));
    {
        const DeviceStats s = dev.stats();
        EXPECT_EQ(s.launches, primes.size());
        ASSERT_EQ(s.perWorkerLaunches.size(), 3u); // inline + 2 workers
        uint64_t attributed = 0;
        for (uint64_t w : s.perWorkerLaunches)
            attributed += w;
        EXPECT_EQ(attributed, s.launches);
        // Worker launches never attribute to the inline slot.
        EXPECT_EQ(s.perWorkerLaunches[0], 0u);
        // Per-worker cycles follow the launches: nothing on the
        // inline slot, every launch's modelled cost on some worker,
        // and the makespan (busiest lane) bounded by the total.
        ASSERT_EQ(s.perWorkerCycles.size(), 3u);
        EXPECT_EQ(s.perWorkerCycles[0], 0u);
        EXPECT_GT(s.cycleTotal(), 0u);
        EXPECT_GT(s.makespanCycles(), 0u);
        EXPECT_LE(s.makespanCycles(), s.cycleTotal());
    }

    // The per-kernel cost the ledger folds in is stamped on the
    // cached image at generation and stable across launches.
    const KernelImage &k = dev.kernel(KernelKind::PolyMul, n,
                                      {primes[0]});
    EXPECT_GT(k.modelCycles, 0u);

    // resetCounters clears the whole snapshot.
    dev.resetCounters();
    const DeviceStats cleared = dev.stats();
    EXPECT_EQ(cleared.launches, 0u);
    EXPECT_EQ(cleared.transformsIssued(), 0u);
    EXPECT_EQ(cleared.transformsElided, 0u);
    EXPECT_EQ(cleared.cycleTotal(), 0u);
    for (uint64_t w : cleared.perWorkerLaunches)
        EXPECT_EQ(w, 0u);
}

TEST(BfvOnDevice, SharedDeviceAccumulatesAcrossContexts)
{
    // One device can serve several scheme contexts (and NttRunner
    // workbenches); its caches are shared.
    const auto device = std::make_shared<RpuDevice>();
    BfvContext ctx(smallParams());
    ctx.attachDevice(device);
    NttRunner runner = NttRunner::withModulus(
        ctx.params().n, ctx.basis().prime(0), device);

    // encode (1 batched forward launch) + mulPlain (2 pointwise).
    const SecretKey sk = ctx.keygen();
    std::vector<uint64_t> msg(ctx.params().n, 1), plain(ctx.params().n,
                                                        2);
    ctx.mulPlain(ctx.encrypt(sk, msg), plain);

    const NttKernel fwd = runner.makeKernel();
    Rng rng(41);
    runner.execute(fwd, randomPoly(Modulus(ctx.basis().prime(0)),
                                   ctx.params().n, rng));
    EXPECT_EQ(device->counters().launches, 4u);
    EXPECT_GT(device->modulusCache().size(), 0u);
}

/** One (kind, n, towers) launch shape of the lane-reuse mix. */
struct LaneShape
{
    KernelKind kind;
    uint64_t n;
    size_t towers;
};

/** Every reference-handled kind, at mixed ring sizes and widths. */
const std::vector<LaneShape> kLaneShapes = {
    {KernelKind::ForwardNtt, 1024, 1},
    {KernelKind::InverseNtt, 2048, 1},
    {KernelKind::PolyMul, 1024, 1},
    {KernelKind::BatchedForwardNtt, 1024, 3},
    {KernelKind::BatchedPolyMul, 1024, 2},
    {KernelKind::BatchedInverseNtt, 2048, 2},
    {KernelKind::PointwiseMul, 2048, 1},
    {KernelKind::PointwiseMulBatched, 1024, 4},
};

/**
 * The lane-reuse mix on @p dev: every shape twice, forwards then
 * backwards, so every kind follows a different one on the same
 * resident state. Inputs are canonical under every tower's modulus.
 */
std::vector<LaunchRequest>
laneReuseBatch(RpuDevice &dev)
{
    Rng rng(131);
    std::vector<LaunchRequest> batch;
    for (size_t i = 0; i < 2 * kLaneShapes.size(); ++i) {
        const size_t m = kLaneShapes.size();
        const LaneShape &s = kLaneShapes[i < m ? i : 2 * m - 1 - i];
        const auto moduli = nttPrimes(60, s.n, s.towers);
        const KernelImage &k = dev.kernel(s.kind, s.n, moduli);
        const Modulus mod(*std::min_element(moduli.begin(), moduli.end()));
        LaunchRequest req{&k, {}};
        for (const DataRegion *r : k.inputRegions())
            req.inputs.push_back(randomPoly(mod, r->words, rng));
        batch.push_back(std::move(req));
    }
    return batch;
}

TEST(LaneReuse, InterleavedKindsMatchCpuReference)
{
    std::set<KernelKind> covered;
    for (const LaneShape &s : kLaneShapes)
        covered.insert(s.kind);
    for (int k = 0; k < int(KernelKind::kCount); ++k) {
        if (CpuReferenceBackend::handles(KernelKind(k))) {
            EXPECT_TRUE(covered.count(KernelKind(k))) << "kind " << k;
        }
    }

    // One serial device: every launch reuses the state the previous
    // (different) kernel left behind.
    RpuDevice sim;
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());
    for (const LaunchRequest &req : laneReuseBatch(sim)) {
        const KernelImage &k = *req.image;
        const KernelImage &rk = ref.kernel(k.kind, k.n, k.moduli);
        EXPECT_EQ(sim.launch(k, req.inputs), ref.launch(rk, req.inputs))
            << k.program.name();
    }
}

TEST(LaneReuse, PooledBitIdenticalToSerial)
{
    RpuDevice dev;
    const auto batch = laneReuseBatch(dev);
    const auto serial = dev.launchAll(batch);

    // Four workers race for the backend's resident states; repeated
    // rounds hand each state kernels of every kind in any order.
    dev.setParallelism(4);
    for (int round = 0; round < 3; ++round)
        EXPECT_EQ(dev.launchAll(batch), serial) << "round " << round;
}

} // namespace
} // namespace rpu
