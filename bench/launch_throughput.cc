/**
 * @file
 * Serial vs parallel launchAll throughput across tower counts and
 * worker counts.
 *
 * The paper's RPU hides latency by processing independent RNS towers
 * simultaneously; on the host side, RpuDevice::setParallelism fans a
 * batch of independent tower launches across a worker pool. This
 * bench measures what that dispatch concurrency is actually worth in
 * wall-clock terms, for both launch shapes the RNS-resident schemes
 * issue: the fused negacyclic product (the Coeff<->Eval boundary
 * shape — what the old wide-modulus BFV paid per multiply) and the
 * pointwise product (the steady-state shape of an Eval-resident
 * chain). One launch per tower, batch sizes 1..16 towers, worker
 * counts 1..8.
 *
 * Results are workload-true (each launch runs the full functional
 * simulation of a generated B512 program) but host-dependent: the
 * speedup ceiling is min(workers, towers, host cores). Parallel
 * results are asserted bit-identical to serial before any number is
 * reported.
 *
 * A second table isolates the launch's fixed cost at n = 1024: one
 * launch on a warm device (its resident simulator state reset, not
 * rebuilt) against one on a cold device (a fresh RpuDevice and
 * FunctionalSimBackend over the same caches, so the launch builds
 * and zeroes a whole ArchState). The gate asks the warm pointwise
 * launch to cost at most 0.3x the cold one.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "modmath/primegen.hh"
#include "modmath/simd.hh"
#include "poly/polynomial.hh"
#include "rpu/device.hh"

namespace rpu {
namespace {

using Clock = std::chrono::steady_clock;
using bench::secondsSince;

struct Workload
{
    std::vector<LaunchRequest> batch;
    std::vector<std::vector<std::vector<u128>>> expected;
};

/** One per-tower product per request, kernels pre-generated. */
Workload
makeWorkload(RpuDevice &dev, KernelKind kind, uint64_t n,
             size_t towers)
{
    const auto primes = nttPrimes(60, n, towers);
    Rng rng(uint64_t(towers) * 977 + 11);
    Workload w;
    for (u128 q : primes) {
        const KernelImage &k = dev.kernel(kind, n, {q});
        const Modulus mod(q);
        w.batch.push_back(
            {&k, {randomPoly(mod, n, rng), randomPoly(mod, n, rng)}});
    }
    w.expected = dev.launchAll(w.batch); // serial golden results
    return w;
}

/** Batches/second of launchAll over @p w at the current parallelism. */
double
throughput(RpuDevice &dev, const Workload &w, int reps)
{
    // Warm-up run doubles as the bit-identity check.
    if (dev.launchAll(w.batch) != w.expected)
        bench::fail("parallel results diverge from serial");
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
        dev.launchAll(w.batch);
    return reps / secondsSince(t0);
}

/** p10 / median / p90 of one launch, microseconds. */
struct LaunchUs
{
    double p10, p50, p90;
};

LaunchUs
spread(std::vector<double> us)
{
    std::sort(us.begin(), us.end());
    return {bench::percentile(us, 0.10), bench::percentile(us, 0.50),
            bench::percentile(us, 0.90)};
}

/** Cold and warm cost of launching @p kind over @p towers towers. */
struct FixedCost
{
    LaunchUs cold, warm;
};

FixedCost
fixedCost(RpuDevice &warm, KernelKind kind, uint64_t n, size_t towers,
          int reps)
{
    const auto primes = nttPrimes(60, n, towers);
    const KernelImage &k = warm.kernel(kind, n, primes);
    // Canonical under every tower's modulus.
    const Modulus mod(*std::min_element(primes.begin(), primes.end()));
    Rng rng(uint64_t(kind) * 131 + towers);
    std::vector<std::vector<u128>> inputs;
    for (const DataRegion *r : k.inputRegions())
        inputs.push_back(randomPoly(mod, r->words, rng));

    // The first warm launch builds the resident state and is the
    // reference every timed launch must reproduce bit for bit.
    const auto expected = warm.launch(k, inputs);
    std::vector<double> cold_us, warm_us;
    for (int r = 0; r < reps; ++r) {
        RpuDevice cold(std::make_unique<FunctionalSimBackend>(),
                       warm.caches());
        auto t0 = Clock::now();
        const bool cold_ok = cold.launch(k, inputs) == expected;
        cold_us.push_back(1e6 * secondsSince(t0));
        t0 = Clock::now();
        const bool warm_ok = warm.launch(k, inputs) == expected;
        warm_us.push_back(1e6 * secondsSince(t0));
        if (!cold_ok || !warm_ok)
            bench::fail("cold and warm launches diverge");
    }
    return {spread(cold_us), spread(warm_us)};
}

} // namespace
} // namespace rpu

int
main()
{
    using namespace rpu;

    const uint64_t n = 1024;
    const int reps = 5;
    const std::vector<size_t> tower_counts = {1, 2, 4, 8, 16};
    const std::vector<unsigned> worker_counts = {1, 2, 4, 8};

    bench::header("launchAll throughput: serial vs worker pool");
    std::printf("n = %llu, %d reps/cell, host cores = %u, "
                "host SIMD = %s (%s)\n",
                (unsigned long long)n, reps,
                std::thread::hardware_concurrency(),
                simd::hostSimdModeName(), simd::hostSimdIsa());
    std::printf("cells: batches/s (speedup vs 1 worker)\n");

    RpuDevice dev;
    const struct
    {
        KernelKind kind;
        const char *label;
    } shapes[] = {
        {KernelKind::PolyMul,
         "fused negacyclic products (domain-boundary shape)"},
        {KernelKind::PointwiseMul,
         "pointwise products (eval-resident steady-state shape)"},
    };
    for (const auto &shape : shapes) {
        std::printf("\n%s\n", shape.label);
        std::printf("%8s", "towers");
        for (unsigned wkr : worker_counts)
            std::printf("  %18u", wkr);
        std::printf("\n");
        bench::rule('-', 8 + 20 * int(worker_counts.size()));
        for (size_t towers : tower_counts) {
            const Workload w =
                makeWorkload(dev, shape.kind, n, towers);
            std::printf("%8zu", towers);
            double serial = 0.0;
            for (unsigned wkr : worker_counts) {
                dev.setParallelism(wkr);
                const double bps = throughput(dev, w, reps);
                if (wkr == 1)
                    serial = bps;
                std::printf("  %10.2f (%4.2fx)", bps,
                            serial > 0 ? bps / serial : 0.0);
            }
            dev.setParallelism(1);
            std::printf("\n");
        }
    }

    const int fixed_reps = 200;
    bench::header("launch fixed cost: cold vs warm device");
    std::printf("n = %llu, %d launches per cell, us per launch; cold = "
                "fresh device + backend over the same caches\n",
                (unsigned long long)n, fixed_reps);
    std::printf("%-28s %6s  %22s  %22s  %10s\n", "kernel", "towers",
                "cold p10 / p50 / p90", "warm p10 / p50 / p90",
                "warm/cold");
    bench::rule('-', 96);
    const struct
    {
        KernelKind kind;
        size_t towers;
        const char *label;
    } fixed_shapes[] = {
        {KernelKind::PointwiseMul, 1, "pointwise"},
        {KernelKind::BatchedForwardNtt, 3, "batched forward NTT"},
    };
    double pointwise_ratio = 0.0;
    for (const auto &shape : fixed_shapes) {
        const FixedCost c =
            fixedCost(dev, shape.kind, n, shape.towers, fixed_reps);
        const double ratio = c.warm.p50 / c.cold.p50;
        if (shape.kind == KernelKind::PointwiseMul)
            pointwise_ratio = ratio;
        std::printf("%-28s %6zu  %6.0f / %6.0f / %6.0f  "
                    "%6.0f / %6.0f / %6.0f  %9.2fx\n",
                    shape.label, shape.towers, c.cold.p10, c.cold.p50,
                    c.cold.p90, c.warm.p10, c.warm.p50, c.warm.p90,
                    ratio);
    }
    if (pointwise_ratio > 0.3)
        bench::fail("warm pointwise launch costs more than 0.3x cold");

    std::printf("\nPASS: every parallel batch bit-identical to serial; "
                "warm launches bit-identical to cold, pointwise warm/cold "
                "%.2f <= 0.3\n",
                pointwise_ratio);
    return 0;
}
