/**
 * @file
 * RpuTopology and the multi-RPU serving path: shared kernel caches
 * across devices ("generate once, launch anywhere"), the
 * HBM-contention refinement of the per-worker cycle ledger, the
 * topology stats roll-up (padding-correct summing, makespan as a max
 * over devices), the tile executor's per-item and packed shapes
 * against per-tower single-ring launches and under an injected launch
 * failure, the makespan scheduler's placement rules
 * (paused devices never selected, load-correcting bookings), and the
 * load-bearing degeneracy: a 1-device-topology server is
 * bit-identical — outputs and launch ledger — to the single-device
 * server.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "model/contention.hh"
#include "modmath/primegen.hh"
#include "rlwe/ckks.hh"
#include "rpu/device.hh"
#include "rpu/topology.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"

namespace rpu {
namespace {

using serve::HeServer;
using serve::MakespanScheduler;
using serve::RequestOp;
using serve::ServeConfig;
using serve::ServeResponse;
using serve::SubmitStatus;

using Cplx = std::complex<double>;

CkksParams
topoParams()
{
    CkksParams p;
    p.n = 1024;
    p.towers = 3;
    p.towerBits = 45;
    p.scale = 1099511627776.0; // 2^40
    p.noiseBound = 4;
    return p;
}

std::vector<Cplx>
slotValues(size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Cplx> v(count);
    for (auto &z : v)
        z = {2.0 * rng.nextDouble() - 1.0, 2.0 * rng.nextDouble() - 1.0};
    return v;
}

/** @p items coalesced-transform inputs over the standard 3-tower
 *  basis: items x towers regions of ring randomness. */
std::vector<std::vector<std::vector<u128>>>
coalescedInputs(size_t items, const std::vector<u128> &primes,
                uint64_t n, uint64_t seed)
{
    std::vector<std::vector<std::vector<u128>>> xs(items);
    for (size_t i = 0; i < items; ++i) {
        for (size_t t = 0; t < primes.size(); ++t) {
            std::vector<u128> region(n);
            Rng rng(seed + 1000 * i + t);
            for (auto &x : region)
                x = rng.below64(uint64_t(primes[t]));
            xs[i].push_back(std::move(region));
        }
    }
    return xs;
}

// ----------------------------------------------------------------------
// HbmContentionModel
// ----------------------------------------------------------------------

TEST(HbmContentionModel, SingleLaneReproducesTheCycleLedgerExactly)
{
    HbmContentionModel m;
    // Fully overlapped staging at one occupant: busy == compute, no
    // matter how much data moved.
    EXPECT_EQ(m.busyCycles(1234, 1u << 20, 1), 1234u);
    EXPECT_EQ(m.busyCycles(1234, 1u << 20, 0), 1234u);
    EXPECT_EQ(m.stagingCycles(0), 0u);
    EXPECT_GE(m.stagingCycles(1), 1u);
}

TEST(HbmContentionModel, EachExtraLaneReexposesStagingOnce)
{
    HbmContentionModel m;
    const uint64_t words = 4096;
    const uint64_t staging = m.stagingCycles(words);
    ASSERT_GT(staging, 0u);
    EXPECT_EQ(m.busyCycles(1000, words, 2), 1000 + staging);
    EXPECT_EQ(m.busyCycles(1000, words, 4), 1000 + 3 * staging);
}

// ----------------------------------------------------------------------
// Shared caches across the topology
// ----------------------------------------------------------------------

TEST(RpuTopology, KernelGeneratedOnDeviceZeroIsACacheHitOnDeviceOne)
{
    RpuTopology topo(2);
    const CkksContext ctx(topoParams(), 5);
    const std::vector<u128> primes = ctx.basis().primes();

    (void)topo.device(0)->kernel(KernelKind::BatchedForwardNtt, 1024,
                                 primes);
    const DeviceStats d0 = topo.device(0)->stats();
    EXPECT_EQ(d0.kernelMisses, 1u);

    // Same key from the other device: a hit on the shared bundle —
    // no regeneration, no second cycle simulation.
    (void)topo.device(1)->kernel(KernelKind::BatchedForwardNtt, 1024,
                                 primes);
    const DeviceStats d1 = topo.device(1)->stats();
    EXPECT_EQ(d1.kernelMisses, 0u);
    EXPECT_EQ(d1.kernelHits, 1u);
    EXPECT_EQ(topo.device(0)->cachedKernels(),
              topo.device(1)->cachedKernels());
}

// ----------------------------------------------------------------------
// DeviceStats aggregation across a device set
// ----------------------------------------------------------------------

TEST(RpuTopology, StatsSumPadsPerWorkerVectorsAcrossDevices)
{
    DeviceStats narrow;
    narrow.launches = 2;
    narrow.perWorkerLaunches = {2};
    narrow.perWorkerCycles = {100};
    narrow.perWorkerStagingCycles = {10};
    narrow.perWorkerBusyCycles = {100};
    narrow.maxOccupiedLanes = 1;

    DeviceStats wide;
    wide.launches = 3;
    wide.perWorkerLaunches = {0, 1, 2};
    wide.perWorkerCycles = {0, 40, 80};
    wide.perWorkerStagingCycles = {0, 4, 8};
    wide.perWorkerBusyCycles = {0, 44, 88};
    wide.maxOccupiedLanes = 2;

    const DeviceStats sum = narrow + wide;
    EXPECT_EQ(sum.launches, 5u);
    ASSERT_EQ(sum.perWorkerLaunches.size(), 3u);
    EXPECT_EQ(sum.perWorkerLaunches[0], 2u);
    EXPECT_EQ(sum.perWorkerLaunches[1], 1u);
    EXPECT_EQ(sum.perWorkerCycles[0], 100u);
    EXPECT_EQ(sum.perWorkerCycles[2], 80u);
    EXPECT_EQ(sum.cycleTotal(), 220u);
    EXPECT_EQ(sum.stagingCycleTotal(), 22u);
    EXPECT_EQ(sum.busyCycleTotal(), 232u);
    // High-water marks don't add.
    EXPECT_EQ(sum.maxOccupiedLanes, 2u);
}

TEST(RpuTopology, WindowedStatsSumAndMakespanIsTheDeviceMax)
{
    RpuTopology topo(2);
    const CkksContext ctx(topoParams(), 5);
    const std::vector<u128> primes = ctx.basis().primes();
    const uint64_t n = 1024;

    const RpuTopology::Snapshot before = topo.snapshot();
    (void)topo.runTowers({0}, TowerOp::Forward, n, {primes, primes},
                         coalescedInputs(2, primes, n, 17));
    (void)topo.runTowers({1}, TowerOp::Forward, n, {primes},
                         coalescedInputs(1, primes, n, 18));

    const RpuTopology::Snapshot window = topo.since(before);
    ASSERT_EQ(window.size(), 2u);
    EXPECT_GT(window[0].launches, 0u);
    EXPECT_GT(window[1].launches, 0u);

    const DeviceStats sum = RpuTopology::aggregate(window);
    EXPECT_EQ(sum.launches,
              window[0].launches + window[1].launches);
    EXPECT_EQ(sum.cycleTotal(),
              window[0].cycleTotal() + window[1].cycleTotal());

    // The topology makespan is a max over devices, not a sum: with
    // both serial devices busy the window's wall clock is the slower
    // device, and it is strictly less than the serialised total.
    const uint64_t makespan = RpuTopology::makespanCycles(window);
    EXPECT_EQ(makespan, std::max(window[0].busyMakespanCycles(),
                                 window[1].busyMakespanCycles()));
    EXPECT_LT(makespan, sum.busyCycleTotal());
}

// ----------------------------------------------------------------------
// Contention ledger: strict only under concurrent lanes
// ----------------------------------------------------------------------

TEST(RpuTopology, ContentionLedgerIsStrictExactlyWhenLanesOverlap)
{
    const CkksContext ctx(topoParams(), 5);
    const std::vector<u128> primes = ctx.basis().primes();
    const uint64_t n = 1024;

    const auto run = [&](unsigned workers) {
        auto device = std::make_shared<RpuDevice>();
        if (workers > 1)
            device->setParallelism(workers);
        (void)device->runTowers(TowerOp::Forward, n, primes,
                                coalescedInputs(6, primes, n, 23));
        return device->stats();
    };

    const DeviceStats serial = run(1);
    EXPECT_EQ(serial.busyMakespanCycles(), serial.makespanCycles());
    EXPECT_EQ(serial.contendedLaunches, 0u);
    EXPECT_EQ(serial.maxOccupiedLanes, 1u);

    const DeviceStats pooled = run(4);
    EXPECT_GT(pooled.contendedLaunches, 0u);
    EXPECT_GT(pooled.busyMakespanCycles(), pooled.makespanCycles());
    EXPECT_GE(pooled.maxOccupiedLanes, 2u);
}

// ----------------------------------------------------------------------
// Tile executor: both entry points against per-tower launches
// ----------------------------------------------------------------------

/** Items over the leading @p counts[i] primes of @p primes, with one
 *  region of ring randomness per tower, plus their moduli. */
struct TowerItems
{
    std::vector<std::vector<u128>> moduli;
    std::vector<TowerSet> xs;
};

TowerItems
towerItems(const std::vector<size_t> &counts,
           const std::vector<u128> &primes, uint64_t n, uint64_t seed)
{
    TowerItems items;
    for (size_t i = 0; i < counts.size(); ++i) {
        const std::vector<u128> chain(primes.begin(),
                                      primes.begin() + counts[i]);
        items.moduli.push_back(chain);
        items.xs.push_back(
            coalescedInputs(1, chain, n, seed + 100 * i).front());
    }
    return items;
}

/** The independent reference: one single-ring launch per (item,
 *  tower) through dev.ntt / dev.pointwiseMul on a fresh device. */
std::vector<TowerSet>
perTowerReference(TowerOp op, uint64_t n,
                  const std::vector<std::vector<u128>> &moduli,
                  const std::vector<TowerSet> &a,
                  const std::vector<TowerSet> &b)
{
    RpuDevice ref;
    std::vector<TowerSet> out = a;
    for (size_t i = 0; i < moduli.size(); ++i) {
        for (size_t t = 0; t < moduli[i].size(); ++t) {
            const u128 q = moduli[i][t];
            out[i][t] = op == TowerOp::Pointwise
                            ? ref.pointwiseMul(n, q, a[i][t], b[i][t])
                            : ref.ntt(n, q, a[i][t],
                                      op == TowerOp::Inverse);
        }
    }
    return out;
}

constexpr TowerOp kTowerOps[] = {TowerOp::Forward, TowerOp::Inverse,
                                 TowerOp::Pointwise};

TEST(TileExecutor, PerItemShapeMatchesPerTowerLaunches)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(58, n, 3);
    const TowerItems a = towerItems({3, 3, 3, 3, 3, 3}, primes, n, 61);
    const TowerItems b = towerItems({3, 3, 3, 3, 3, 3}, primes, n, 67);

    for (unsigned workers : {1u, 2u}) {
        for (TowerOp op : kTowerOps) {
            const bool pw = op == TowerOp::Pointwise;
            const auto want = perTowerReference(op, n, a.moduli, a.xs,
                                                pw ? b.xs : a.xs);
            RpuDevice dev;
            dev.setParallelism(workers);
            const auto got = dev.runTowers(
                op, n, primes, a.xs, pw ? b.xs : std::vector<TowerSet>{});
            EXPECT_EQ(got, want)
                << workers << " workers, op " << int(op);
            // Serial: one batched launch per item; pooled: one
            // single-ring launch per (item, tower).
            EXPECT_EQ(dev.stats().launches, workers == 1 ? 6u : 18u);
        }
    }
}

TEST(TileExecutor, PackedShapeMatchesPerTowerLaunches)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(58, n, 3);
    // 6 x 3 towers: item 5 spans towers 15-17, straddling the first
    // tile boundary. The ragged case (20 towers) straddles it with
    // item 6 (towers 14-16).
    const std::vector<std::vector<size_t>> shapes = {
        {3, 3, 3, 3, 3, 3}, {3, 1, 2, 3, 3, 2, 3, 3}};

    for (const auto &counts : shapes) {
        const TowerItems a = towerItems(counts, primes, n, 71);
        const TowerItems b = towerItems(counts, primes, n, 73);
        size_t towers = 0;
        for (size_t c : counts)
            towers += c;
        ASSERT_EQ(RpuTopology::groupWeights(towers, 1.0).size(), 2u);

        for (unsigned workers : {1u, 2u}) {
            for (size_t devices : {size_t(1), size_t(2)}) {
                const std::vector<size_t> plan = {0, devices - 1};
                for (TowerOp op : kTowerOps) {
                    const bool pw = op == TowerOp::Pointwise;
                    const auto want = perTowerReference(
                        op, n, a.moduli, a.xs, pw ? b.xs : a.xs);
                    RpuTopology topo(devices, workers);
                    const auto got = topo.runTowers(
                        plan, op, n, a.moduli, a.xs,
                        pw ? b.xs : std::vector<TowerSet>{});
                    EXPECT_EQ(got, want)
                        << towers << " towers, " << workers
                        << " workers, " << devices << " devices, op "
                        << int(op);
                    // One launch per tile, on its planned device.
                    const RpuTopology::Snapshot snap = topo.snapshot();
                    EXPECT_EQ(RpuTopology::aggregate(snap).launches, 2u);
                    EXPECT_EQ(snap.back().launches,
                              devices == 1 ? 2u : 1u);
                }
            }
        }
    }
}

/**
 * Functional simulation that throws on the failAt-th launch counted
 * across every device sharing the probe, and tracks how many launches
 * are still executing. Launches that don't fail dawdle briefly, so a
 * failure fires while sibling tiles are still in flight.
 */
struct LaunchProbe
{
    std::atomic<int> launches{0};
    std::atomic<int> running{0};
    int failAt = 0;
};

class FailingBackend : public ExecutionBackend
{
  public:
    explicit FailingBackend(std::shared_ptr<LaunchProbe> probe)
        : probe_(std::move(probe))
    {
    }

    const char *name() const override { return "failing-sim"; }

    std::vector<std::vector<u128>>
    execute(RpuDevice &dev, const KernelImage &image,
            const std::vector<std::vector<u128>> &inputs) override
    {
        ++probe_->running;
        struct Done
        {
            std::atomic<int> &running;
            ~Done() { --running; }
        } done{probe_->running};
        if (++probe_->launches == probe_->failAt)
            throw std::runtime_error("injected launch failure");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return sim_.execute(dev, image, inputs);
    }

  private:
    std::shared_ptr<LaunchProbe> probe_;
    FunctionalSimBackend sim_;
};

TEST(TileExecutor, FailedLaunchJoinsEveryTileAndLeavesDeviceUsable)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(58, n, 3);
    const TowerItems items =
        towerItems({3, 3, 3, 3, 3, 3}, primes, n, 79);

    // The three executor shapes: serial per-item, pooled per-tower,
    // and a 2-device packed plan.
    struct Shape
    {
        unsigned workers;
        size_t devices; // 0 = the per-item entry on one device
    };
    for (const Shape shape : {Shape{1, 0}, Shape{2, 0}, Shape{1, 2}}) {
        const auto probe = std::make_shared<LaunchProbe>();
        probe->failAt = 2;
        const auto caches = std::make_shared<DeviceCaches>();
        std::vector<std::shared_ptr<RpuDevice>> devs;
        std::vector<std::shared_ptr<RpuDevice>> fresh;
        for (size_t d = 0; d < std::max<size_t>(shape.devices, 1); ++d) {
            devs.push_back(std::make_shared<RpuDevice>(
                std::make_unique<FailingBackend>(probe), caches));
            devs.back()->setParallelism(shape.workers);
            fresh.push_back(std::make_shared<RpuDevice>());
            fresh.back()->setParallelism(shape.workers);
        }
        const auto topo = RpuTopology::adopt(devs);
        const auto fresh_topo = RpuTopology::adopt(fresh);
        const auto run = [&](RpuTopology &t) {
            if (shape.devices == 0) {
                return t.device(0)->runTowers(TowerOp::Forward, n, primes,
                                              items.xs);
            }
            return t.runTowers({0, 1}, TowerOp::Forward, n, items.moduli,
                               items.xs);
        };

        EXPECT_THROW(run(*topo), std::runtime_error)
            << shape.workers << " workers, " << shape.devices
            << " devices";
        // Rethrown only once no tile is still executing.
        EXPECT_EQ(probe->running.load(), 0);

        // Still usable, and the retry matches a fresh device set in
        // results and in the launch/busy/staging ledger.
        const RpuTopology::Snapshot before = topo->snapshot();
        const auto got = run(*topo);
        const DeviceStats delta = RpuTopology::aggregate(topo->since(before));
        const auto want = run(*fresh_topo);
        const DeviceStats ref = fresh_topo->stats();
        EXPECT_EQ(got, want);
        EXPECT_EQ(delta.launches, ref.launches);
        EXPECT_EQ(delta.busyCycleTotal(), ref.busyCycleTotal());
        EXPECT_EQ(delta.stagingCycleTotal(), ref.stagingCycleTotal());
        EXPECT_EQ(delta.contendedLaunches, ref.contendedLaunches);
    }
}

TEST(RpuTopology, UniformPlanIsTheDeviceOwnCoalescedPath)
{
    const CkksContext ctx(topoParams(), 5);
    const std::vector<u128> primes = ctx.basis().primes();
    const uint64_t n = 1024;
    const std::vector<std::vector<u128>> moduli(2, primes);

    RpuTopology topo(2);
    const RpuTopology::Snapshot before = topo.snapshot();
    (void)topo.runTowers({0}, TowerOp::Forward, n, moduli,
                         coalescedInputs(2, primes, n, 51));
    const RpuTopology::Snapshot window = topo.since(before);
    EXPECT_GT(window[0].launches, 0u);
    EXPECT_EQ(window[1].launches, 0u);
}

// ----------------------------------------------------------------------
// MakespanScheduler
// ----------------------------------------------------------------------

TEST(MakespanScheduler, OneDeviceTopologyAlwaysPlacesOnDeviceZero)
{
    auto topo = std::make_shared<RpuTopology>(1);
    MakespanScheduler sched(topo);
    for (int i = 0; i < 4; ++i) {
        auto p = sched.place(RequestOp::MulPlainRescale, "c", 8);
        EXPECT_EQ(p.device, 0u);
        // One device: the uniform plan, and the booking stays whole.
        EXPECT_EQ(sched.splitPlans(p, RequestOp::MulPlainRescale, "c", 8,
                                   {{1, 1, 1}}),
                  (std::vector<std::vector<size_t>>{{0, 0, 0}}));
        EXPECT_TRUE(p.stageBooked.empty());
        sched.complete(p, RequestOp::MulPlainRescale, "c", 8, 1000,
                       100);
    }
}

TEST(MakespanScheduler, PlacementsBalanceAndBookingsAreCorrected)
{
    auto topo = std::make_shared<RpuTopology>(2);
    MakespanScheduler sched(topo);
    const auto op = RequestOp::MulPlainRescale;

    // Bootstrap: no estimate yet, ties break to device 0; the
    // completion seeds the estimate and leaves real load behind.
    const auto p0 = sched.place(op, "c", 8);
    EXPECT_EQ(p0.device, 0u);
    sched.complete(p0, op, "c", 8, 8000, 800);
    EXPECT_EQ(sched.load(0), 8000u);

    // Next chunk of the same class: device 1 is now cheaper.
    const auto p1 = sched.place(op, "c", 8);
    EXPECT_EQ(p1.device, 1u);
    EXPECT_GT(p1.booked, 0u);
    sched.complete(p1, op, "c", 8, 8000, 800);

    // Balanced again; makespan projection is the max.
    EXPECT_EQ(sched.load(0), sched.load(1));
    EXPECT_EQ(sched.modelledMakespan(), sched.load(0));
}

TEST(MakespanScheduler, PausedDeviceIsNeverSelected)
{
    auto topo = std::make_shared<RpuTopology>(3);
    MakespanScheduler sched(topo);
    const auto op = RequestOp::MulPlainRescale;
    sched.pause(0);
    EXPECT_TRUE(sched.paused(0));

    for (int i = 0; i < 6; ++i) {
        auto p = sched.place(op, "c", 4);
        EXPECT_NE(p.device, 0u);
        // Stage plans skip it too, no matter how many groups.
        const auto plans = sched.splitPlans(p, op, "c", 4, {{1, 1, 1, 1, 1}});
        for (size_t d : plans[0])
            EXPECT_NE(d, 0u);
        sched.complete(p, op, "c", 4, 4000, 400);
    }

    sched.resume(0);
    EXPECT_FALSE(sched.paused(0));
    // With devices 1 and 2 loaded, the resumed idle device wins.
    EXPECT_EQ(sched.place(op, "c", 4).device, 0u);
}

TEST(MakespanScheduler, EwmaSeedsExactlyAndConvergesAfterWrongFirstSample)
{
    auto topo = std::make_shared<RpuTopology>(2);
    MakespanScheduler sched(topo);
    const auto op = RequestOp::MulPlainRescale;

    // Cold start: no estimate yet books only the nominal cycle (so a
    // batch still spreads), and the first completion seeds the
    // estimate exactly rather than EWMA-blending it with zero.
    const auto p0 = sched.place(op, "c", 8);
    EXPECT_EQ(p0.booked, 1u);
    sched.complete(p0, op, "c", 8, 80000, 800); // 10x the true cost
    EXPECT_EQ(sched.place(op, "c", 8).booked, 80000u);

    // Feed the true cost (1000/request); the deliberately wrong first
    // sample must wash out of the booking within a few dozen chunks.
    for (int i = 0; i < 21; ++i) {
        const auto p = sched.place(op, "c", 8);
        sched.complete(p, op, "c", 8, 8000, 800);
    }
    const auto converged = sched.place(op, "c", 8);
    EXPECT_GE(converged.booked, 8000u);
    EXPECT_LE(converged.booked, 8800u); // within 10% of the true cost
}

TEST(MakespanScheduler, FailedChunkReleasesBookingButSkipsEwma)
{
    auto topo = std::make_shared<RpuTopology>(2);
    MakespanScheduler sched(topo);
    const auto op = RequestOp::MulPlainRescale;

    const auto p0 = sched.place(op, "c", 8);
    sched.complete(p0, op, "c", 8, 8000, 800);
    const uint64_t seeded = sched.place(op, "c", 8).booked;
    EXPECT_EQ(seeded, 8000u);

    // A chunk that dies partway measures a nonsense window. The
    // booking must still be released (the load ledger reflects the
    // cycles the attempt paid), but the estimate must not move — a
    // partial window is not a cost sample.
    const auto p1 = sched.place(op, "c", 8);
    std::vector<uint64_t> busy(2, 0);
    busy[p1.device] = 999999;
    sched.complete(p1, op, "c", 8, busy, 0, /*failed=*/true);
    EXPECT_GE(sched.load(p1.device), 999999u);
    EXPECT_EQ(sched.place(op, "c", 8).booked, seeded);
}

TEST(MakespanScheduler, PlaceBatchBooksLongestChunksFirst)
{
    // Two classes with 10x different learned costs, two devices with
    // unequal loads. The expensive chunk must book onto the emptier
    // device before the cheap one, popped first, can squat there.
    const auto op = RequestOp::MulPlainRescale;
    auto topo = std::make_shared<RpuTopology>(2);
    MakespanScheduler sched(topo);
    const auto pb = sched.place(op, "big", 1);
    sched.complete(pb, op, "big", 1, 1000, 0); // device 0: load 1000
    const auto ps = sched.place(op, "small", 1);
    sched.complete(ps, op, "small", 1, 100, 0); // device 1: load 100

    const auto spread =
        sched.placeBatch({{op, "small", 1}, {op, "big", 1}});
    EXPECT_EQ(spread[1].device, 1u); // big books first, takes the idle
    EXPECT_EQ(spread[0].device, 0u); // small lands beside the old load
}

TEST(MakespanScheduler, SplitPlansConserveBookingsAndSkipPaused)
{
    auto topo = std::make_shared<RpuTopology>(4);
    MakespanScheduler sched(topo);
    const auto op = RequestOp::MulPlainRescale;
    sched.pause(3);

    const auto p0 = sched.place(op, "c", 8);
    sched.complete(p0, op, "c", 8, 8000, 800); // seed the estimate
    auto p = sched.place(op, "c", 8);
    EXPECT_EQ(p.booked, 8000u);

    // The coalesced chunk's three stages as the server weighs them:
    // 24 entry towers, 48 pointwise towers, 16 dropped towers.
    const auto plans = sched.splitPlans(
        p, op, "c", 8,
        {RpuTopology::groupWeights(
             24, MakespanScheduler::kForwardTowerWeight),
         RpuTopology::groupWeights(
             48, MakespanScheduler::kPointwiseTowerWeight),
         RpuTopology::groupWeights(
             16, MakespanScheduler::kInverseTowerWeight)});
    ASSERT_EQ(plans.size(), 3u);
    EXPECT_EQ(plans[0].size(), 2u);
    EXPECT_EQ(plans[1].size(), 3u);
    EXPECT_EQ(plans[2].size(), 1u);

    // The whole-chunk booking became per-group bookings summing back
    // to the chunk's estimated cost (up to per-group rounding), and
    // the paused device took none of them.
    EXPECT_EQ(p.booked, 0u);
    ASSERT_EQ(p.stageBooked.size(), 4u);
    uint64_t rebooked = 0;
    for (uint64_t b : p.stageBooked)
        rebooked += b;
    EXPECT_GE(rebooked, 8000u - 6);
    EXPECT_LE(rebooked, 8000u + 6);
    EXPECT_EQ(p.stageBooked[3], 0u);
    size_t distinct = 0;
    for (uint64_t b : p.stageBooked)
        distinct += b > 0 ? 1 : 0;
    EXPECT_GE(distinct, 2u);
    for (const auto &plan : plans)
        for (size_t d : plan)
            EXPECT_NE(d, 3u);

    // Completion releases every per-device booking and replaces it
    // with the measured per-device cost.
    sched.complete(p, op, "c", 8, std::vector<uint64_t>{100, 200, 300, 0},
                   60, false);
    EXPECT_EQ(sched.load(0) + sched.load(1) + sched.load(2) +
                  sched.load(3),
              8000u + 600u);
}

// ----------------------------------------------------------------------
// Device-set serving
// ----------------------------------------------------------------------

struct Issued
{
    uint64_t tenant = 0;
    uint64_t seq = 0;
    RequestOp op = RequestOp::MulPlainRescale;
    std::vector<Cplx> a, b;
    std::future<ServeResponse> response;
};

ServeConfig
topoServeConfig()
{
    ServeConfig cfg;
    cfg.queueCapacity = 64;
    cfg.maxBatch = 16;
    cfg.maxPerTenant = 4;
    cfg.maxCoalesce = 8;
    cfg.startPaused = true; // deterministic drain via shutdown()
    return cfg;
}

std::vector<Issued>
issueMixedSet(HeServer &server, size_t perTenant)
{
    std::vector<Issued> out;
    for (size_t r = 0; r < perTenant; ++r) {
        for (uint64_t t = 1; t <= 4; ++t) {
            Issued p;
            p.tenant = t;
            p.seq = r;
            p.op = (r % 3 == 2) ? RequestOp::MulCtRescale
                                : RequestOp::MulPlainRescale;
            p.a = slotValues(16, 100 * t + r);
            p.b = slotValues(16, 900 * t + r);
            auto sub = server.submit(t, p.op, p.a, p.b);
            EXPECT_EQ(sub.status, SubmitStatus::Accepted);
            p.response = std::move(sub.response);
            out.push_back(std::move(p));
        }
    }
    return out;
}

TEST(HeServerTopology, OneDeviceTopologyMatchesSingleDeviceServer)
{
    // The degeneracy that keeps PR 8's guarantees intact: the same
    // request set through (a) the single-device constructor and
    // (b) an explicit 1-device topology must produce identical
    // responses AND an identical device launch ledger — same chunks,
    // same coalesced launches, same per-worker attribution.
    std::vector<std::vector<Cplx>> values[2];
    DeviceStats ledger[2];
    for (int pass = 0; pass < 2; ++pass) {
        auto topo = std::make_shared<RpuTopology>(1);
        auto server =
            pass == 0
                ? std::make_unique<HeServer>(topoServeConfig(),
                                             topo->device(0))
                : std::make_unique<HeServer>(topoServeConfig(), topo);
        for (uint64_t id = 1; id <= 4; ++id)
            server->addTenant({id, topoParams(), 30});
        auto issued = issueMixedSet(*server, 6);
        const DeviceStats before = topo->device(0)->stats();
        server->shutdown();
        ledger[pass] = topo->device(0)->stats() - before;
        for (auto &p : issued)
            values[pass].push_back(p.response.get().values);
    }
    EXPECT_EQ(values[0], values[1]);
    EXPECT_EQ(ledger[0].launches, ledger[1].launches);
    EXPECT_EQ(ledger[0].cycleTotal(), ledger[1].cycleTotal());
    EXPECT_EQ(ledger[0].busyCycleTotal(), ledger[1].busyCycleTotal());
    EXPECT_EQ(ledger[0].perWorkerLaunches, ledger[1].perWorkerLaunches);
    EXPECT_EQ(ledger[0].pointwiseMuls, ledger[1].pointwiseMuls);
    EXPECT_EQ(ledger[0].forwardTransforms,
              ledger[1].forwardTransforms);
    EXPECT_EQ(ledger[0].inverseTransforms,
              ledger[1].inverseTransforms);
}

TEST(HeServerTopology, TwoDeviceServingIsBitIdenticalToSerial)
{
    auto topo = std::make_shared<RpuTopology>(2);
    HeServer server(topoServeConfig(), topo);
    for (uint64_t id = 1; id <= 4; ++id)
        server.addTenant({id, topoParams(), 30});

    const RpuTopology::Snapshot before = topo->snapshot();
    auto issued = issueMixedSet(server, 6);
    server.shutdown();

    for (auto &p : issued) {
        const ServeResponse resp = p.response.get();
        EXPECT_EQ(resp.values, server.tenant(p.tenant)->runSerial(
                                   p.op, p.a, p.b, p.seq));
    }
    // Both devices carried real work, so the identity above is a
    // statement about cross-device execution, not a vacuous pass.
    const RpuTopology::Snapshot window = topo->since(before);
    EXPECT_GT(window[0].launches, 0u);
    EXPECT_GT(window[1].launches, 0u);
}

TEST(HeServerTopology, PausedDeviceExecutesNothing)
{
    auto topo = std::make_shared<RpuTopology>(2);
    HeServer server(topoServeConfig(), topo);
    for (uint64_t id = 1; id <= 4; ++id)
        server.addTenant({id, topoParams(), 30});
    ASSERT_NE(server.scheduler(), nullptr);
    server.scheduler()->pause(1);

    const RpuTopology::Snapshot before = topo->snapshot();
    auto issued = issueMixedSet(server, 3);
    server.shutdown();
    for (auto &p : issued) {
        const ServeResponse resp = p.response.get();
        EXPECT_EQ(resp.values, server.tenant(p.tenant)->runSerial(
                                   p.op, p.a, p.b, p.seq));
    }

    // The drained device saw no placements and no sharded stages.
    const RpuTopology::Snapshot window = topo->since(before);
    EXPECT_GT(window[0].launches, 0u);
    EXPECT_EQ(window[1].launches, 0u);
    EXPECT_EQ(window[1].cycleTotal(), 0u);
}

TEST(HeServerTopology, SplitChunkIsBitIdenticalToUnsplitAndSpreads)
{
    // One coalesced chunk (2 tenants x 4 requests, all compatible)
    // through a 4-device topology, and through a 1-device one, whose
    // plans are uniform. Splitting changes only *where* stage groups
    // execute — the responses must match the unsplit server and the
    // serial reference bit for bit, while the split ledger shows the
    // chunk's stages actually spread.
    std::vector<std::vector<Cplx>> values[2];
    for (int pass = 0; pass < 2; ++pass) {
        auto topo = std::make_shared<RpuTopology>(pass == 0 ? 4 : 1);
        HeServer server(topoServeConfig(), topo);
        for (uint64_t id = 1; id <= 2; ++id)
            server.addTenant({id, topoParams(), 30});

        std::vector<Issued> issued;
        for (uint64_t t = 1; t <= 2; ++t) {
            for (uint64_t r = 0; r < 4; ++r) {
                Issued p;
                p.tenant = t;
                p.seq = r;
                p.a = slotValues(16, 100 * t + r);
                p.b = slotValues(16, 900 * t + r);
                auto sub = server.submit(t, p.op, p.a, p.b);
                ASSERT_EQ(sub.status, SubmitStatus::Accepted);
                p.response = std::move(sub.response);
                issued.push_back(std::move(p));
            }
        }
        const RpuTopology::Snapshot before = topo->snapshot();
        server.shutdown();

        for (auto &p : issued) {
            const ServeResponse resp = p.response.get();
            EXPECT_EQ(resp.values, server.tenant(p.tenant)->runSerial(
                                       p.op, p.a, p.b, p.seq));
            values[pass].push_back(resp.values);
        }
        const auto stats = server.stats();
        EXPECT_EQ(stats.failed, 0u);
        if (pass == 0) {
            EXPECT_GE(stats.splitChunks, 1u);
            const RpuTopology::Snapshot window = topo->since(before);
            size_t active = 0;
            for (const auto &d : window)
                active += d.launches > 0 ? 1 : 0;
            EXPECT_GE(active, 2u);
        } else {
            EXPECT_EQ(stats.splitChunks, 0u);
        }
    }
    EXPECT_EQ(values[0], values[1]);
}

TEST(HeServerTopology, TwoDispatchersDrainCorrectly)
{
    // Two dispatcher threads over a 4-device topology place and
    // execute batches concurrently, so chunk execution order and the
    // placement ledger are racy — but every accepted request must
    // still complete bit-identically to the serial reference.
    auto topo = std::make_shared<RpuTopology>(4);
    ServeConfig cfg = topoServeConfig();
    cfg.dispatchers = 2;
    HeServer server(cfg, topo);
    for (uint64_t id = 1; id <= 4; ++id)
        server.addTenant({id, topoParams(), 30});

    auto issued = issueMixedSet(server, 6);
    server.shutdown();

    for (auto &p : issued) {
        const ServeResponse resp = p.response.get();
        EXPECT_EQ(resp.values, server.tenant(p.tenant)->runSerial(
                                   p.op, p.a, p.b, p.seq));
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.accepted, issued.size());
    EXPECT_EQ(stats.completed, issued.size());
}

} // namespace
} // namespace rpu
