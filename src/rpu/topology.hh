/**
 * @file
 * RpuTopology: an N-device set of simulated RPUs behind one cache
 * bundle — the device layer's answer to "serving heavy traffic means
 * scaling past one accelerator".
 *
 * All devices share a single DeviceCaches: Montgomery contexts,
 * twiddle tables, reference NTTs, and — most importantly — the
 * generated kernel images. A kernel generated (and cycle-simulated)
 * on device 0 is a cache hit on device 1..N-1, so prewarm cost and
 * codegen latency are paid once per topology, not once per device
 * ("generate once, launch anywhere"; a regression test pins this).
 *
 * The topology also rolls the per-device ledgers up:
 *
 *  - snapshot()/since() give per-device DeviceStats windows;
 *  - stats()/aggregate() sum a window field-wise (per-worker vectors
 *    zero-padded to the widest device — see DeviceStats::operator+=);
 *  - makespanCycles() is the topology-wide modelled wall-clock: the
 *    max over devices of each device's contention-aware busy
 *    makespan. Work spread evenly across N devices shows ~1/N the
 *    makespan of the same work on one device — the capacity-planning
 *    signal the sharding bench sweeps.
 *
 * Finally, runTowers is the packed shape of the device layer's tile
 * executor: the serving layer's coalesced chains are cut into
 * <= kMaxBatchedTowers tiles and each tile runs on the device a
 * placement plan names, devices overlapping on real threads. Every
 * tile's math is independent, so results are bit-identical whatever
 * the plan — only the ledger (which device paid which launches)
 * moves.
 */

#ifndef RPU_RPU_TOPOLOGY_HH
#define RPU_RPU_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "rpu/device.hh"

namespace rpu {

/** See the file comment. */
class RpuTopology
{
  public:
    /**
     * Build @p devices functional-simulator RPUs over one fresh
     * shared cache bundle, each with @p parallelism worker lanes
     * (1 = serial devices, the deterministic-ledger configuration).
     */
    explicit RpuTopology(size_t devices, unsigned parallelism = 1);

    /**
     * Wrap existing devices (at least one) without rebuilding them —
     * how a single-device server becomes the degenerate 1-topology.
     * The devices keep whatever cache bundles they were built with:
     * cross-device cache sharing is only guaranteed when the adopted
     * devices already share one (as the N-device constructor
     * arranges).
     */
    static std::shared_ptr<RpuTopology>
    adopt(std::vector<std::shared_ptr<RpuDevice>> devices);

    size_t size() const { return devices_.size(); }

    const std::shared_ptr<RpuDevice> &device(size_t i) const
    {
        return devices_.at(i);
    }

    /** Device 0's cache bundle (the shared one for built topologies). */
    const std::shared_ptr<DeviceCaches> &caches() const
    {
        return devices_.front()->caches();
    }

    // -- Ledger roll-up --------------------------------------------------

    /** One DeviceStats per device, in device order. */
    using Snapshot = std::vector<DeviceStats>;

    Snapshot snapshot() const;

    /** Per-device windows since @p before (an earlier snapshot()). */
    Snapshot since(const Snapshot &before) const;

    /** Field-wise sum of a snapshot (see DeviceStats::operator+=). */
    static DeviceStats aggregate(const Snapshot &snap);

    /** aggregate(snapshot()): the topology-wide summed ledger. */
    DeviceStats stats() const { return aggregate(snapshot()); }

    /**
     * Topology-wide modelled makespan of a window: the max over
     * devices of the contention-aware per-device busy makespan. The
     * denominator of "modelled sustained throughput" in the capacity
     * sweep.
     */
    static uint64_t makespanCycles(const Snapshot &snap);

    /** makespanCycles(snapshot()) — cumulative since construction. */
    uint64_t makespanCycles() const
    {
        return makespanCycles(snapshot());
    }

    // -- Packed multi-tower dispatch -------------------------------------

    /** Tower count of each tile of a @p towers-long packed chain,
     *  scaled by a per-tower cost weight: the stage-weight vector
     *  MakespanScheduler::splitPlans consumes, so a planner weighs
     *  exactly the launches runTowers will make (one entry per tile,
     *  so its size is the length of the chain's placement plan). */
    static std::vector<double> groupWeights(size_t towers,
                                            double perTower)
    {
        std::vector<double> w;
        for (const TowerTile &t :
             RpuDevice::cutTiles(TowerOp::Forward, {towers}, false))
            w.push_back(double(t.end - t.begin) * perTower);
        return w;
    }

    /**
     * The packed shape of the tile executor (RpuDevice::executeTiles):
     * @p op on every tower of every item, items over their own
     * (possibly ragged) chains @p moduli, concatenated and cut into
     * <= kMaxBatchedTowers batched tiles — ceil(towers / budget)
     * launches however many items were merged, the serving layer's
     * cross-tenant coalescing. Tile g runs on device plan[g];
     * plan.size() must equal groupWeights(total towers, w).size().
     * The caller's thread runs the first occupied device and every
     * other occupied device overlaps on its own thread; a device runs
     * its tiles in tile order with inline launches. An all-zero plan
     * on a 1-device topology is the single-device coalesced path.
     * Results are bit-identical whatever the plan — only the ledger
     * (which device paid which launches) moves. Every device joins
     * before the first failure (if any) is rethrown.
     */
    std::vector<TowerSet> runTowers(const std::vector<size_t> &plan,
                                    TowerOp op, uint64_t n,
                                    const std::vector<std::vector<u128>>
                                        &moduli,
                                    std::vector<TowerSet> a,
                                    std::vector<TowerSet> b = {},
                                    const NttCodegenOptions &opts = {});

  private:
    RpuTopology() = default;

    std::vector<std::shared_ptr<RpuDevice>> devices_;
};

} // namespace rpu

#endif // RPU_RPU_TOPOLOGY_HH
