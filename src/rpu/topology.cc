#include "rpu/topology.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/logging.hh"

namespace rpu {

RpuTopology::RpuTopology(size_t devices, unsigned parallelism)
{
    rpu_assert(devices >= 1, "topology needs at least one device");
    auto caches = std::make_shared<DeviceCaches>();
    devices_.reserve(devices);
    for (size_t i = 0; i < devices; ++i) {
        auto dev = std::make_shared<RpuDevice>(
            std::make_unique<FunctionalSimBackend>(), caches);
        if (parallelism > 1)
            dev->setParallelism(parallelism);
        devices_.push_back(std::move(dev));
    }
}

std::shared_ptr<RpuTopology>
RpuTopology::adopt(std::vector<std::shared_ptr<RpuDevice>> devices)
{
    rpu_assert(!devices.empty(), "topology needs at least one device");
    for (const auto &d : devices)
        rpu_assert(d != nullptr, "topology device must not be null");
    auto topo = std::shared_ptr<RpuTopology>(new RpuTopology());
    topo->devices_ = std::move(devices);
    return topo;
}

RpuTopology::Snapshot
RpuTopology::snapshot() const
{
    Snapshot snap;
    snap.reserve(devices_.size());
    for (const auto &d : devices_)
        snap.push_back(d->stats());
    return snap;
}

RpuTopology::Snapshot
RpuTopology::since(const Snapshot &before) const
{
    rpu_assert(before.size() == devices_.size(),
               "snapshot spans %zu devices, topology has %zu",
               before.size(), devices_.size());
    Snapshot delta;
    delta.reserve(devices_.size());
    for (size_t i = 0; i < devices_.size(); ++i)
        delta.push_back(devices_[i]->stats() - before[i]);
    return delta;
}

DeviceStats
RpuTopology::aggregate(const Snapshot &snap)
{
    DeviceStats total;
    for (const DeviceStats &s : snap)
        total += s;
    return total;
}

uint64_t
RpuTopology::makespanCycles(const Snapshot &snap)
{
    uint64_t worst = 0;
    for (const DeviceStats &s : snap)
        worst = std::max(worst, s.busyMakespanCycles());
    return worst;
}

std::vector<TowerSet>
RpuTopology::runTowers(const std::vector<size_t> &plan, TowerOp op,
                       uint64_t n,
                       const std::vector<std::vector<u128>> &moduli,
                       std::vector<TowerSet> a, std::vector<TowerSet> b,
                       const NttCodegenOptions &opts)
{
    std::vector<u128> chain;
    std::vector<size_t> item_towers;
    for (const std::vector<u128> &m : moduli) {
        chain.insert(chain.end(), m.begin(), m.end());
        item_towers.push_back(m.size());
    }
    const std::vector<TowerTile> tiles =
        RpuDevice::cutTiles(op, {chain.size()}, false);
    rpu_assert(plan.size() == tiles.size(),
               "plan covers %zu tiles, chain cuts into %zu", plan.size(),
               tiles.size());

    // Tiles per device, in tile order.
    std::vector<std::vector<size_t>> by_device(devices_.size());
    for (size_t g = 0; g < tiles.size(); ++g) {
        rpu_assert(plan[g] < devices_.size(),
                   "plan routes to device %zu of %zu", plan[g],
                   devices_.size());
        by_device[plan[g]].push_back(g);
    }
    std::vector<size_t> occupied;
    for (size_t d = 0; d < by_device.size(); ++d) {
        if (!by_device[d].empty())
            occupied.push_back(d);
    }

    const auto launchTiles = [&](std::vector<TowerSet> &io) {
        // One device's tiles; a failure stops that device and is
        // rethrown once every device has joined.
        std::vector<std::exception_ptr> errors(occupied.size());
        const auto runDevice = [&](size_t i) {
            RpuDevice &dev = *devices_[occupied[i]];
            try {
                for (size_t g : by_device[occupied[i]]) {
                    const TowerTile &t = tiles[g];
                    const KernelImage &k = dev.kernel(
                        t.kind, n,
                        {chain.begin() + t.begin, chain.begin() + t.end},
                        opts);
                    io[g] = dev.launch(k, io[g]);
                }
            } catch (...) {
                errors[i] = std::current_exception();
            }
        };
        std::vector<std::thread> threads;
        for (size_t i = 1; i < occupied.size(); ++i)
            threads.emplace_back(runDevice, i);
        if (!occupied.empty())
            runDevice(0);
        for (std::thread &t : threads)
            t.join();
        for (const std::exception_ptr &e : errors) {
            if (e)
                std::rethrow_exception(e);
        }
    };
    return RpuDevice::executeTiles(op, item_towers, tiles, std::move(a),
                                   std::move(b), launchTiles);
}

} // namespace rpu
