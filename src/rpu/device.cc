#include "rpu/device.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/cycle/simulator.hh"
#include "sim/functional/state.hh"

namespace rpu {

// ----------------------------------------------------------------------
// Backends
// ----------------------------------------------------------------------

std::vector<std::vector<u128>>
FunctionalSimBackend::execute(RpuDevice &dev, const KernelImage &image,
                              const std::vector<std::vector<u128>> &inputs)
{
    std::unique_ptr<ArchState> held;
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        if (!idle_.empty()) {
            held = std::move(idle_.back());
            idle_.pop_back();
        } else {
            // Room for every state this backend will own, so the
            // give-back below never allocates in a destructor.
            idle_.reserve(++states_);
        }
    }
    if (held)
        held->reset(image.vdmBytesRequired);
    else
        held = std::make_unique<ArchState>(image.vdmBytesRequired);
    // Back on the idle list however the launch ends; the next launch
    // to take it resets it.
    struct Return
    {
        FunctionalSimBackend &backend;
        std::unique_ptr<ArchState> &state;
        ~Return()
        {
            std::lock_guard<std::mutex> lock(backend.idle_mutex_);
            backend.idle_.push_back(std::move(state));
        }
    } give_back{*this, held};
    ArchState &state = *held;

    // Launch code: stage constants and data into the scratchpads.
    for (size_t i = 0; i < image.sdmImage.size(); ++i)
        state.writeSdm(i, image.sdmImage[i]);
    state.loadVdm(image.twPlanBase, image.twPlanImage);

    const auto in_regions = image.inputRegions();
    for (size_t i = 0; i < in_regions.size(); ++i)
        state.loadVdm(in_regions[i]->base, inputs[i]);

    FunctionalSimulator sim(state, dev.modulusCache());
    sim.run(image.program);

    std::vector<std::vector<u128>> outputs;
    for (const DataRegion *r : image.outputRegions())
        outputs.push_back(state.dumpVdm(r->base, r->words));
    return outputs;
}

namespace {

/** One reference handler per KernelKind (see refHandlers). */
using RefInputs = std::vector<std::vector<u128>>;
using RefHandler = RefInputs (*)(RpuDevice &, const KernelImage &,
                                 const RefInputs &);

RefInputs
refSingleNtt(RpuDevice &dev, const KernelImage &image,
             const RefInputs &inputs)
{
    std::vector<u128> x = inputs[0];
    const NttContext &ntt = dev.nttContext(image.n, image.moduli[0]);
    if (image.kind == KernelKind::InverseNtt)
        ntt.inverse(x);
    else
        ntt.forward(x);
    RefInputs out;
    out.push_back(std::move(x));
    return out;
}

RefInputs
refPolyMul(RpuDevice &dev, const KernelImage &image,
           const RefInputs &inputs)
{
    const NttContext &ntt = dev.nttContext(image.n, image.moduli[0]);
    RefInputs out;
    out.push_back(negacyclicMulNtt(ntt, inputs[0], inputs[1]));
    return out;
}

RefInputs
refBatchedNtt(RpuDevice &dev, const KernelImage &image,
              const RefInputs &inputs)
{
    RefInputs out;
    for (size_t t = 0; t < image.moduli.size(); ++t) {
        std::vector<u128> x = inputs[t];
        const NttContext &ntt = dev.nttContext(image.n, image.moduli[t]);
        if (image.kind == KernelKind::BatchedInverseNtt)
            ntt.inverse(x);
        else
            ntt.forward(x);
        out.push_back(std::move(x));
    }
    return out;
}

RefInputs
refBatchedPolyMul(RpuDevice &dev, const KernelImage &image,
                  const RefInputs &inputs)
{
    RefInputs out;
    for (size_t t = 0; t < image.moduli.size(); ++t) {
        const NttContext &ntt = dev.nttContext(image.n, image.moduli[t]);
        out.push_back(
            negacyclicMulNtt(ntt, inputs[2 * t], inputs[2 * t + 1]));
    }
    return out;
}

RefInputs
refPointwiseMul(RpuDevice &dev, const KernelImage &image,
                const RefInputs &inputs)
{
    RefInputs out;
    out.push_back(polyPointwise(dev.modulusContext(image.moduli[0]),
                                inputs[0], inputs[1]));
    return out;
}

RefInputs
refBatchedPointwiseMul(RpuDevice &dev, const KernelImage &image,
                       const RefInputs &inputs)
{
    RefInputs out;
    for (size_t t = 0; t < image.moduli.size(); ++t) {
        out.push_back(polyPointwise(dev.modulusContext(image.moduli[t]),
                                    inputs[2 * t], inputs[2 * t + 1]));
    }
    return out;
}

/**
 * The kind -> handler table. This is data, not a switch, so coverage
 * is testable: the tier-1 handler-coverage test walks every
 * KernelKind through CpuReferenceBackend::handles and fails when a
 * new kind lands without a reference implementation.
 */
const std::map<KernelKind, RefHandler> &
refHandlers()
{
    static const std::map<KernelKind, RefHandler> table = {
        {KernelKind::ForwardNtt, &refSingleNtt},
        {KernelKind::InverseNtt, &refSingleNtt},
        {KernelKind::PolyMul, &refPolyMul},
        {KernelKind::BatchedForwardNtt, &refBatchedNtt},
        {KernelKind::BatchedInverseNtt, &refBatchedNtt},
        {KernelKind::BatchedPolyMul, &refBatchedPolyMul},
        {KernelKind::PointwiseMul, &refPointwiseMul},
        {KernelKind::PointwiseMulBatched, &refBatchedPointwiseMul},
    };
    return table;
}

} // namespace

bool
CpuReferenceBackend::handles(KernelKind kind)
{
    return refHandlers().count(kind) != 0;
}

std::vector<std::vector<u128>>
CpuReferenceBackend::execute(RpuDevice &dev, const KernelImage &image,
                             const std::vector<std::vector<u128>> &inputs)
{
    const auto it = refHandlers().find(image.kind);
    if (it == refHandlers().end()) {
        rpu_fatal("cpu-reference backend cannot execute kernel '%s' "
                  "(unhandled kind %d)",
                  image.program.name().c_str(), int(image.kind));
    }
    // Output-region count/size validation happens once for every
    // backend in RpuDevice::executeValidated.
    return it->second(dev, image, inputs);
}

// ----------------------------------------------------------------------
// RpuDevice
// ----------------------------------------------------------------------

RpuDevice::RpuDevice(std::unique_ptr<ExecutionBackend> backend,
                     std::shared_ptr<DeviceCaches> caches)
    : backend_(std::move(backend)), caches_(std::move(caches))
{
    rpu_assert(backend_ != nullptr, "device needs a backend");
    rpu_assert(caches_ != nullptr, "device needs a cache bundle");
}

void
RpuDevice::setParallelism(unsigned workers)
{
    // The per-worker launch ledger has one slot per worker plus the
    // inline slot; a wider pool would alias workers into the last
    // slot and corrupt the utilisation signal, so the pool is capped
    // at the tracked width (launch granularity is far too coarse for
    // >64 workers to pay anyway — callers routinely pass
    // hardware_concurrency() from big hosts).
    workers = std::min(workers,
                       unsigned(DeviceCounters::kWorkerSlots - 1));
    if (workers <= 1) {
        pool_.reset();
        return;
    }
    if (!pool_ || pool_->workers() != workers)
        pool_ = std::make_unique<ThreadPool>(workers);
}

void
RpuDevice::resetCounters()
{
    counters_.launches = 0;
    counters_.towerLaunches = 0;
    counters_.kernelHits = 0;
    counters_.kernelMisses = 0;
    counters_.forwardTransforms = 0;
    counters_.inverseTransforms = 0;
    counters_.pointwiseMuls = 0;
    counters_.transformsElided = 0;
    counters_.keySwitchTransforms = 0;
    counters_.stagedWords = 0;
    counters_.contendedLaunches = 0;
    counters_.maxOccupiedLanes = 0;
    for (auto &w : counters_.perWorkerLaunches)
        w = 0;
    for (auto &w : counters_.perWorkerCycles)
        w = 0;
    for (auto &w : counters_.perWorkerStagingCycles)
        w = 0;
    for (auto &w : counters_.perWorkerBusyCycles)
        w = 0;
}

void
RpuDevice::noteElidedTransforms(uint64_t towers)
{
    counters_.transformsElided += towers;
}

void
RpuDevice::noteKeySwitchTransforms(uint64_t towers)
{
    counters_.keySwitchTransforms += towers;
}

DeviceStats
RpuDevice::stats() const
{
    DeviceStats s;
    s.launches = counters_.launches;
    s.towerLaunches = counters_.towerLaunches;
    s.kernelHits = counters_.kernelHits;
    s.kernelMisses = counters_.kernelMisses;
    s.forwardTransforms = counters_.forwardTransforms;
    s.inverseTransforms = counters_.inverseTransforms;
    s.pointwiseMuls = counters_.pointwiseMuls;
    s.transformsElided = counters_.transformsElided;
    s.keySwitchTransforms = counters_.keySwitchTransforms;
    s.stagedWords = counters_.stagedWords;
    s.contendedLaunches = counters_.contendedLaunches;
    s.maxOccupiedLanes = counters_.maxOccupiedLanes;

    // Slot 0 (inline) plus one slot per current pool worker — but
    // never drop a slot that recorded launches under an earlier,
    // wider pool configuration.
    size_t slots = 1 + (pool_ ? pool_->workers() : 0);
    for (size_t i = slots; i < DeviceCounters::kWorkerSlots; ++i) {
        if (counters_.perWorkerLaunches[i] != 0)
            slots = i + 1;
    }
    for (size_t i = slots; i < DeviceCounters::kWorkerSlots; ++i) {
        if (counters_.perWorkerCycles[i] != 0)
            slots = i + 1;
    }
    slots = std::min(slots, DeviceCounters::kWorkerSlots);
    s.perWorkerLaunches.resize(slots);
    s.perWorkerCycles.resize(slots);
    s.perWorkerStagingCycles.resize(slots);
    s.perWorkerBusyCycles.resize(slots);
    for (size_t i = 0; i < slots; ++i) {
        s.perWorkerLaunches[i] = counters_.perWorkerLaunches[i];
        s.perWorkerCycles[i] = counters_.perWorkerCycles[i];
        s.perWorkerStagingCycles[i] =
            counters_.perWorkerStagingCycles[i];
        s.perWorkerBusyCycles[i] = counters_.perWorkerBusyCycles[i];
    }
    return s;
}

std::string
DeviceStats::summary() const
{
    std::string s = "launches=" + std::to_string(launches) +
                    " (towers=" + std::to_string(towerLaunches) +
                    "), ntt fwd=" + std::to_string(forwardTransforms) +
                    " inv=" + std::to_string(inverseTransforms) +
                    ", pointwise=" + std::to_string(pointwiseMuls) +
                    ", transforms elided=" +
                    std::to_string(transformsElided) +
                    " key-switch=" +
                    std::to_string(keySwitchTransforms) + ", workers=[";
    for (size_t i = 0; i < perWorkerLaunches.size(); ++i) {
        if (i > 0)
            s += " ";
        s += std::to_string(perWorkerLaunches[i]);
    }
    s += "], cycles total=" + std::to_string(cycleTotal()) +
         " makespan=" + std::to_string(makespanCycles()) +
         ", busy makespan=" + std::to_string(busyMakespanCycles()) +
         " (staging " + std::to_string(stagingCycleTotal()) +
         " cyc overlapped, contended=" +
         std::to_string(contendedLaunches) +
         " peak lanes=" + std::to_string(maxOccupiedLanes) + ")";
    return s;
}

namespace {

/** a[i] - b[i] over max(|a|, |b|) slots, missing slots reading 0. */
std::vector<uint64_t>
slotsSub(const std::vector<uint64_t> &a, const std::vector<uint64_t> &b)
{
    std::vector<uint64_t> out(std::max(a.size(), b.size()), 0);
    for (size_t i = 0; i < out.size(); ++i) {
        out[i] = (i < a.size() ? a[i] : 0) - (i < b.size() ? b[i] : 0);
    }
    return out;
}

/** a[i] += b[i], widening a to |b| first. */
void
slotsAdd(std::vector<uint64_t> &a, const std::vector<uint64_t> &b)
{
    if (a.size() < b.size())
        a.resize(b.size(), 0);
    for (size_t i = 0; i < b.size(); ++i)
        a[i] += b[i];
}

} // namespace

DeviceStats
DeviceStats::operator-(const DeviceStats &since) const
{
    DeviceStats d;
    d.launches = launches - since.launches;
    d.towerLaunches = towerLaunches - since.towerLaunches;
    d.kernelHits = kernelHits - since.kernelHits;
    d.kernelMisses = kernelMisses - since.kernelMisses;
    d.forwardTransforms = forwardTransforms - since.forwardTransforms;
    d.inverseTransforms = inverseTransforms - since.inverseTransforms;
    d.pointwiseMuls = pointwiseMuls - since.pointwiseMuls;
    d.transformsElided = transformsElided - since.transformsElided;
    d.keySwitchTransforms =
        keySwitchTransforms - since.keySwitchTransforms;
    d.stagedWords = stagedWords - since.stagedWords;
    d.contendedLaunches = contendedLaunches - since.contendedLaunches;
    // A high-water mark has no meaningful windowed delta; keep the
    // later snapshot's value.
    d.maxOccupiedLanes = maxOccupiedLanes;

    // The later snapshot may span more worker slots (the pool was
    // widened in the window); the earlier one contributes zero there.
    d.perWorkerLaunches = slotsSub(perWorkerLaunches,
                                   since.perWorkerLaunches);
    d.perWorkerCycles = slotsSub(perWorkerCycles,
                                 since.perWorkerCycles);
    d.perWorkerStagingCycles = slotsSub(perWorkerStagingCycles,
                                        since.perWorkerStagingCycles);
    d.perWorkerBusyCycles = slotsSub(perWorkerBusyCycles,
                                     since.perWorkerBusyCycles);
    return d;
}

DeviceStats &
DeviceStats::operator+=(const DeviceStats &other)
{
    launches += other.launches;
    towerLaunches += other.towerLaunches;
    kernelHits += other.kernelHits;
    kernelMisses += other.kernelMisses;
    forwardTransforms += other.forwardTransforms;
    inverseTransforms += other.inverseTransforms;
    pointwiseMuls += other.pointwiseMuls;
    transformsElided += other.transformsElided;
    keySwitchTransforms += other.keySwitchTransforms;
    stagedWords += other.stagedWords;
    contendedLaunches += other.contendedLaunches;
    maxOccupiedLanes = std::max(maxOccupiedLanes,
                                other.maxOccupiedLanes);
    slotsAdd(perWorkerLaunches, other.perWorkerLaunches);
    slotsAdd(perWorkerCycles, other.perWorkerCycles);
    slotsAdd(perWorkerStagingCycles, other.perWorkerStagingCycles);
    slotsAdd(perWorkerBusyCycles, other.perWorkerBusyCycles);
    return *this;
}

DeviceStats
DeviceStats::operator+(const DeviceStats &other) const
{
    DeviceStats d = *this;
    d += other;
    return d;
}

const Modulus &
RpuDevice::modulusContext(u128 q)
{
    return caches_->modulus.get(q);
}

const TwiddleTable &
RpuDevice::twiddleTableLocked(uint64_t n, u128 q)
{
    const auto key = std::make_pair(n, q);
    auto it = caches_->twiddle.find(key);
    if (it == caches_->twiddle.end()) {
        // The table holds a reference to the modulus context; both
        // caches only ever grow, so the reference stays valid.
        it = caches_->twiddle
                 .emplace(key, std::make_unique<TwiddleTable>(
                                   modulusContext(q), n))
                 .first;
    }
    return *it->second;
}

const TwiddleTable &
RpuDevice::twiddleTable(uint64_t n, u128 q)
{
    std::lock_guard<std::mutex> lock(caches_->contextMutex);
    return twiddleTableLocked(n, q);
}

const NttContext &
RpuDevice::nttContext(uint64_t n, u128 q)
{
    std::lock_guard<std::mutex> lock(caches_->contextMutex);
    const auto key = std::make_pair(n, q);
    auto it = caches_->ntt.find(key);
    if (it == caches_->ntt.end()) {
        it = caches_->ntt
                 .emplace(key, std::make_unique<NttContext>(
                                   twiddleTableLocked(n, q)))
                 .first;
    }
    return *it->second;
}

std::string
RpuDevice::kernelKey(KernelKind kind, uint64_t n,
                     const std::vector<u128> &moduli,
                     const NttCodegenOptions &opts) const
{
    // Everything that changes the generated/scheduled program, each
    // field behind its own delimiter so no two specs can collide.
    std::string key = "k" + std::to_string(int(kind)) + ":n" +
                      std::to_string(n) + ":m";
    for (u128 q : moduli) {
        key += std::to_string(uint64_t(q >> 64)) + "_" +
               std::to_string(uint64_t(q)) + ",";
    }
    key += ":o" + std::to_string(opts.optimized) + ":w" +
           std::to_string(opts.twiddleCompose);
    // The design point only shapes the program through the list
    // scheduler, which unoptimized generation skips. Every RpuConfig
    // field is keyed — including ones the scheduler does not consult
    // today (vdmBytes) — so a future scheduler input can never alias
    // two design points onto one cached kernel.
    if (opts.optimized) {
        const RpuConfig &c = opts.scheduleConfig;
        for (uint64_t v :
             {uint64_t(c.numHples), uint64_t(c.numBanks),
              uint64_t(c.vdmBytes), uint64_t(c.mulLatency),
              uint64_t(c.mulII), uint64_t(c.addLatency),
              uint64_t(c.shuffleLatency), uint64_t(c.lsLatency),
              uint64_t(c.sdmLatency), uint64_t(c.queueDepth),
              uint64_t(c.dispatchWidth),
              uint64_t(c.exclusiveReaders)}) {
            key += ":" + std::to_string(v);
        }
    }
    return key;
}

const KernelImage &
RpuDevice::kernel(KernelKind kind, uint64_t n,
                  const std::vector<u128> &moduli,
                  const NttCodegenOptions &opts)
{
    rpu_assert(!moduli.empty(), "kernel needs at least one modulus");

    const std::string key = kernelKey(kind, n, moduli, opts);
    // Single-flight generation per key: the first requester marks the
    // key in the bundle's generating set and builds the kernel
    // *outside* the cache lock, so distinct kernels generate
    // concurrently (e.g. several towers' kernels racing in from
    // worker threads); same-key requesters wait on the condvar for
    // the one generation instead of duplicating it, and count a cache
    // hit once it lands. The bundle may be shared across a topology:
    // hit/miss counters stay per-device, so a kernel generated on one
    // device is observably a hit (not a regeneration) on every other.
    std::unique_lock<std::mutex> lock(caches_->kernelMutex);
    for (;;) {
        auto it = caches_->kernels.find(key);
        if (it != caches_->kernels.end()) {
            ++counters_.kernelHits;
            return *it->second;
        }
        if (caches_->generating.insert(key).second)
            break;
        caches_->kernelCv.wait(lock);
    }
    ++counters_.kernelMisses;
    lock.unlock();

    NttCodegenOptions gen_opts = opts;
    gen_opts.inverse = kind == KernelKind::InverseNtt ||
                       kind == KernelKind::BatchedInverseNtt;

    std::vector<const TwiddleTable *> towers;
    towers.reserve(moduli.size());
    for (u128 q : moduli)
        towers.push_back(&twiddleTable(n, q));

    auto image = std::make_unique<KernelImage>();
    switch (kind) {
      case KernelKind::ForwardNtt:
      case KernelKind::InverseNtt:
        rpu_assert(moduli.size() == 1, "single-ring kernel");
        *image = static_cast<KernelImage &&>(
            generateNttKernel(*towers[0], gen_opts));
        break;
      case KernelKind::PolyMul:
        rpu_assert(moduli.size() == 1, "single-ring kernel");
        *image = static_cast<KernelImage &&>(
            generatePolyMulKernel(*towers[0], gen_opts));
        break;
      case KernelKind::BatchedForwardNtt:
      case KernelKind::BatchedInverseNtt:
        *image = static_cast<KernelImage &&>(
            generateBatchedNtt(towers, gen_opts));
        break;
      case KernelKind::BatchedPolyMul:
        *image = generateBatchedPolyMul(towers, gen_opts);
        break;
      case KernelKind::PointwiseMul:
        rpu_assert(moduli.size() == 1, "single-ring kernel");
        *image = static_cast<KernelImage &&>(
            generatePointwiseMulKernel(*towers[0], gen_opts));
        break;
      case KernelKind::PointwiseMulBatched:
        *image = generateBatchedPointwiseMul(towers, gen_opts);
        break;
      case KernelKind::kCount:
        rpu_fatal("kCount is a sentinel, not a kernel kind");
    }

    // Cycle-simulate the program once, at the design point it was
    // generated for, and stamp the cost on the image itself: every
    // launch then folds its modelled cost into the per-worker cycle
    // ledger with a plain field read, no lock (this runs outside the
    // cache lock, like generation itself).
    RpuConfig cycle_cfg = gen_opts.scheduleConfig;
    cycle_cfg.vdmBytes =
        std::max(cycle_cfg.vdmBytes, image->vdmBytesRequired);
    image->modelCycles =
        simulateCycles(image->program, cycle_cfg).cycles;

    // Publish and wake every same-key waiter. Generation itself
    // cannot fail softly (codegen errors are fatal), so the
    // generating entry is always cleared here.
    lock.lock();
    auto it = caches_->kernels.emplace(key, std::move(image)).first;
    caches_->generating.erase(key);
    caches_->kernelCv.notify_all();
    return *it->second;
}

void
RpuDevice::validateLaunch(const KernelImage &image,
                          const std::vector<std::vector<u128>> &inputs)
    const
{
    const auto in_regions = image.inputRegions();
    if (inputs.size() != in_regions.size()) {
        rpu_fatal("kernel '%s' takes %zu inputs, got %zu",
                  image.program.name().c_str(), in_regions.size(),
                  inputs.size());
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i].size() != in_regions[i]->words) {
            rpu_fatal("input '%s' wants %llu words, got %zu",
                      in_regions[i]->name.c_str(),
                      (unsigned long long)in_regions[i]->words,
                      inputs[i].size());
        }
    }
}

std::vector<std::vector<u128>>
RpuDevice::executeValidated(const KernelImage &image,
                            const std::vector<std::vector<u128>> &inputs,
                            unsigned structuralLanes)
{
    ++counters_.launches;
    counters_.towerLaunches += image.moduli.size();

    // Semantic, tower-granular transform ledger: what the kernel kind
    // actually computes, independent of how it was dispatched.
    const uint64_t towers = image.moduli.size();
    switch (image.kind) {
      case KernelKind::ForwardNtt:
        counters_.forwardTransforms += 1;
        break;
      case KernelKind::InverseNtt:
        counters_.inverseTransforms += 1;
        break;
      case KernelKind::PolyMul:
        counters_.forwardTransforms += 2;
        counters_.inverseTransforms += 1;
        counters_.pointwiseMuls += 1;
        break;
      case KernelKind::BatchedForwardNtt:
        counters_.forwardTransforms += towers;
        break;
      case KernelKind::BatchedInverseNtt:
        counters_.inverseTransforms += towers;
        break;
      case KernelKind::BatchedPolyMul:
        counters_.forwardTransforms += 2 * towers;
        counters_.inverseTransforms += towers;
        counters_.pointwiseMuls += towers;
        break;
      case KernelKind::PointwiseMul:
        counters_.pointwiseMuls += 1;
        break;
      case KernelKind::PointwiseMulBatched:
        counters_.pointwiseMuls += towers;
        break;
      case KernelKind::kCount:
        break;
    }

    // Attribute the launch to the lane that ran it: slot 0 for the
    // calling thread, 1 + w for worker w of *this device's* pool.
    // A launch issued from some other pool's worker thread is an
    // inline launch as far as this device is concerned, so it counts
    // in slot 0 rather than crediting a phantom worker.
    const bool own_worker =
        pool_ && ThreadPool::currentPool() == pool_.get();
    const size_t slot =
        own_worker ? size_t(ThreadPool::currentWorkerIndex() + 1) : 0;
    ++counters_.perWorkerLaunches[slot];
    counters_.perWorkerCycles[slot] += image.modelCycles;

    // Contention ledger: words staged in + drained out, costed
    // through the HBM model at the lane occupancy this launch ran
    // under. Occupancy is the max of the dispatch-structure hint
    // (deterministic: a batch of m launches over a w-worker pool
    // fills min(w, m) lanes at steady state) and the launches
    // actually observed in flight right now (catches unstructured
    // concurrency, e.g. several dispatcher threads sharing a serial
    // device). At single-lane occupancy the staging/drain traffic
    // hides fully behind compute — busy == modelCycles, the PR 5
    // ledger bit for bit.
    uint64_t words = 0;
    for (const std::vector<u128> &in : inputs)
        words += in.size();
    for (const DataRegion *r : image.outputRegions())
        words += r->words;

    const uint32_t in_flight = active_launches_.fetch_add(1) + 1;
    const unsigned lanes =
        std::max(structuralLanes, unsigned(in_flight));
    const uint64_t staging = contention_.stagingCycles(words);
    const uint64_t busy =
        contention_.busyCycles(image.modelCycles, words, lanes);
    counters_.stagedWords += words;
    counters_.perWorkerStagingCycles[slot] += staging;
    counters_.perWorkerBusyCycles[slot] += busy;
    if (lanes > 1)
        ++counters_.contendedLaunches;
    uint64_t peak = counters_.maxOccupiedLanes.load();
    while (peak < lanes &&
           !counters_.maxOccupiedLanes.compare_exchange_weak(peak,
                                                             lanes)) {
    }

    // Balance active_launches_ on every exit path (backend execute
    // may throw; validation already happened).
    struct LaneGuard
    {
        std::atomic<uint32_t> &active;
        ~LaneGuard() { active.fetch_sub(1); }
    } lane_guard{active_launches_};

    auto outputs = backend_->execute(*this, image, inputs);

    // Guard every backend, present and future: an execute() that
    // under-fills the image's output regions must never hand callers
    // truncated results.
    const auto out_regions = image.outputRegions();
    if (outputs.size() != out_regions.size()) {
        rpu_fatal("kernel '%s' declares %zu output regions, backend "
                  "'%s' produced %zu",
                  image.program.name().c_str(), out_regions.size(),
                  backend_->name(), outputs.size());
    }
    for (size_t i = 0; i < outputs.size(); ++i) {
        if (outputs[i].size() != out_regions[i]->words) {
            rpu_fatal("output '%s' wants %llu words, backend '%s' "
                      "produced %zu",
                      out_regions[i]->name.c_str(),
                      (unsigned long long)out_regions[i]->words,
                      backend_->name(), outputs[i].size());
        }
    }
    return outputs;
}

std::vector<std::vector<u128>>
RpuDevice::launch(const KernelImage &image,
                  const std::vector<std::vector<u128>> &inputs)
{
    validateLaunch(image, inputs);
    return executeValidated(image, inputs);
}

std::vector<std::vector<std::vector<u128>>>
RpuDevice::launchAll(const std::vector<LaunchRequest> &batch)
{
    // Validate the whole batch on the calling thread so user errors
    // fire deterministically before any worker starts.
    for (const LaunchRequest &req : batch) {
        rpu_assert(req.image != nullptr, "launch without a kernel");
        validateLaunch(*req.image, req.inputs);
    }

    std::vector<std::vector<std::vector<u128>>> results(batch.size());
    if (pool_ && batch.size() > 1) {
        // The batch structurally occupies min(workers, batch) lanes;
        // the contention ledger models that occupancy even when the
        // host OS happens to serialise the worker threads.
        const unsigned lanes = unsigned(
            std::min<size_t>(pool_->workers(), batch.size()));
        std::vector<std::future<std::vector<std::vector<u128>>>> futures;
        futures.reserve(batch.size());
        for (const LaunchRequest &req : batch) {
            futures.push_back(pool_->submit([this, &req, lanes] {
                return executeValidated(*req.image, req.inputs, lanes);
            }));
        }
        // Collect in request order: results are deterministic no
        // matter which worker finishes first, and each launch is a
        // pure function of (image, inputs), so the batch is
        // bit-identical to the serial path. whenAll joins every job
        // before surfacing any failure — still-queued jobs hold
        // references into the caller's batch, so unwinding early
        // would free memory under them.
        results = whenAll(std::move(futures));
    } else {
        for (size_t i = 0; i < batch.size(); ++i)
            results[i] = executeValidated(*batch[i].image,
                                          batch[i].inputs);
    }
    return results;
}

std::vector<std::vector<std::vector<u128>>>
RpuDevice::whenAll(std::vector<LaunchFuture> futures)
{
    // Request-ordered join. Every future is drained before the first
    // failure is rethrown: a still-running launch must never outlive
    // an unwinding caller that owns state it references.
    std::vector<std::vector<std::vector<u128>>> results(futures.size());
    std::exception_ptr first_error;
    for (size_t i = 0; i < futures.size(); ++i) {
        try {
            results[i] = futures[i].get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

LaunchFuture
RpuDevice::launchAsync(const KernelImage &image,
                       std::vector<std::vector<u128>> inputs,
                       unsigned structuralLanes)
{
    validateLaunch(image, inputs);
    if (pool_) {
        return pool_->submit(
            [this, &image, in = std::move(inputs), structuralLanes] {
                return executeValidated(image, in, structuralLanes);
            });
    }
    // Inline execution still reports failure through the future, so
    // callers handle errors at .get() regardless of the parallelism.
    // An inline launch occupies exactly one lane whatever the caller
    // believed the dispatch structure was.
    std::promise<std::vector<std::vector<u128>>> done;
    try {
        done.set_value(executeValidated(image, inputs));
    } catch (...) {
        done.set_exception(std::current_exception());
    }
    return done.get_future();
}

std::vector<u128>
RpuDevice::ntt(uint64_t n, u128 q, const std::vector<u128> &x,
               bool inverse, const NttCodegenOptions &opts)
{
    const KernelImage &k = kernel(
        inverse ? KernelKind::InverseNtt : KernelKind::ForwardNtt, n,
        {q}, opts);
    return launch(k, {x})[0];
}

std::vector<u128>
RpuDevice::pointwiseMul(uint64_t n, u128 q, const std::vector<u128> &a,
                        const std::vector<u128> &b,
                        const NttCodegenOptions &opts)
{
    const KernelImage &k = kernel(KernelKind::PointwiseMul, n, {q}, opts);
    return launch(k, {a, b})[0];
}

std::vector<TowerTile>
RpuDevice::cutTiles(TowerOp op, const std::vector<size_t> &segments,
                    bool perTower)
{
    // Indexed by TowerOp.
    static constexpr KernelKind kSingle[] = {KernelKind::ForwardNtt,
                                             KernelKind::InverseNtt,
                                             KernelKind::PointwiseMul};
    static constexpr KernelKind kBatched[] = {
        KernelKind::BatchedForwardNtt, KernelKind::BatchedInverseNtt,
        KernelKind::PointwiseMulBatched};
    const KernelKind kind = (perTower ? kSingle : kBatched)[size_t(op)];
    const size_t step = perTower ? 1 : kMaxBatchedTowers;

    std::vector<TowerTile> tiles;
    size_t base = 0;
    for (size_t towers : segments) {
        for (size_t t = 0; t < towers; t += step) {
            tiles.push_back(
                {base + t, base + std::min(towers, t + step), kind});
        }
        base += towers;
    }
    return tiles;
}

std::vector<TowerSet>
RpuDevice::executeTiles(
    TowerOp op, const std::vector<size_t> &itemTowers,
    const std::vector<TowerTile> &tiles, std::vector<TowerSet> a,
    std::vector<TowerSet> b,
    const std::function<void(std::vector<TowerSet> &io)> &launchTiles)
{
    const bool pointwise = op == TowerOp::Pointwise;
    const size_t items = itemTowers.size();
    rpu_assert(a.size() == items && b.size() == (pointwise ? items : 0),
               "item count mismatch");

    // Flatten: per tower, the a operand, then (pointwise) the b
    // operand — the region layout of one PointwiseMulBatched pair, so
    // a tower's two regions always land in the same tile.
    std::vector<std::vector<u128>> flat;
    for (size_t i = 0; i < items; ++i) {
        rpu_assert(a[i].size() == itemTowers[i] &&
                       (!pointwise || b[i].size() == itemTowers[i]),
                   "tower count mismatch in item %zu", i);
        for (size_t t = 0; t < itemTowers[i]; ++t) {
            flat.push_back(std::move(a[i][t]));
            if (pointwise)
                flat.push_back(std::move(b[i][t]));
        }
    }
    const size_t per_tower = pointwise ? 2 : 1;
    std::vector<TowerSet> io(tiles.size());
    for (size_t g = 0; g < tiles.size(); ++g) {
        io[g].assign(
            std::make_move_iterator(flat.begin() +
                                    per_tower * tiles[g].begin),
            std::make_move_iterator(flat.begin() +
                                    per_tower * tiles[g].end));
    }

    launchTiles(io);

    // Tiles cover the chain in order with one output region per
    // tower, so the outputs concatenate back into the flat chain.
    flat.clear();
    for (TowerSet &part : io)
        for (auto &r : part)
            flat.push_back(std::move(r));
    std::vector<TowerSet> out(items);
    size_t f = 0;
    for (size_t i = 0; i < items; ++i) {
        rpu_assert(f + itemTowers[i] <= flat.size(),
                   "tiles resolved to %zu regions, too few for item %zu",
                   flat.size(), i);
        out[i].assign(std::make_move_iterator(flat.begin() + f),
                      std::make_move_iterator(flat.begin() + f +
                                              itemTowers[i]));
        f += itemTowers[i];
    }
    return out;
}

std::vector<TowerSet>
RpuDevice::runTowers(TowerOp op, uint64_t n,
                     const std::vector<u128> &moduli,
                     std::vector<TowerSet> a, std::vector<TowerSet> b,
                     const NttCodegenOptions &opts)
{
    const std::vector<size_t> item_towers(a.size(), moduli.size());
    const bool per_tower = pool_ && a.size() * moduli.size() > 1;
    const std::vector<TowerTile> tiles =
        cutTiles(op, item_towers, per_tower);

    // Every item tiles the basis identically: look item 0's tile
    // kernels up once and reuse them for every item.
    const size_t per_item = a.empty() ? 0 : tiles.size() / a.size();
    std::vector<const KernelImage *> images;
    for (size_t g = 0; g < per_item; ++g) {
        images.push_back(&kernel(
            tiles[g].kind, n,
            {moduli.begin() + tiles[g].begin,
             moduli.begin() + tiles[g].end},
            opts));
    }

    // launchAsync runs inline on a serial device; on a pooled one the
    // launches structurally fill min(workers, launches) lanes.
    const unsigned lanes =
        unsigned(std::min<size_t>(parallelism(), tiles.size()));
    return executeTiles(
        op, item_towers, tiles, std::move(a), std::move(b),
        [&](std::vector<TowerSet> &io) {
            std::vector<LaunchFuture> futures;
            futures.reserve(io.size());
            for (size_t g = 0; g < io.size(); ++g) {
                futures.push_back(launchAsync(*images[g % per_item],
                                              std::move(io[g]), lanes));
            }
            io = whenAll(std::move(futures));
        });
}

} // namespace rpu
