/**
 * @file
 * RpuDevice: the host-side device layer every kernel launch goes
 * through.
 *
 * The paper's flow (section V) stages host polynomials into the
 * scratchpads, runs a SPIRAL-generated B512 program on the functional
 * simulator, and reads the result back. This layer centralises that
 * launch path behind one object:
 *
 *  - a kernel cache keyed by (kind, n, moduli, codegen options), so a
 *    ring's kernels are generated and scheduled once and reused across
 *    launches;
 *  - shared numeric context caches (Montgomery modulus contexts,
 *    twiddle tables, reference NTT contexts) that are expensive to
 *    build and were previously rebuilt per launch;
 *  - a pluggable ExecutionBackend, with two implementations: the
 *    bit-exact functional simulator and the CPU reference baseline.
 *    Both consume the same KernelImage, so any kernel can be checked
 *    bit-for-bit across backends;
 *  - batched launches (launchAll) that push many independent tower
 *    launches through one backend, the software counterpart of the
 *    paper's "process different towers simultaneously" — and, with
 *    setParallelism(w > 1), actually execute them concurrently on a
 *    worker pool, with request-ordered results bit-identical to the
 *    serial path;
 *  - one tile executor (runTowers) for every multi-tower op: items'
 *    towers are flattened, cut into tiles by cutTiles, and launched
 *    one kernel per tile — batched per item on a serial device, one
 *    single-ring launch per tower across a pooled device's workers.
 *    RpuTopology::runTowers drives the same executor over packed
 *    tiles spread across devices.
 */

#ifndef RPU_RPU_DEVICE_HH
#define RPU_RPU_DEVICE_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "codegen/ntt_codegen.hh"
#include "model/contention.hh"
#include "poly/polynomial.hh"
#include "rpu/thread_pool.hh"
#include "sim/functional/executor.hh"

namespace rpu {

class RpuDevice;

/**
 * The numeric and kernel caches a device launches against, extracted
 * so an N-device topology can share one bundle: Montgomery modulus
 * contexts, twiddle tables, reference NTT contexts, and the generated
 * kernel images with their single-flight generation state. A kernel
 * generated (and cycle-simulated) on one device is a cache hit on
 * every other device of the same topology — generate once, launch
 * anywhere — so prewarm cost and codegen latency do not scale with
 * device count.
 *
 * Locking is exactly what RpuDevice used when it owned these members
 * privately: kernel generation runs outside kernelMutex (the
 * generating set + condvar keep it single-flight per key), generation
 * takes contextMutex for twiddle tables, and the modulus cache
 * synchronises itself below everything. All four caches are
 * append-only with node-stable storage, so returned references never
 * need the lock and stay valid for the bundle's lifetime.
 */
struct DeviceCaches
{
    ModulusContextCache modulus;
    mutable std::mutex contextMutex;
    std::map<std::pair<uint64_t, u128>, std::unique_ptr<TwiddleTable>>
        twiddle;
    std::map<std::pair<uint64_t, u128>, std::unique_ptr<NttContext>>
        ntt;
    mutable std::mutex kernelMutex;
    std::map<std::string, std::unique_ptr<KernelImage>> kernels;
    /// Keys whose kernels are being generated right now. Guarded by
    /// kernelMutex; kernelCv signals every insertion into kernels so
    /// same-key waiters (on any device) can re-check the cache.
    std::set<std::string> generating;
    std::condition_variable kernelCv;
};

/**
 * Executes staged kernel launches. Backends receive the device so
 * they can use its shared numeric caches.
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    virtual const char *name() const = 0;

    /**
     * Run @p image with @p inputs bound to its input regions (in
     * region order); return the output regions' contents (in region
     * order).
     */
    virtual std::vector<std::vector<u128>>
    execute(RpuDevice &dev, const KernelImage &image,
            const std::vector<std::vector<u128>> &inputs) = 0;
};

/**
 * Bit-exact functional simulation of the B512 program — the paper's
 * verification path and this repository's default execution engine.
 *
 * The architectural state is resident, as the RPU's scratchpads and
 * register files are: each launch takes an idle ArchState (building
 * one only when every state is busy), resets it to exactly its
 * freshly constructed value (ArchState::reset zeroes only what the
 * previous launch wrote), stages, runs and dumps, then returns it —
 * also when the launch throws. The backend therefore holds one state
 * per launch it has ever run concurrently: 1 on a serial device,
 * about workers + 1 on a pooled one.
 */
class FunctionalSimBackend : public ExecutionBackend
{
  public:
    const char *name() const override { return "functional-sim"; }

    std::vector<std::vector<u128>>
    execute(RpuDevice &dev, const KernelImage &image,
            const std::vector<std::vector<u128>> &inputs) override;

  private:
    std::mutex idle_mutex_;
    /// States no launch is using; guarded by idle_mutex_.
    std::vector<std::unique_ptr<ArchState>> idle_;
    /// States built so far (idle or in use); guarded by idle_mutex_.
    size_t states_ = 0;
};

/**
 * CPU reference baseline: computes the kernel's function with the
 * golden-model NTT instead of executing the program. Launch-for-launch
 * bit-identical to the functional simulator (backend equivalence is a
 * tier-1 test), and the natural A/B harness for new kernels.
 */
class CpuReferenceBackend : public ExecutionBackend
{
  public:
    const char *name() const override { return "cpu-reference"; }

    /**
     * Whether a reference handler is registered for @p kind. The
     * handler table is the single source of truth execute() consults;
     * a tier-1 test iterates every KernelKind through this, so adding
     * a kind without a reference handler fails ctest instead of
     * fataling at the first launch.
     */
    static bool handles(KernelKind kind);

    std::vector<std::vector<u128>>
    execute(RpuDevice &dev, const KernelImage &image,
            const std::vector<std::vector<u128>> &inputs) override;
};

/**
 * Launch and cache activity since construction / resetCounters().
 * Fields are individually atomic (workers bump them concurrently);
 * cross-counter consistency is only guaranteed while no launches are
 * in flight.
 *
 * The transform counters are semantic and tower-granular: every
 * launch contributes the number of forward / inverse NTT passes and
 * pointwise tower products its kernel kind actually performs (a
 * BatchedPolyMul over T towers is 2T forward + T inverse; a
 * PointwiseMulBatched is T pointwise products and no transforms).
 * transformsElided counts the tower transforms a domain-aware caller
 * skipped because an operand was already resident in the target
 * domain (see ResidueOps) — the paper's amortise-the-NTT win, made
 * observable.
 */
struct DeviceCounters
{
    /** Worker slots tracked for per-worker launch attribution:
     *  slot 0 is the calling thread (serial / inline launches),
     *  slot 1 + w is pool worker w. */
    static constexpr size_t kWorkerSlots = 65;

    std::atomic<uint64_t> launches{0}; ///< launches issued to the backend
    std::atomic<uint64_t> towerLaunches{0}; ///< tower transforms inside those
    std::atomic<uint64_t> kernelHits{0};    ///< kernel-cache hits
    std::atomic<uint64_t> kernelMisses{0};  ///< kernel-cache misses

    std::atomic<uint64_t> forwardTransforms{0}; ///< fwd NTT passes executed
    std::atomic<uint64_t> inverseTransforms{0}; ///< inv NTT passes executed
    std::atomic<uint64_t> pointwiseMuls{0}; ///< pointwise tower products
    std::atomic<uint64_t> transformsElided{0}; ///< conversions skipped

    /** Of the issued transforms, how many were key-switch plumbing
     *  (relinearisation's digit split + re-entry) rather than
     *  workload domain boundaries. A subset annotation reported by
     *  the evaluator, not a separate execution count: subtract it
     *  from transformsIssued() to get the workload-only figure, so
     *  elision ratios for user chains stay meaningful once ct x ct
     *  multiplies enter the mix. */
    std::atomic<uint64_t> keySwitchTransforms{0};

    std::atomic<uint64_t> perWorkerLaunches[kWorkerSlots] = {};

    /** Modelled RPU cycles of the launches each lane executed (the
     *  per-kernel KernelMetrics cycle counts, folded into the same
     *  per-worker ledger as the launch counts). */
    std::atomic<uint64_t> perWorkerCycles[kWorkerSlots] = {};

    /** HBM staging/drain cycles of each lane's launches at full
     *  bandwidth (input + output region words through the contention
     *  model). Fully overlapped behind compute while a launch has the
     *  interface to itself — recorded so the overlap is observable,
     *  not folded into the cycle ledger. */
    std::atomic<uint64_t> perWorkerStagingCycles[kWorkerSlots] = {};

    /** Contended busy cycles per lane: each launch's modelled cost
     *  plus the HBM-contention term for the lanes concurrently
     *  occupied with it (HbmContentionModel::busyCycles). Equal to
     *  perWorkerCycles while the device never ran >1 lane at once. */
    std::atomic<uint64_t> perWorkerBusyCycles[kWorkerSlots] = {};

    /** Words staged + drained across all launches. */
    std::atomic<uint64_t> stagedWords{0};
    /** Launches whose modelled cost carried a contention term. */
    std::atomic<uint64_t> contendedLaunches{0};
    /** High-water mark of concurrently occupied lanes. */
    std::atomic<uint64_t> maxOccupiedLanes{0};
};

/**
 * A coherent snapshot of the device's aggregate activity — the
 * device-level roll-up of what per-kernel KernelMetrics measure one
 * program at a time, and the first step toward a multi-RPU
 * utilisation model: per-worker launch counts show how evenly a
 * batch spread across the pool, and issued-vs-elided transform
 * totals show what evaluation-domain residency saved.
 */
struct DeviceStats
{
    uint64_t launches = 0;
    uint64_t towerLaunches = 0;
    uint64_t kernelHits = 0;
    uint64_t kernelMisses = 0;

    uint64_t forwardTransforms = 0;
    uint64_t inverseTransforms = 0;
    uint64_t pointwiseMuls = 0;
    uint64_t transformsElided = 0;
    uint64_t keySwitchTransforms = 0; ///< subset of issued (see counters)

    /** [0] = inline launches on callers' threads; [1 + w] = worker w. */
    std::vector<uint64_t> perWorkerLaunches;

    /**
     * Modelled RPU cycles executed per lane (same slot layout):
     * every launch contributes its image's modelCycles — stamped at
     * generation time by the device's kernel cache — so the ledger
     * converts directly into device-time. Ad-hoc KernelImages that
     * were never cycle-simulated contribute zero; every scheme /
     * ResidueOps path launches cached kernels, so the HE pipelines
     * are fully covered.
     */
    std::vector<uint64_t> perWorkerCycles;

    /** Staging/drain cycles per lane (same slot layout); overlapped
     *  behind compute at single-lane occupancy. */
    std::vector<uint64_t> perWorkerStagingCycles;

    /** Contended busy cycles per lane (same slot layout): modelled
     *  cost plus the HBM-contention term. See DeviceCounters. */
    std::vector<uint64_t> perWorkerBusyCycles;

    uint64_t stagedWords = 0;
    uint64_t contendedLaunches = 0;
    /** High-water mark, not a windowed delta: operator- carries the
     *  later snapshot's value through unchanged. */
    uint64_t maxOccupiedLanes = 0;

    uint64_t transformsIssued() const
    {
        return forwardTransforms + inverseTransforms;
    }

    /** Transforms issued for the workload's own domain boundaries —
     *  issued minus the key-switch digit-split/re-entry passes. */
    uint64_t workloadTransforms() const
    {
        return transformsIssued() - keySwitchTransforms;
    }

    /** Total modelled cycles across every lane. */
    uint64_t cycleTotal() const
    {
        uint64_t sum = 0;
        for (uint64_t c : perWorkerCycles)
            sum += c;
        return sum;
    }

    /**
     * Device-level makespan estimate: the busiest lane's cycle
     * total. For a batch fanned across w workers this is the
     * modelled wall-clock of a w-RPU (or w-lane-group) system;
     * cycleTotal() / makespanCycles() is its utilisation-weighted
     * speedup over one RPU.
     */
    uint64_t makespanCycles() const
    {
        uint64_t worst = 0;
        for (uint64_t c : perWorkerCycles)
            worst = std::max(worst, c);
        return worst;
    }

    /** Total staging/drain cycles across every lane. */
    uint64_t stagingCycleTotal() const
    {
        uint64_t sum = 0;
        for (uint64_t c : perWorkerStagingCycles)
            sum += c;
        return sum;
    }

    /** Total contended busy cycles across every lane. */
    uint64_t busyCycleTotal() const
    {
        uint64_t sum = 0;
        for (uint64_t c : perWorkerBusyCycles)
            sum += c;
        return sum;
    }

    /**
     * Contention-aware makespan: the busiest lane's contended busy
     * cycles. Equals makespanCycles() exactly while the device never
     * ran more than one lane at once (full staging/drain overlap);
     * strictly exceeds it as soon as concurrent lanes shared the HBM
     * interface — the multi-RPU capacity model's per-device term.
     */
    uint64_t busyMakespanCycles() const
    {
        uint64_t worst = 0;
        for (uint64_t c : perWorkerBusyCycles)
            worst = std::max(worst, c);
        return worst;
    }

    /** One-line summary for benches and examples. */
    std::string summary() const;

    /**
     * Windowed delta between two snapshots of the *same* device with
     * no resetCounters() in between: every counter of @p since is
     * subtracted field-wise (per-worker vectors are padded with
     * zeros when the pool widened between the snapshots). This is
     * how the serving layer and benches attribute launches and
     * transforms to one request window instead of diffing cumulative
     * counters by hand; see also RpuDevice::statsSince.
     */
    DeviceStats operator-(const DeviceStats &since) const;

    /**
     * Field-wise sum — how a topology rolls N per-device windows into
     * one ledger. Per-worker vectors are padded with zeros to the
     * wider operand (devices may run different pool widths), so slot
     * i accumulates every device's slot-i activity and no slot is
     * ever dropped or misaligned; maxOccupiedLanes takes the max.
     * Note the summed per-worker vectors merge *different devices'*
     * lanes, so makespan readings on a summed ledger are meaningless
     * — use RpuTopology::makespanCycles (max over per-device
     * makespans) for the topology-wide figure.
     */
    DeviceStats &operator+=(const DeviceStats &other);
    DeviceStats operator+(const DeviceStats &other) const;
};

/** One element of a batched launchAll(). */
struct LaunchRequest
{
    const KernelImage *image = nullptr;
    std::vector<std::vector<u128>> inputs;
};

/** The future every asynchronous launch path resolves to. */
using LaunchFuture = std::future<std::vector<std::vector<u128>>>;

/** The tower op one multi-tower dispatch performs. */
enum class TowerOp
{
    Forward,   ///< forward NTT of every tower
    Inverse,   ///< inverse NTT of every tower
    Pointwise, ///< a .* b of every tower (two input regions per tower)
};

/** One item's residues (a ciphertext component, a plaintext, ...),
 *  one vector per tower. */
using TowerSet = std::vector<std::vector<u128>>;

/** One launch of the tile executor: towers [begin, end) of a
 *  flattened tower chain, run as one @p kind kernel. */
struct TowerTile
{
    size_t begin = 0;
    size_t end = 0;
    KernelKind kind = KernelKind::kCount;
};

/** An RPU: kernel cache + context caches + execution backend. */
class RpuDevice
{
  public:
    /** Default device: functional-simulator backend, private caches. */
    RpuDevice() : RpuDevice(std::make_unique<FunctionalSimBackend>()) {}

    explicit RpuDevice(std::unique_ptr<ExecutionBackend> backend)
        : RpuDevice(std::move(backend),
                    std::make_shared<DeviceCaches>())
    {
    }

    /**
     * A device over an existing cache bundle — how RpuTopology builds
     * N devices that generate each kernel and numeric context once
     * between them. @p caches must outlive the device (shared
     * ownership guarantees it).
     */
    RpuDevice(std::unique_ptr<ExecutionBackend> backend,
              std::shared_ptr<DeviceCaches> caches);

    ExecutionBackend &backend() { return *backend_; }

    /** The cache bundle this device launches against. */
    const std::shared_ptr<DeviceCaches> &caches() const
    {
        return caches_;
    }

    /**
     * The HBM-contention model folded into the busy-cycle ledger.
     * Reconfigure only between batches (reads race with in-flight
     * launches otherwise).
     */
    const HbmContentionModel &contentionModel() const
    {
        return contention_;
    }
    void setContentionModel(const HbmContentionModel &m)
    {
        contention_ = m;
    }

    const DeviceCounters &counters() const { return counters_; }
    void resetCounters();

    /**
     * Aggregate activity snapshot (see DeviceStats). Consistent only
     * while no launches are in flight; perWorkerLaunches spans slot 0
     * (inline launches) plus one slot per current pool worker.
     */
    DeviceStats stats() const;

    /**
     * The device's activity since @p snapshot (an earlier stats()
     * with no resetCounters() in between): stats() - snapshot.
     * Consistent under the same conditions as stats() itself.
     */
    DeviceStats statsSince(const DeviceStats &snapshot) const
    {
        return stats() - snapshot;
    }

    /**
     * Record @p towers tower transforms that a domain-aware caller
     * skipped because the operand was already resident in the target
     * domain. Callers (ResidueOps) report elisions here so the
     * issued-vs-elided ledger lives in one place.
     */
    void noteElidedTransforms(uint64_t towers);

    /**
     * Annotate @p towers of the transforms just issued as key-switch
     * plumbing (relinearisation's digit split + re-entry). Reported
     * by RlweEvaluator::relinearise alongside the launches
     * themselves; always <= the tower transforms issued.
     */
    void noteKeySwitchTransforms(uint64_t towers);

    // -- Concurrency -----------------------------------------------------

    /**
     * Number of worker threads independent launches fan out across.
     * 1 (the default) executes every batch serially on the caller's
     * thread; w > 1 starts a worker pool and launchAll()/launchAsync()
     * (and the RNS tower paths built on them) overlap independent
     * launches. Results are request-ordered and bit-identical to the
     * serial path regardless of the setting. Capped at 64 workers
     * (the per-worker launch ledger's width) so passing
     * hardware_concurrency() from a large host is always safe. Not
     * thread-safe against in-flight launches: reconfigure only
     * between batches.
     */
    void setParallelism(unsigned workers);
    unsigned parallelism() const { return pool_ ? pool_->workers() : 1; }

    /**
     * The worker pool, or null when parallelism() == 1. Host-side
     * helpers (e.g. RlweEvaluator's per-tower fan-outs) may submit
     * independent host work to ride the same lanes between launches;
     * jobs submitted here do not touch the launch ledger.
     */
    ThreadPool *workerPool() const { return pool_.get(); }

    // -- Shared numeric context caches ---------------------------------

    /** Montgomery context for @p q, built once per cache bundle. */
    const Modulus &modulusContext(u128 q);

    /** The cache itself (shared with every functional-sim launch). */
    ModulusContextCache &modulusCache() { return caches_->modulus; }

    /** Twiddle tables / reference transforms for one (n, q) ring. */
    const TwiddleTable &twiddleTable(uint64_t n, u128 q);
    const NttContext &nttContext(uint64_t n, u128 q);

    // -- Kernel cache ----------------------------------------------------

    /**
     * The cached kernel for (kind, n, moduli, opts); generated (and
     * scheduled) on first use. Single-tower kinds take one modulus.
     * The reference stays valid for the device's lifetime.
     */
    const KernelImage &kernel(KernelKind kind, uint64_t n,
                              const std::vector<u128> &moduli,
                              const NttCodegenOptions &opts = {});

    size_t
    cachedKernels() const
    {
        std::lock_guard<std::mutex> lock(caches_->kernelMutex);
        return caches_->kernels.size();
    }

    // -- Launches --------------------------------------------------------

    /**
     * Stage @p inputs into the image's input regions (in region
     * order), execute on the backend, and return the output regions'
     * contents (in region order).
     */
    std::vector<std::vector<u128>>
    launch(const KernelImage &image,
           const std::vector<std::vector<u128>> &inputs);

    /**
     * Run many independent launches through the backend in one batch
     * (e.g. all towers of an RNS multiply). Results are returned in
     * request order and are bit-identical whether the batch executes
     * serially or across the worker pool (see setParallelism).
     */
    std::vector<std::vector<std::vector<u128>>>
    launchAll(const std::vector<LaunchRequest> &batch);

    /**
     * Asynchronous launch: validates on the calling thread, then
     * executes on the worker pool (or inline when parallelism() == 1,
     * in which case the returned future is already ready).
     * @p image is captured by reference and must stay alive until the
     * future resolves — kernels from kernel() satisfy this for the
     * device's lifetime.
     *
     * @p structuralLanes is the dispatch-structure occupancy hint for
     * the contention ledger: how many lanes the *call site* knows it
     * is filling concurrently (a batch of m independent launches over
     * a w-worker pool occupies min(w, m) lanes at steady state). The
     * ledger uses max(hint, observed in-flight launches), so the
     * modelled contention is deterministic for structured fan-outs
     * even when OS scheduling would serialise the real threads.
     */
    LaunchFuture launchAsync(const KernelImage &image,
                             std::vector<std::vector<u128>> inputs,
                             unsigned structuralLanes = 1);

    /**
     * Join a batch of asynchronous launches: results in request
     * order, one entry per future (the launch's output regions).
     * Every future is joined before the first failure (if any) is
     * rethrown, so no launch is left running with dangling state.
     * The building block that lets callers overlap host-side
     * post-processing (e.g. CRT reconstruction of an early operand
     * pair) with launches that are still in flight: join one group of
     * futures while the rest keep running.
     */
    static std::vector<std::vector<std::vector<u128>>>
    whenAll(std::vector<LaunchFuture> futures);

    // -- Convenience ring operations -------------------------------------

    /** Transform @p x on the device via the cached (n, q) kernel. */
    std::vector<u128> ntt(uint64_t n, u128 q, const std::vector<u128> &x,
                          bool inverse = false,
                          const NttCodegenOptions &opts = {});

    /**
     * Pointwise (evaluation-domain) product a .* b in one launch —
     * the whole homomorphic multiply once operands are NTT-resident.
     */
    std::vector<u128> pointwiseMul(uint64_t n, u128 q,
                                   const std::vector<u128> &a,
                                   const std::vector<u128> &b,
                                   const NttCodegenOptions &opts = {});

    // -- Multi-tower dispatch: the tile executor -------------------------
    //
    // Every multi-tower op — the forward/inverse NTTs a domain-resident
    // ciphertext issues at a Coeff<->Eval boundary, and the pointwise
    // products of its hot loop — runs through one executor: flatten
    // the items' towers into a chain, cut tiles (cutTiles), choose one
    // kernel per tile, launch, and unflatten per item. The batched
    // kinds compute each region's ring independently, so results are
    // bit-identical whatever the tile shape; only the ledger (how many
    // launches, on which lanes) follows the shape. There are two entry
    // points: runTowers below (the per-item shape of one device) and
    // RpuTopology::runTowers (the packed shape, tiles spread across
    // devices by a placement plan).

    /** Towers one batched kernel can carry — the per-tower modulus /
     *  scalar / data-pointer register budget in the codegen. */
    static constexpr size_t kMaxBatchedTowers = 16;

    /**
     * Tile geometry and kernel choice of every multi-tower dispatch —
     * the one function the executor, the topology's planners
     * (RpuTopology::groupWeights) and the server's prewarm derive from.
     * The chain is the concatenation of @p segments: tower runs that
     * never share a tile (one per item, or the whole packed chain as
     * one segment). @p perTower cuts one single-ring tile per tower
     * (ForwardNtt / InverseNtt / PointwiseMul); otherwise each segment
     * is cut into <= kMaxBatchedTowers tiles of the batched kind
     * (BatchedForwardNtt / BatchedInverseNtt / PointwiseMulBatched).
     */
    static std::vector<TowerTile>
    cutTiles(TowerOp op, const std::vector<size_t> &segments,
             bool perTower);

    /**
     * @p op on every tower of every item over one shared basis:
     * result[i][t] = NTT_t(a[i][t]) (Forward / Inverse) or
     * a[i][t] .* b[i][t] (Pointwise; @p b empty otherwise), in item
     * order. A serial device makes one batched launch per item (per
     * <= kMaxBatchedTowers tile of it); a pooled device makes one
     * single-ring launch per (item, tower), fanned across the workers
     * with the min(workers, launches) structural-lane hint — the
     * paper's "process different towers simultaneously". Kernels are
     * looked up once per call per distinct tile of the basis. Every
     * launch joins before the first failure (if any) is rethrown.
     */
    std::vector<TowerSet> runTowers(TowerOp op, uint64_t n,
                                    const std::vector<u128> &moduli,
                                    std::vector<TowerSet> a,
                                    std::vector<TowerSet> b = {},
                                    const NttCodegenOptions &opts = {});

  private:
    // RpuTopology::runTowers drives executeTiles with its own
    // per-device launcher.
    friend class RpuTopology;

    /**
     * The executor body both entry points share: check the items
     * against @p itemTowers, flatten @p a (with @p b interleaved per
     * tower for Pointwise) into per-tile input regions, hand them to
     * @p launchTiles — which replaces io[g] with tile g's outputs,
     * one region per tower — and unflatten the outputs per item.
     */
    static std::vector<TowerSet>
    executeTiles(TowerOp op, const std::vector<size_t> &itemTowers,
                 const std::vector<TowerTile> &tiles,
                 std::vector<TowerSet> a, std::vector<TowerSet> b,
                 const std::function<void(std::vector<TowerSet> &io)>
                     &launchTiles);

    std::string kernelKey(KernelKind kind, uint64_t n,
                          const std::vector<u128> &moduli,
                          const NttCodegenOptions &opts) const;

    /** Fatal unless @p inputs matches the image's input regions. */
    void validateLaunch(const KernelImage &image,
                        const std::vector<std::vector<u128>> &inputs)
        const;

    /** Validated launch body: count (with the contention term for
     *  max(@p structuralLanes, observed in-flight launches) occupied
     *  lanes), then execute on the backend. */
    std::vector<std::vector<u128>>
    executeValidated(const KernelImage &image,
                     const std::vector<std::vector<u128>> &inputs,
                     unsigned structuralLanes = 1);

    /** twiddleTable() body; caller holds caches_->contextMutex. */
    const TwiddleTable &twiddleTableLocked(uint64_t n, u128 q);

    std::unique_ptr<ExecutionBackend> backend_;

    DeviceCounters counters_;

    /** Launches currently inside executeValidated — the observed half
     *  of the contention ledger's lane-occupancy count. */
    std::atomic<uint32_t> active_launches_{0};

    HbmContentionModel contention_;

    /** Shared (or private) cache bundle; see DeviceCaches for the
     *  locking story that used to live on these members directly. */
    std::shared_ptr<DeviceCaches> caches_;

    // Last member on purpose: destroyed first, so the pool drains and
    // joins any still-queued async launches while the caches, mutexes,
    // and backend they use are all still alive.
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace rpu

#endif // RPU_RPU_DEVICE_HH
