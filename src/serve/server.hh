/**
 * @file
 * HeServer: the multi-tenant HE serving front-end.
 *
 * The paper's thesis is that the ring processor pays off when it is
 * kept saturated with polynomial work; the serving layer is where
 * that saturation comes from in a "millions of users" deployment.
 * This front-end stacks three pieces over RpuDevice/RlweEvaluator:
 *
 *  - Admission: a BoundedRequestQueue with per-tenant lanes —
 *    non-blocking submit that rejects with a status under
 *    backpressure or shutdown, round-robin draining with a
 *    per-batch per-tenant cap (the fairness bound).
 *
 *  - Scheduling: dispatcher threads pop batches, group them by
 *    (op, kernel class) and cut each group into chunks of
 *    power-of-two sizes up to maxCoalesce. Every chunk is then
 *    *placed*: a MakespanScheduler routes it to the device of the
 *    RpuTopology minimising the projected contention-aware makespan
 *    (see scheduler.hh): the whole popped batch's chunks are booked
 *    jointly longest-first, and each coalesced chunk's stage groups
 *    spread across the least-loaded devices via per-stage plans.
 *    A 1-device topology degenerates to the PR 8 single-device path
 *    exactly (always device 0, uniform plans, identical launches and
 *    ledger). A chunk of compatible
 *    MulPlainRescale requests — typically from *different tenants*,
 *    since each tenant's lane is capped per batch — executes as
 *    three coalesced device dispatches (plaintext Eval entry,
 *    both-component pointwise multiply, dropped-tower inverse), each
 *    split only where the batched-kernel tower budget forces it,
 *    where the uncoalesced path pays five launches per request on a
 *    serial device. Launch-count
 *    reduction is the whole point and is ledger-verified by bench
 *    and tests; results are bit-identical to per-tenant serial
 *    execution because the batched kernels compute each region's
 *    ring independently and all randomness is (tenant, seq)-derived.
 *    Chunks of one, MulCtRescale requests, and coalesce=false all
 *    run the per-request serial reference path (Session::runSerial).
 *
 *  - Accounting: the dispatcher snapshots the topology around every
 *    chunk, aggregates the per-device windows (see
 *    RpuTopology::since/aggregate) and splits the delta across the
 *    chunk's requests into each tenant's ledger (exact with one
 *    dispatcher; documented approximate with several, since windows
 *    then interleave). The same window's busy/staging totals feed
 *    back into the scheduler's cost estimates.
 *
 * Shutdown is a graceful drain: the queue closes (new submits get
 * RejectedShutdown), dispatchers finish everything already admitted
 * — every accepted future resolves — then exit.
 */

#ifndef RPU_SERVE_SERVER_HH
#define RPU_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/queue.hh"
#include "serve/scheduler.hh"
#include "serve/session.hh"

namespace rpu {

class RpuDevice;
class RpuTopology;

namespace serve {

/** Serving knobs; the defaults suit the bench's request sizes. */
struct ServeConfig
{
    size_t queueCapacity = 256; ///< admission bound (backpressure)
    size_t maxBatch = 16;       ///< requests popped per dispatch
    size_t maxPerTenant = 4;    ///< per-tenant cap per dispatch (fairness)
    size_t maxCoalesce = 8;     ///< requests per coalesced device chunk
    unsigned dispatchers = 1;   ///< dispatcher threads
    bool coalesce = true;       ///< cross-tenant launch coalescing

    /** Don't start dispatchers in the constructor; the first start()
     *  (or shutdown(), which drains) does. Lets tests and ledger
     *  harnesses queue a known request set before any dispatch, so
     *  batch composition is deterministic. */
    bool startPaused = false;
};

/** Server-wide counters (per-tenant ones live in each Session). */
struct ServerStats
{
    uint64_t accepted = 0;
    uint64_t rejectedFull = 0;
    uint64_t rejectedShutdown = 0;
    uint64_t rejectedInvalid = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t dispatches = 0;        ///< batches popped
    uint64_t chunks = 0;            ///< device chunks executed
    uint64_t coalescedChunks = 0;   ///< chunks with > 1 request
    uint64_t coalescedRequests = 0; ///< requests inside those
    uint64_t splitChunks = 0;       ///< chunks whose stages spread devices
    /** Always 0: work stealing is gone, but rpubench/ still reads
     *  this field. Delete with the next benchmark change. */
    uint64_t stolenChunks = 0;
};

/** What submit() hands back. */
struct Submission
{
    SubmitStatus status = SubmitStatus::RejectedShutdown;
    /** Valid only when status == Accepted (a rejected request's
     *  promise is destroyed with it; don't wait on this then). */
    std::future<ServeResponse> response;
};

/** See the file comment. */
class HeServer
{
  public:
    /** Single-device server: wraps @p device (may be null for
     *  host-only execution) into a degenerate 1-device topology. */
    HeServer(const ServeConfig &cfg, std::shared_ptr<RpuDevice> device);

    /** Device-set server: chunks place across @p topology's devices
     *  via the makespan scheduler. Tenants' sessions attach device 0;
     *  other devices execute through shared per-(kernel class,
     *  device) execution contexts. */
    HeServer(const ServeConfig &cfg,
             std::shared_ptr<RpuTopology> topology);

    ~HeServer(); ///< graceful shutdown() if still running

    const ServeConfig &config() const { return cfg_; }

    /** Device 0 of the topology (null for host-only servers). */
    std::shared_ptr<RpuDevice> device() const { return device_; }

    /** The device set (null for host-only servers). */
    const std::shared_ptr<RpuTopology> &topology() const
    {
        return topology_;
    }

    /** The placement scheduler (null for host-only servers). Exposed
     *  for drain control (pause/resume) and load inspection. */
    MakespanScheduler *scheduler() const { return scheduler_.get(); }

    /** Open a tenant session (id must be unused). Thread-safe. */
    Session &addTenant(const TenantConfig &cfg);

    /** The tenant's session, or null. */
    Session *tenant(uint64_t id) const;

    /**
     * Submit one request: assigns the tenant's next seq, stamps the
     * arrival time, and offers it to the queue. Non-blocking — a
     * full queue rejects immediately (open-loop generators depend on
     * this). An unknown tenant, or an operand with more values than
     * the tenant's n/2 slots, is RejectedInvalid (a known tenant's
     * seq is still consumed). Thread-safe from any number of
     * producers.
     */
    Submission submit(uint64_t tenant, RequestOp op,
                      std::vector<std::complex<double>> a,
                      std::vector<std::complex<double>> b);

    /**
     * Pre-generate the kernels every serving path launches (single
     * and coalesced shapes for each tenant kernel class), so first
     * requests don't pay codegen+scheduling latency. Optional —
     * kernels generate on demand otherwise — but benches call it to
     * keep tail latencies about serving, not warmup.
     */
    void prewarm();

    /** Start the dispatchers (no-op when already running). Only
     *  needed after constructing with startPaused. */
    void start();

    /**
     * Graceful drain: close the queue (new submits rejected), let
     * dispatchers finish every admitted request — all accepted
     * futures resolve — then join them (a paused server is started
     * first, so queued work still drains). Idempotent; also run by
     * the destructor.
     */
    void shutdown();

    ServerStats stats() const;

  private:
    /** One cut chunk on its way to a device, already placed (the
     *  placement is empty on host-only servers). */
    struct PendingChunk
    {
        std::vector<ServeRequest> chunk;
        MakespanScheduler::Placement placement;
        uint64_t dispatchIndex = 0;
        std::chrono::steady_clock::time_point popped;
    };

    void dispatchLoop();

    /** Group, cut, place, and execute one popped batch. */
    void dispatchBatch(std::vector<ServeRequest> batch);

    /** Execute one same-(op, class) chunk and fulfil its promises. */
    void executeChunk(PendingChunk pc);

    /** The three-launch coalesced MulPlainRescale pipeline, each
     *  stage sharded across the topology per @p placement (whose
     *  bookings splitPlans re-shapes). */
    void coalescedMulPlain(MakespanScheduler::Placement &placement,
                           std::vector<ServeRequest> &chunk,
                           std::vector<Session *> &sessions,
                           std::vector<ServeResponse> &responses);

    /**
     * Execution context for running @p sess's requests on topology
     * device @p device: the session's own context for device 0, a
     * lazily-built same-parameter-set replica (shared per kernel
     * class — keys stay the session's) attached to the device
     * otherwise. See Session::runSerialWith.
     */
    const CkksContext &execContext(const Session &sess, size_t device);

    ServeConfig cfg_;
    std::shared_ptr<RpuTopology> topology_;
    std::unique_ptr<MakespanScheduler> scheduler_;
    std::shared_ptr<RpuDevice> device_; ///< topology device 0
    BoundedRequestQueue queue_;

    std::mutex exec_ctx_mutex_;
    /** (kernel class, device index) -> execution context. */
    std::map<std::string, std::unique_ptr<CkksContext>> exec_ctx_;

    mutable std::mutex sessions_mutex_;
    std::vector<std::unique_ptr<Session>> sessions_;

    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> rejected_full_{0};
    std::atomic<uint64_t> rejected_shutdown_{0};
    std::atomic<uint64_t> rejected_invalid_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> dispatches_{0};
    std::atomic<uint64_t> chunks_{0};
    std::atomic<uint64_t> coalesced_chunks_{0};
    std::atomic<uint64_t> coalesced_requests_{0};
    std::atomic<uint64_t> split_chunks_{0};

    std::mutex shutdown_mutex_; ///< guards started_/shut_down_/threads
    bool started_ = false;
    bool shut_down_ = false;

    std::vector<std::thread> dispatchers_;
};

} // namespace serve
} // namespace rpu

#endif // RPU_SERVE_SERVER_HH
