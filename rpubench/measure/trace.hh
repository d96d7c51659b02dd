/**
 * @file
 * Spans for the traced run, recorded entirely from the benchmark's
 * side of the library's public API.
 *
 * Spans opened on the program's main thread nest through a stack; the
 * innermost open span is published as the parent (and its request id
 * as the request) for spans recorded on any other thread. The traced
 * replay runs one request at a time, so a launch executing on a
 * dispatcher, shard or pool thread during a request belongs to it.
 *
 * TracedSimBackend is the library's FunctionalSimBackend::execute
 * step for step — ArchState construction, SDM/twiddle/input staging,
 * FunctionalSimulator::run, output dump — with a clock read between
 * steps. It always keeps per-kernel aggregates (cheap); it records
 * spans only while the tracer is recording.
 */
#ifndef RPUBENCH_TRACE_HH
#define RPUBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "rpu/device.hh"

namespace rpubench {

struct Span
{
    std::string name;
    double startUs = 0;
    double endUs = 0;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = a root span
    uint64_t request = 0;
    uint64_t tid = 0; ///< hash of the recording thread's id
};

class Tracer
{
  public:
    static Tracer &instance();

    bool recording() const { return recording_.load(); }
    void setRecording(bool on) { recording_.store(on); }

    /** Main thread: open a span (child of the innermost open one). */
    uint64_t open(const std::string &name, uint64_t request);
    /** Main thread: close the innermost open span. */
    void close();

    /** Any thread: record a finished span; returns its id. */
    uint64_t record(const std::string &name, double startUs, double endUs,
                    uint64_t parent, uint64_t request);

    uint64_t currentParent() const { return current_parent_.load(); }
    uint64_t currentRequest() const { return current_request_.load(); }

    /** Re-home every span whose parent is @p from and that starts at
     *  or after @p afterUs under @p to (a span synthesised after the
     *  fact, e.g. a request's service interval). */
    void reparent(uint64_t from, uint64_t to, double afterUs);

    /** JSON array of the recorded spans. */
    void writeJson(std::ostream &os) const;

  private:
    struct Open
    {
        uint64_t id;
        std::string name;
        double startUs;
        uint64_t parent;
        uint64_t request;
    };

    std::atomic<bool> recording_{false};
    std::atomic<uint64_t> next_id_{1};
    std::atomic<uint64_t> current_parent_{0};
    std::atomic<uint64_t> current_request_{0};
    std::vector<Open> stack_; ///< main thread only
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII main-thread span. */
class SpanScope
{
  public:
    SpanScope(const std::string &name, uint64_t request = 0)
    {
        if (Tracer::instance().recording())
            id_ = Tracer::instance().open(name, request);
    }
    ~SpanScope()
    {
        if (id_)
            Tracer::instance().close();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** The span's id (0 when the tracer was not recording). */
    uint64_t id() const { return id_; }

  private:
    uint64_t id_ = 0;
};

/** Per-kernel aggregates the traced backend keeps for every launch. */
struct KernelExecStats
{
    uint64_t launches = 0;
    uint64_t instructions = 0;
    uint64_t laneOps = 0; ///< modular multiplier + adder activations
    std::vector<double> stateInitUs, stageUs, runUs, dumpUs;
};

/** "<kind>.n<n>.t<towers>", the key of KernelExecStats. */
std::string kernelLabel(const rpu::KernelImage &image);

/** Snapshot of the traced backend's aggregates, by kernelLabel. */
std::map<std::string, KernelExecStats> kernelExecStats();
void resetKernelExecStats();

class TracedSimBackend : public rpu::ExecutionBackend
{
  public:
    const char *name() const override { return "functional-sim-traced"; }
    std::vector<std::vector<rpu::u128>>
    execute(rpu::RpuDevice &dev, const rpu::KernelImage &image,
            const std::vector<std::vector<rpu::u128>> &inputs) override;
};

} // namespace rpubench

#endif // RPUBENCH_TRACE_HH
