#include "trace.hh"

#include <cstdio>
#include <functional>
#include <thread>

#include "common.hh"
#include "sim/functional/executor.hh"

namespace rpubench {

using rpu::u128;

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

uint64_t
Tracer::open(const std::string &name, uint64_t request)
{
    const uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    if (request == 0 && !stack_.empty())
        request = stack_.back().request;
    const uint64_t id = next_id_.fetch_add(1);
    stack_.push_back({id, name, nowUs(), parent, request});
    current_parent_.store(id);
    current_request_.store(request);
    return id;
}

void
Tracer::close()
{
    Open o = stack_.back();
    stack_.pop_back();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({o.name, o.startUs, nowUs(), o.id, o.parent,
                          o.request,
                          std::hash<std::thread::id>{}(
                              std::this_thread::get_id())});
    }
    current_parent_.store(stack_.empty() ? 0 : stack_.back().id);
    current_request_.store(stack_.empty() ? 0 : stack_.back().request);
}

uint64_t
Tracer::record(const std::string &name, double startUs, double endUs,
               uint64_t parent, uint64_t request)
{
    const uint64_t id = next_id_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, startUs, endUs, id, parent, request,
                      std::hash<std::thread::id>{}(
                          std::this_thread::get_id())});
    return id;
}

void
Tracer::reparent(uint64_t from, uint64_t to, double afterUs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Span &s : spans_) {
        if (s.parent == from && s.id != to && s.startUs >= afterUs)
            s.parent = to;
    }
}

void
Tracer::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << '[';
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"start_us\":%.3f,"
                      "\"end_us\":%.3f,\"id\":%llu,\"parent\":%llu,"
                      "\"request\":%llu,\"tid\":%llu}",
                      i ? "," : "", s.name.c_str(), s.startUs, s.endUs,
                      (unsigned long long)s.id,
                      (unsigned long long)s.parent,
                      (unsigned long long)s.request,
                      (unsigned long long)(s.tid % 1000003));
        os << buf;
    }
    os << ']';
}

namespace {

std::mutex stats_mutex;
std::map<std::string, KernelExecStats> stats_by_kernel;

const char *
kindName(rpu::KernelKind k)
{
    switch (k) {
      case rpu::KernelKind::ForwardNtt: return "ntt";
      case rpu::KernelKind::InverseNtt: return "intt";
      case rpu::KernelKind::PolyMul: return "polymul";
      case rpu::KernelKind::BatchedForwardNtt: return "ntt_batched";
      case rpu::KernelKind::BatchedPolyMul: return "polymul_batched";
      case rpu::KernelKind::BatchedInverseNtt: return "intt_batched";
      case rpu::KernelKind::PointwiseMul: return "pointwise";
      case rpu::KernelKind::PointwiseMulBatched: return "pointwise_batched";
      case rpu::KernelKind::kCount: break;
    }
    return "unknown";
}

} // namespace

std::string
kernelLabel(const rpu::KernelImage &image)
{
    return std::string(kindName(image.kind)) + ".n" +
           std::to_string(image.n) + ".t" +
           std::to_string(image.moduli.size());
}

std::map<std::string, KernelExecStats>
kernelExecStats()
{
    std::lock_guard<std::mutex> lock(stats_mutex);
    return stats_by_kernel;
}

void
resetKernelExecStats()
{
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats_by_kernel.clear();
}

std::vector<std::vector<u128>>
TracedSimBackend::execute(rpu::RpuDevice &dev, const rpu::KernelImage &image,
                          const std::vector<std::vector<u128>> &inputs)
{
    // FunctionalSimBackend::execute, with a clock read between steps.
    const double t0 = nowUs();
    rpu::ArchState state(image.vdmBytesRequired);
    const double t1 = nowUs();
    for (size_t i = 0; i < image.sdmImage.size(); ++i)
        state.writeSdm(i, image.sdmImage[i]);
    state.loadVdm(image.twPlanBase, image.twPlanImage);
    const auto in_regions = image.inputRegions();
    for (size_t i = 0; i < in_regions.size(); ++i)
        state.loadVdm(in_regions[i]->base, inputs[i]);
    const double t2 = nowUs();
    rpu::FunctionalSimulator sim(state, dev.modulusCache());
    sim.run(image.program);
    const double t3 = nowUs();
    std::vector<std::vector<u128>> outputs;
    for (const rpu::DataRegion *r : image.outputRegions())
        outputs.push_back(state.dumpVdm(r->base, r->words));
    const double t4 = nowUs();

    {
        std::lock_guard<std::mutex> lock(stats_mutex);
        KernelExecStats &s = stats_by_kernel[kernelLabel(image)];
        ++s.launches;
        s.instructions += sim.counts().instructions;
        s.laneOps += sim.counts().laneMuls + sim.counts().laneAdds;
        s.stateInitUs.push_back(t1 - t0);
        s.stageUs.push_back(t2 - t1);
        s.runUs.push_back(t3 - t2);
        s.dumpUs.push_back(t4 - t3);
    }

    Tracer &tr = Tracer::instance();
    if (tr.recording()) {
        const uint64_t req = tr.currentRequest();
        const uint64_t exec = tr.record("device.execute", t0, t4,
                                        tr.currentParent(), req);
        tr.record("sim.state_init", t0, t1, exec, req);
        tr.record("sim.stage", t1, t2, exec, req);
        tr.record("sim.run", t2, t3, exec, req);
        tr.record("sim.dump", t3, t4, exec, req);
    }
    return outputs;
}

} // namespace rpubench
