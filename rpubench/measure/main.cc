/**
 * @file
 * rpubench_measure: runs one benchmark workload against the rpu
 * library and writes its raw measurements as one JSON object.
 *
 *   rpubench_measure --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --out <file.json>
 *
 * Workloads: serve_small, serve_mixed, ntt_paper, ckks_pool (see
 * run.py for why each exists). With --trace 1 the devices run the
 * traced backend, a seeded sample of the workload's ops is replayed
 * one at a time with spans, and the fixed-shape layer probes run.
 * The exit code is 0 whenever the run finished; correctness verdicts
 * are in the record, and run.py turns them into the exit code.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "common.hh"
#include "model/frequency.hh"
#include "modmath/simd.hh"
#include "trace.hh"

namespace rpubench {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rpubench_measure: %s\nusage: rpubench_measure --workload "
                 "<name> --seed <n> --seconds <s> --trace <0|1> --out "
                 "<file>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::atof(val.c_str());
        else if (key == "--trace")
            a.trace = val == "1";
        else if (key == "--out")
            a.out = val;
        else
            usage(("unknown option " + key).c_str());
    }
    if (a.workload.empty() || a.out.empty() || !(a.seconds > 0))
        usage("--workload, --out and a positive --seconds are required");
    return a;
}

} // namespace

void
Record::write(std::ostream &os, const std::string &extra) const
{
    os << "{\"scalars\":{";
    bool first = true;
    for (const auto &[k, v] : scalars_) {
        os << (first ? "" : ",") << jsonString(k) << ':' << jsonNumber(v);
        first = false;
    }
    os << "},\"series\":{";
    first = true;
    for (const auto &[k, vs] : series_) {
        os << (first ? "" : ",") << jsonString(k) << ":[";
        for (size_t i = 0; i < vs.size(); ++i)
            os << (i ? "," : "") << jsonNumber(vs[i]);
        os << ']';
        first = false;
    }
    os << "},\"strings\":{";
    first = true;
    for (const auto &[k, v] : strings_) {
        os << (first ? "" : ",") << jsonString(k) << ':' << jsonString(v);
        first = false;
    }
    os << '}' << (extra.empty() ? "" : ",") << extra << "}\n";
}

double
nowUs()
{
    return usBetween(kEpoch, Clock::now());
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

Slots
randomSlots(rpu::Rng &rng, size_t count)
{
    Slots v(count);
    for (auto &z : v)
        z = {2.0 * rng.nextDouble() - 1.0, 2.0 * rng.nextDouble() - 1.0};
    return v;
}

double
productError(const Slots &got, const Slots &a, const Slots &b)
{
    if (got.size() < a.size() || a.size() != b.size())
        return std::numeric_limits<double>::infinity();
    double worst = 0;
    for (size_t j = 0; j < a.size(); ++j) {
        const double e = std::abs(got[j] - a[j] * b[j]);
        worst = std::isnan(e) ? std::numeric_limits<double>::infinity()
                              : std::max(worst, e);
    }
    return worst;
}

rpu::CkksParams
ckksParams(uint64_t n, size_t towers)
{
    rpu::CkksParams p;
    p.n = n;
    p.towers = towers;
    p.towerBits = 45;
    p.scale = 1099511627776.0; // 2^40
    p.noiseBound = 4;
    return p;
}

double
designClockGhz()
{
    return rpu::rpuFrequencyGhz(rpu::RpuConfig{});
}

std::unique_ptr<rpu::ExecutionBackend>
makeBackend(bool traced)
{
    if (traced)
        return std::make_unique<TracedSimBackend>();
    return std::make_unique<rpu::FunctionalSimBackend>();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

} // namespace rpubench

int
main(int argc, char **argv)
{
    using namespace rpubench;
    const Args args = parseArgs(argc, argv);

    Record rec;
    rec.setString("workload", args.workload);
    rec.set("seed", double(args.seed));
    rec.set("seconds", args.seconds);
    rec.set("trace", args.trace ? 1 : 0);
    rec.set("env.nproc", double(std::thread::hardware_concurrency()));
    rec.setString("env.simd_isa", rpu::simd::hostSimdIsa());
    rec.setString("env.build_type", RPUBENCH_BUILD_TYPE);
    rec.set("env.design_clock_ghz", designClockGhz());

    if (args.workload == "serve_small")
        runServeSmall(args, rec);
    else if (args.workload == "serve_mixed")
        runServeMixed(args, rec);
    else if (args.workload == "ntt_paper")
        runNttPaper(args, rec);
    else if (args.workload == "ckks_pool")
        runCkksPool(args, rec);
    else
        usage(("unknown workload " + args.workload).c_str());
    // Peak memory of the workload itself, before any probe runs.
    rec.set("peak_rss_mb", peakRssMb());
    recordPaperModel(rec);

    std::string extra;
    if (args.trace) {
        Tracer::instance().setRecording(false);
        if (args.workload != "serve_mixed")
            runServeProbe(args, rec);
        runLayerProbes(args, rec);
        std::ostringstream spans;
        Tracer::instance().writeJson(spans);
        extra = "\"spans\":" + spans.str();
    }

    std::ofstream out(args.out);
    rec.write(out, extra);
    out.close();
    if (!out) {
        std::fprintf(stderr, "rpubench_measure: cannot write %s\n",
                     args.out.c_str());
        return 1;
    }
    return 0;
}
