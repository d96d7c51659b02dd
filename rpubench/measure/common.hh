/**
 * @file
 * Shared pieces of the benchmark's measuring program: command-line
 * arguments, the raw-measurement record it writes as JSON, clocks, and the
 * seeded payload helpers every workload uses.
 *
 * This program only measures. It records raw samples (per-request
 * times, ledger counters, spans) and leaves every statistic —
 * percentiles, ratios, pass/fail — to run.py, so the arithmetic the
 * reported metrics rest on lives in one tested place.
 */
#ifndef RPUBENCH_COMMON_HH
#define RPUBENCH_COMMON_HH

#include <chrono>
#include <complex>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "rlwe/ckks.hh"
#include "rpu/device.hh"

namespace rpubench {

using Clock = std::chrono::steady_clock;
using Slots = std::vector<std::complex<double>>;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out;
};

/** Raw measurements of one run: named scalars, named sample series,
 *  named strings. Written once, at the end, as one JSON object. */
class Record
{
  public:
    void set(const std::string &key, double v) { scalars_[key] = v; }
    void add(const std::string &key, double v) { series_[key].push_back(v); }
    void setString(const std::string &key, const std::string &v)
    {
        strings_[key] = v;
    }
    /** Writes {"scalars":…, "series":…, "strings":…, then @p extra
     *  (already-rendered "key": value members, may be empty)}. */
    void write(std::ostream &os, const std::string &extra) const;

  private:
    std::map<std::string, double> scalars_;
    std::map<std::string, std::vector<double>> series_;
    std::map<std::string, std::string> strings_;
};

/** Microseconds since the program's start (one epoch for every span
 *  and sample, on every thread). */
double nowUs();
double usBetween(Clock::time_point a, Clock::time_point b);

/** @p count slot values uniform in the unit square, from @p rng. */
Slots randomSlots(rpu::Rng &rng, size_t count);

/** Largest |got[j] - a[j] * b[j]| over the request's slots (infinity
 *  when @p got is too short). */
double productError(const Slots &got, const Slots &a, const Slots &b);

/** The CKKS tolerance every decrypted product is checked against. At
 *  scale 2^40 the observed error is ~1e-8; a wrong tower or a lost
 *  rescale is off by orders of magnitude more. */
constexpr double kProductTolerance = 1e-4;

/** CKKS parameters of every workload: 45-bit towers, scale 2^40. */
rpu::CkksParams ckksParams(uint64_t n, size_t towers);

/** The modelled RPU's design clock: the default (128, 128) RpuConfig. */
double designClockGhz();

/** Execution backend for the run's devices: the library's own
 *  functional simulator, or the traced copy of it (trace.hh). */
std::unique_ptr<rpu::ExecutionBackend> makeBackend(bool traced);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** Per-workload entry points; each fills @p rec. */
void runServeSmall(const Args &args, Record &rec);
void runServeMixed(const Args &args, Record &rec);
void runNttPaper(const Args &args, Record &rec);
void runCkksPool(const Args &args, Record &rec);

/** The serve_mixed shape at a short length, for the traced runs of
 *  the other workloads: their serve-layer counters (when they have no
 *  server) and the multi-device placement counters. Writes its keys
 *  under "probe.". */
void runServeProbe(const Args &args, Record &rec);

/** Modelled runtime of the paper's 64K 128-bit NTT (the 124-bit
 *  modulus of fig10_cpu_speedup, default RpuConfig), in us at the
 *  design clock. Every workload records it for model_err_pct. */
void recordPaperModel(Record &rec);

/** Fixed-shape per-layer probes shared by every traced run. */
void runLayerProbes(const Args &args, Record &rec);

} // namespace rpubench

#endif // RPUBENCH_COMMON_HH
