/**
 * @file
 * The benchmark's four workloads, each driving the library through the
 * same public calls the `aapm` CLI makes (SweepRunner for the suite
 * grid, ClusterPlatform::run for `aapm run --cluster`, a
 * RequestScheduler step hook for `aapm serve`).
 *
 * A workload is built once — the set-up a CLI user pays before the
 * first simulated interval — and then repeated: each rep has untimed
 * preparation, one timed region, and untimed output checks.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "models/perf_estimator.hh"
#include "models/power_estimator.hh"
#include "platform/platform.hh"
#include "probes.hh"

namespace perfbench
{

/** How the workload is observed. */
enum class Mode
{
    /** No timing decorators: the program as a CLI user runs it. */
    Plain,
    /** Timing decorators on every extension point (per-layer run). */
    Layers,
    /** Stop the process at the first simulated interval. */
    Setup
};

/** Everything a workload needs from the driver. */
struct Context
{
    Mode mode = Mode::Plain;
    uint64_t seed = 1;
    /** Span store; non-null only in Mode::Layers. */
    Recorder *recorder = nullptr;
    /** Scratch directory for trace output (created and emptied by the
     *  caller). */
    std::string tmpDir;
    aapm::PlatformConfig config;
    const aapm::PowerEstimator *power = nullptr;
    const aapm::PerfEstimator *perf = nullptr;
};

/** One timed repetition and its checked outputs. */
struct RepResult
{
    /** Timed region: wall and whole-process CPU seconds. */
    double wallS = 0.0;
    double cpuS = 0.0;
    /** Simulated core-intervals completed (registry deltas). */
    uint64_t coreIntervals = 0;
    uint64_t fastIntervals = 0;
    uint64_t chunkedIntervals = 0;
    uint64_t sleepIntervals = 0;
    /** Completed requests (serving only). */
    uint64_t requests = 0;
    /** Queue-depth counter deltas (serving only). */
    uint64_t queueDepthSum = 0;
    uint64_t queueDepthSamples = 0;
    /** Binary trace records, bytes and flush-thread CPU (traced only). */
    uint64_t tracedRecords = 0;
    uint64_t traceBytes = 0;
    double flushCpuS = 0.0;
    /** Allocation rounds the allocator decorator saw. */
    uint64_t allocRounds = 0;
    /** FNV-1a digest of every simulated output of the rep. */
    std::string digest;
    /** Headline simulated statistics (outputs, not metrics). */
    std::vector<std::pair<std::string, double>> sim;
    /** Output checks that failed, one line each. */
    std::vector<std::string> failures;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs and the system under test. */
    virtual void build() = 0;

    /** Run one repetition. */
    virtual void rep(RepResult &out) = 0;

    /** Pool width the workload's runner chose. */
    virtual size_t poolJobs() const = 0;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** @return nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
