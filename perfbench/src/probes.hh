/**
 * @file
 * Timing decorators around the library's public extension points.
 *
 * The benchmark measures layers from outside the library: it wraps the
 * three interfaces a caller already supplies — Governor (mgmt),
 * PowerBudgetAllocator (cluster allocation) and ClusterStepHook (the
 * serial phase-B driver serving uses) — and timestamps every call.
 * Nothing under src/ knows it is being measured.
 *
 * A lockstep cluster interval is split by those timestamps:
 *
 *   previous allocation end -> hook start   phase A (+ delivery)
 *   hook start -> hook end                  hook (serving dispatch)
 *   hook end -> allocation start            other phase-B bookkeeping
 *   allocation start -> allocation end      allocator
 *
 * Governor decide time is summed per thread and read once per interval
 * at the hook (after the phase-A barrier), so it is aggregated per
 * interval rather than recorded as one span per call.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/allocator.hh"
#include "cluster/cluster.hh"
#include "mgmt/governor.hh"

namespace perfbench
{

/** Cheap monotonic timestamp: the TSC on x86-64, steady_clock ns
 *  elsewhere. Convert differences with ticksToNs(). */
uint64_t ticks();

/** Nanoseconds per tick, calibrated against steady_clock over the
 *  process lifetime so far. */
double nsPerTick();

/** Seconds on CLOCK_MONOTONIC (the clock Python's time.monotonic()
 *  reads, so parent and child timestamps compare). */
double monotonicS();

/** CPU seconds of the whole process, all threads. */
double processCpuS();

/** CPU seconds of one thread of this process, by kernel thread id. */
double threadCpuS(long tid);

/** CPU seconds of the calling thread. */
double callingThreadCpuS();

/** Kernel ids of this process's threads. */
std::vector<long> threadIds();

/** Sum of the per-thread governor tallies (see TimedGovernor). */
struct TallySum
{
    uint64_t decideTicks = 0;
    uint64_t decideCalls = 0;
    uint64_t limitCalls = 0;
};

/** Merge every thread's tally. Call only between parallel phases. */
TallySum sumTallies();

/** One governor lifetime: under SweepRunner this brackets one run. */
struct RunSpan
{
    uint64_t start = 0;
    uint64_t end = 0;
    /** CPU seconds of the running thread over the lifetime: unlike the
     *  wall span, not inflated when pool threads share a CPU. */
    double cpuS = 0.0;
    uint64_t decideTicks = 0;
    uint64_t decideCalls = 0;
};

/** One lockstep cluster interval; see the file comment. */
struct IntervalSpan
{
    uint64_t begin = 0;
    uint64_t hookStart = 0;
    uint64_t hookEnd = 0;
    /** Zero for the final interval, which has no allocation round. */
    uint64_t allocStart = 0;
    uint64_t allocEnd = 0;
    uint64_t decideTicks = 0;
};

/** One timed repetition of a workload. */
struct RepSpan
{
    uint64_t start = 0;
    uint64_t end = 0;
    /** First allocation round start (the pre-run round): boot ends. */
    uint64_t preAllocStart = 0;
    uint64_t preAllocEnd = 0;
    /** Trace sink close (cluster_traced only). */
    uint64_t closeStart = 0;
    uint64_t closeEnd = 0;
    size_t firstInterval = 0;
    size_t intervalCount = 0;
};

/**
 * In-memory span store for the instrumented run; written out once at
 * exit. Cluster spans arrive serially from phase B; run spans arrive
 * from SweepRunner workers under the mutex.
 */
class Recorder
{
  public:
    void addRun(const RunSpan &run);

    /** Drop every span recorded so far (the untimed warm-up). */
    void clear();

    void beginRep();
    void endRep();
    void closeStart();
    void closeEnd();

    /** Allocator decorator: one round finished. */
    void allocation(uint64_t start, uint64_t end);
    /** Hook decorator: one interval's hook finished. */
    void hook(uint64_t start, uint64_t end);

    const std::vector<RunSpan> &runs() const { return runs_; }
    const std::vector<IntervalSpan> &intervals() const { return intervals_; }
    const std::vector<RepSpan> &reps() const { return reps_; }

    /** Write every span as JSON lines, durations in ns. */
    bool write(const std::string &path) const;

  private:
    std::mutex runsMutex_;
    std::vector<RunSpan> runs_;
    std::vector<IntervalSpan> intervals_;
    std::vector<RepSpan> reps_;
    bool awaitingAlloc_ = false;
    uint64_t lastAllocEnd_ = 0;
    uint64_t lastDecide_ = 0;
};

/**
 * Governor decorator: times decide() and decideCState(), counts
 * setPowerLimit() deliveries, and forwards everything else. The
 * wrapped governor's insight is copied after every call that can change
 * it, so the cluster and the tracer read exactly what they would have
 * read from the bare governor.
 */
class TimedGovernor final : public aapm::Governor
{
  public:
    /** @param runs Receives this governor's lifetime span when it is
     *        destroyed; nullptr records nothing per run. */
    TimedGovernor(std::unique_ptr<aapm::Governor> inner, Recorder *runs);
    ~TimedGovernor() override;

    const char *name() const override { return inner_->name(); }
    void configureCounters(aapm::Pmu &pmu) override;
    size_t decide(const aapm::MonitorSample &sample,
                  size_t current) override;
    size_t decideCState(const aapm::MonitorSample &sample,
                        size_t current) override;
    void reset() override;
    void setPowerLimit(double watts) override;
    void setPerformanceFloor(double floor) override;
    void exportTelemetry(aapm::RecoveryTelemetry &out) const override;
    void setInsightWanted(bool wanted) override;

  private:
    std::unique_ptr<aapm::Governor> inner_;
    Recorder *runs_;
    uint64_t start_;
    double cpuStartS_;
    uint64_t decideTicks_ = 0;
    uint64_t decideCalls_ = 0;
};

/**
 * Set-up probe: forwards to the wrapped governor until the first
 * decision of the process, then prints that moment on CLOCK_MONOTONIC
 * and ends the process at once — the end of set-up is the first
 * simulated interval.
 */
class FirstIntervalGovernor final : public aapm::Governor
{
  public:
    explicit FirstIntervalGovernor(std::unique_ptr<aapm::Governor> inner);

    const char *name() const override { return inner_->name(); }
    void configureCounters(aapm::Pmu &pmu) override;
    size_t decide(const aapm::MonitorSample &sample,
                  size_t current) override;
    size_t decideCState(const aapm::MonitorSample &sample,
                        size_t current) override;

  private:
    std::unique_ptr<aapm::Governor> inner_;
};

/** Print the set-up mark and _exit(0). Safe from any thread. */
[[noreturn]] void firstIntervalReached();

/**
 * Allocator decorator: checks the allocator contract (limits sum to at
 * most the budget it was given) on every round, and with a recorder
 * also timestamps the round.
 */
class ProbeAllocator final : public aapm::PowerBudgetAllocator
{
  public:
    ProbeAllocator(std::unique_ptr<aapm::PowerBudgetAllocator> inner,
                   Recorder *recorder);

    const char *name() const override { return inner_->name(); }
    bool wantsInsight() const override { return inner_->wantsInsight(); }
    void allocate(double budgetW,
                  const std::vector<aapm::CoreDemand> &cores,
                  std::vector<double> &limitsW) const override;

    uint64_t rounds() const { return rounds_; }
    uint64_t violations() const { return violations_; }

  private:
    std::unique_ptr<aapm::PowerBudgetAllocator> inner_;
    Recorder *recorder_;
    mutable uint64_t rounds_ = 0;
    mutable uint64_t violations_ = 0;
};

/** Step-hook decorator; `inner` may be null (a pure timing hook, which
 *  leaves the cluster's behaviour unchanged). */
class TimingHook final : public aapm::ClusterStepHook
{
  public:
    TimingHook(aapm::ClusterStepHook *inner, Recorder &recorder)
        : inner_(inner), recorder_(recorder)
    {
    }

    void begin(const aapm::ClusterStepView &view) override;
    void interval(aapm::Tick now,
                  const aapm::ClusterStepView &view) override;

  private:
    aapm::ClusterStepHook *inner_;
    Recorder &recorder_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
