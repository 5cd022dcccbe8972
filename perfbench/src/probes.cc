#include "probes.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench
{

namespace
{

using Steady = std::chrono::steady_clock;

uint64_t
steadyNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Steady::now().time_since_epoch())
            .count());
}

/** Calibration origin, taken at static initialisation. */
const uint64_t kTickOrigin = ticks();
const uint64_t kNsOrigin = steadyNs();

/** Governor tallies of one thread. Only the owning thread writes, so a
 *  relaxed load-add-store is enough; readers merge between phases. */
struct ThreadTally
{
    std::atomic<uint64_t> decideTicks{0};
    std::atomic<uint64_t> decideCalls{0};
    std::atomic<uint64_t> limitCalls{0};
};

std::mutex gTallyMutex;
std::vector<std::unique_ptr<ThreadTally>> gTallies;

ThreadTally &
threadTally()
{
    thread_local ThreadTally *tally = nullptr;
    if (tally == nullptr) {
        std::lock_guard<std::mutex> lock(gTallyMutex);
        gTallies.push_back(std::make_unique<ThreadTally>());
        tally = gTallies.back().get();
    }
    return *tally;
}

void
bump(std::atomic<uint64_t> &counter, uint64_t delta)
{
    counter.store(counter.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
}

double
clockS(clockid_t clock)
{
    timespec ts{};
    if (clock_gettime(clock, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return steadyNs();
#endif
}

double
nsPerTick()
{
    const uint64_t dt = ticks() - kTickOrigin;
    const uint64_t dns = steadyNs() - kNsOrigin;
    return dt > 0 ? static_cast<double>(dns) / static_cast<double>(dt)
                  : 1.0;
}

double
monotonicS()
{
    return clockS(CLOCK_MONOTONIC);
}

double
processCpuS()
{
    return clockS(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuS(long tid)
{
    // The kernel's per-thread CPU clock id for a thread of the calling
    // process: MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED).
    const clockid_t clock =
        static_cast<clockid_t>((~static_cast<unsigned long>(tid)) << 3) |
        6;
    return clockS(clock);
}

double
callingThreadCpuS()
{
    return clockS(CLOCK_THREAD_CPUTIME_ID);
}

std::vector<long>
threadIds()
{
    std::vector<long> ids;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        ids.push_back(std::stol(entry.path().filename().string()));
    }
    return ids;
}

TallySum
sumTallies()
{
    TallySum sum;
    std::lock_guard<std::mutex> lock(gTallyMutex);
    for (const auto &t : gTallies) {
        sum.decideTicks += t->decideTicks.load(std::memory_order_relaxed);
        sum.decideCalls += t->decideCalls.load(std::memory_order_relaxed);
        sum.limitCalls += t->limitCalls.load(std::memory_order_relaxed);
    }
    return sum;
}

// --------------------------------------------------------------------
// Recorder

void
Recorder::addRun(const RunSpan &run)
{
    std::lock_guard<std::mutex> lock(runsMutex_);
    runs_.push_back(run);
}

void
Recorder::clear()
{
    {
        std::lock_guard<std::mutex> lock(runsMutex_);
        runs_.clear();
    }
    intervals_.clear();
    reps_.clear();
}

void
Recorder::beginRep()
{
    RepSpan rep;
    rep.firstInterval = intervals_.size();
    awaitingAlloc_ = false;
    lastDecide_ = sumTallies().decideTicks;
    rep.start = ticks();
    reps_.push_back(rep);
}

void
Recorder::endRep()
{
    reps_.back().end = ticks();
}

void
Recorder::closeStart()
{
    reps_.back().closeStart = ticks();
}

void
Recorder::closeEnd()
{
    reps_.back().closeEnd = ticks();
}

void
Recorder::allocation(uint64_t start, uint64_t end)
{
    if (reps_.empty())
        return;
    if (awaitingAlloc_) {
        intervals_.back().allocStart = start;
        intervals_.back().allocEnd = end;
        awaitingAlloc_ = false;
    } else {
        reps_.back().preAllocStart = start;
        reps_.back().preAllocEnd = end;
    }
    lastAllocEnd_ = end;
}

void
Recorder::hook(uint64_t start, uint64_t end)
{
    if (reps_.empty())
        return;
    IntervalSpan span;
    span.begin = lastAllocEnd_;
    span.hookStart = start;
    span.hookEnd = end;
    const uint64_t decided = sumTallies().decideTicks;
    span.decideTicks = decided - lastDecide_;
    lastDecide_ = decided;
    intervals_.push_back(span);
    ++reps_.back().intervalCount;
    awaitingAlloc_ = true;
}

bool
Recorder::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double k = nsPerTick();
    auto ns = [k](uint64_t from, uint64_t to) {
        return to > from ? static_cast<double>(to - from) * k : 0.0;
    };
    auto at = [k](uint64_t t) {
        return static_cast<double>(t - kTickOrigin) * k;
    };
    char line[512];
    for (size_t r = 0; r < reps_.size(); ++r) {
        const RepSpan &rep = reps_[r];
        std::snprintf(line, sizeof line,
                      "{\"span\": \"run\", \"id\": %zu, \"start_ns\": "
                      "%.0f, \"dur_ns\": %.0f, \"boot_ns\": %.0f, "
                      "\"close_ns\": %.0f}\n",
                      r, at(rep.start), ns(rep.start, rep.end),
                      ns(rep.start, rep.preAllocStart),
                      ns(rep.closeStart, rep.closeEnd));
        out << line;
        for (size_t i = 0; i < rep.intervalCount; ++i) {
            const IntervalSpan &s = intervals_[rep.firstInterval + i];
            std::snprintf(line, sizeof line,
                          "{\"span\": \"interval\", \"parent\": %zu, "
                          "\"index\": %zu, \"start_ns\": %.0f, "
                          "\"phase_a_ns\": %.0f, \"hook_ns\": %.0f, "
                          "\"other_ns\": %.0f, \"allocate_ns\": %.0f, "
                          "\"decide_ns\": %.0f}\n",
                          r, i, at(s.begin), ns(s.begin, s.hookStart),
                          ns(s.hookStart, s.hookEnd),
                          ns(s.hookEnd, s.allocStart),
                          ns(s.allocStart, s.allocEnd),
                          static_cast<double>(s.decideTicks) * k);
            out << line;
        }
    }
    for (size_t i = 0; i < runs_.size(); ++i) {
        const RunSpan &run = runs_[i];
        std::snprintf(line, sizeof line,
                      "{\"span\": \"governor_run\", \"id\": %zu, "
                      "\"start_ns\": %.0f, \"dur_ns\": %.0f, "
                      "\"cpu_ns\": %.0f, \"decide_ns\": %.0f, "
                      "\"decides\": %llu}\n",
                      i, at(run.start), ns(run.start, run.end),
                      run.cpuS * 1e9,
                      static_cast<double>(run.decideTicks) * k,
                      static_cast<unsigned long long>(run.decideCalls));
        out << line;
    }
    return static_cast<bool>(out);
}

// --------------------------------------------------------------------
// Governor decorators

TimedGovernor::TimedGovernor(std::unique_ptr<aapm::Governor> inner,
                             Recorder *runs)
    : inner_(std::move(inner)), runs_(runs), start_(ticks()),
      cpuStartS_(runs != nullptr ? callingThreadCpuS() : 0.0)
{
    insight_ = inner_->insight();
}

TimedGovernor::~TimedGovernor()
{
    if (runs_ != nullptr) {
        runs_->addRun({start_, ticks(), callingThreadCpuS() - cpuStartS_,
                       decideTicks_, decideCalls_});
    }
}

void
TimedGovernor::configureCounters(aapm::Pmu &pmu)
{
    inner_->configureCounters(pmu);
}

size_t
TimedGovernor::decide(const aapm::MonitorSample &sample, size_t current)
{
    const uint64_t t0 = ticks();
    const size_t next = inner_->decide(sample, current);
    const uint64_t dt = ticks() - t0;
    insight_ = inner_->insight();
    decideTicks_ += dt;
    ++decideCalls_;
    ThreadTally &tally = threadTally();
    bump(tally.decideTicks, dt);
    bump(tally.decideCalls, 1);
    return next;
}

size_t
TimedGovernor::decideCState(const aapm::MonitorSample &sample,
                            size_t current)
{
    const uint64_t t0 = ticks();
    const size_t next = inner_->decideCState(sample, current);
    const uint64_t dt = ticks() - t0;
    insight_ = inner_->insight();
    decideTicks_ += dt;
    ++decideCalls_;
    ThreadTally &tally = threadTally();
    bump(tally.decideTicks, dt);
    bump(tally.decideCalls, 1);
    return next;
}

void
TimedGovernor::reset()
{
    inner_->reset();
    insight_ = inner_->insight();
}

void
TimedGovernor::setPowerLimit(double watts)
{
    bump(threadTally().limitCalls, 1);
    inner_->setPowerLimit(watts);
    insight_ = inner_->insight();
}

void
TimedGovernor::setPerformanceFloor(double floor)
{
    inner_->setPerformanceFloor(floor);
    insight_ = inner_->insight();
}

void
TimedGovernor::exportTelemetry(aapm::RecoveryTelemetry &out) const
{
    inner_->exportTelemetry(out);
}

void
TimedGovernor::setInsightWanted(bool wanted)
{
    Governor::setInsightWanted(wanted);
    inner_->setInsightWanted(wanted);
    insight_ = inner_->insight();
}

FirstIntervalGovernor::FirstIntervalGovernor(
    std::unique_ptr<aapm::Governor> inner)
    : inner_(std::move(inner))
{
}

void
FirstIntervalGovernor::configureCounters(aapm::Pmu &pmu)
{
    inner_->configureCounters(pmu);
}

size_t
FirstIntervalGovernor::decide(const aapm::MonitorSample &, size_t)
{
    firstIntervalReached();
}

size_t
FirstIntervalGovernor::decideCState(const aapm::MonitorSample &, size_t)
{
    firstIntervalReached();
}

void
firstIntervalReached()
{
    static std::atomic<bool> reached{false};
    if (reached.exchange(true)) {
        // Another thread is already ending the process.
        for (;;)
            pause();
    }
    std::printf("{\"first_interval_mono_s\": %.9f}\n", monotonicS());
    std::fflush(stdout);
    _exit(0);
}

// --------------------------------------------------------------------
// Allocator and hook decorators

ProbeAllocator::ProbeAllocator(
    std::unique_ptr<aapm::PowerBudgetAllocator> inner, Recorder *recorder)
    : inner_(std::move(inner)), recorder_(recorder)
{
}

void
ProbeAllocator::allocate(double budgetW,
                         const std::vector<aapm::CoreDemand> &cores,
                         std::vector<double> &limitsW) const
{
    const uint64_t t0 = recorder_ != nullptr ? ticks() : 0;
    inner_->allocate(budgetW, cores, limitsW);
    if (recorder_ != nullptr)
        recorder_->allocation(t0, ticks());
    ++rounds_;
    double sum = 0.0;
    for (size_t i = 0; i < cores.size() && i < limitsW.size(); ++i) {
        if (cores[i].active)
            sum += limitsW[i];
    }
    if (sum > budgetW * (1.0 + 1e-9))
        ++violations_;
}

void
TimingHook::begin(const aapm::ClusterStepView &view)
{
    if (inner_ != nullptr)
        inner_->begin(view);
}

void
TimingHook::interval(aapm::Tick now, const aapm::ClusterStepView &view)
{
    const uint64_t t0 = ticks();
    if (inner_ != nullptr)
        inner_->interval(now, view);
    recorder_.hook(t0, ticks());
}

} // namespace perfbench
