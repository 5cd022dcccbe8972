#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "cluster/allocator.hh"
#include "cluster/cluster.hh"
#include "exp/sweep.hh"
#include "exp/thread_pool.hh"
#include "idle/cstate.hh"
#include "mgmt/performance_maximizer.hh"
#include "mgmt/power_save.hh"
#include "mgmt/race_to_idle.hh"
#include "obs/binary_trace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/serving.hh"
#include "serve/traffic.hh"
#include "workload/spec_suite.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using aapm::GovernorFactory;

/** Simulated seconds per SPEC proxy in the suite grid (the `aapm suite`
 *  default, so every run's state fits in L2). One grid is ~140k
 *  core-intervals, 13-26 ms on one CPU: a rep times one grid. */
constexpr double kSuiteSeconds = 8.0;
/** Cores of the two manifest clusters. */
constexpr size_t kClusterCores = 1024;
/** Cores of the serving cluster. */
constexpr size_t kServeCores = 4096;

/** splitmix64: the benchmark's own input generator, independent of
 *  the library's RNG so the library only ever sees generated inputs. */
class SeedRng
{
  public:
    explicit SeedRng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) *
            0x1.0p-53;
    }

    size_t index(size_t n) { return static_cast<size_t>(next() % n); }

  private:
    uint64_t state_;
};

/** FNV-1a over a canonical text rendering: integers exactly, floats
 *  to ten significant digits (inside the fast-path ≡ chunked 1e-9
 *  contract, so a digest compares across kernels and commits). */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        char buf[32];
        const int n = std::snprintf(buf, sizeof buf, "%llu;",
                                    static_cast<unsigned long long>(v));
        mix(buf, n);
    }

    void
    add(double v)
    {
        char buf[40];
        const int n = std::snprintf(buf, sizeof buf, "%.9e;", v);
        mix(buf, n);
    }

    /** Bulk path for trace records: eight raw bytes, no formatting. */
    void
    mix64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    /** A float at micro resolution for mix64 (NaN has its own code). */
    static uint64_t
    micro(double v)
    {
        return std::isnan(v) ? ~0ull
                             : static_cast<uint64_t>(std::llround(v * 1e6));
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    void
    mix(const char *p, int n)
    {
        for (int i = 0; i < n; ++i) {
            h_ ^= static_cast<unsigned char>(p[i]);
            h_ *= 0x100000001b3ull;
        }
    }

    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** The program's own registry counters the benchmark reads. */
struct Counters
{
    uint64_t fast = 0;
    uint64_t chunked = 0;
    uint64_t sleep = 0;
    uint64_t traced = 0;
    uint64_t depthSum = 0;
    uint64_t depthSamples = 0;

    static Counters
    read()
    {
        const aapm::MetricRegistry &reg = aapm::MetricRegistry::global();
        Counters c;
        c.fast = reg.counterValue("platform.fast_intervals");
        c.chunked = reg.counterValue("platform.chunked_intervals");
        c.sleep = reg.counterValue("idle.sleep_intervals");
        c.traced = reg.counterValue("platform.traced_records");
        c.depthSum = reg.counterValue("serve.queue.depth_sum");
        c.depthSamples = reg.counterValue("serve.queue.depth_samples");
        return c;
    }
};

/** Fill the counter-derived fields of a rep from two snapshots. */
void
countersDelta(const Counters &a, const Counters &b, RepResult &out)
{
    out.fastIntervals = b.fast - a.fast;
    out.chunkedIntervals = b.chunked - a.chunked;
    out.sleepIntervals = b.sleep - a.sleep;
    out.coreIntervals =
        out.fastIntervals + out.chunkedIntervals + out.sleepIntervals;
    out.tracedRecords = b.traced - a.traced;
    out.queueDepthSum = b.depthSum - a.depthSum;
    out.queueDepthSamples = b.depthSamples - a.depthSamples;
    if (out.coreIntervals == 0)
        out.failures.push_back("registry counted no core-intervals");
}

/** Wall and process-CPU time of the timed region of a rep. */
class Stopwatch
{
  public:
    Stopwatch() : wall0_(monotonicS()), cpu0_(processCpuS()) {}

    void
    stop(RepResult &out) const
    {
        out.wallS = monotonicS() - wall0_;
        out.cpuS = processCpuS() - cpu0_;
    }

  private:
    double wall0_;
    double cpu0_;
};

/** Apply the run mode's governor decorator to a factory. */
GovernorFactory
instrument(const Context &ctx, GovernorFactory factory, bool logRuns)
{
    switch (ctx.mode) {
    case Mode::Layers: {
        Recorder *runs = logRuns ? ctx.recorder : nullptr;
        return [factory, runs]() -> std::unique_ptr<aapm::Governor> {
            return std::make_unique<TimedGovernor>(factory(), runs);
        };
    }
    case Mode::Setup:
        return [factory]() -> std::unique_ptr<aapm::Governor> {
            return std::make_unique<FirstIntervalGovernor>(factory());
        };
    case Mode::Plain:
        break;
    }
    return factory;
}

std::unique_ptr<ProbeAllocator>
probeAllocator(const Context &ctx, const char *policy)
{
    return std::make_unique<ProbeAllocator>(aapm::makeAllocator(policy),
                                            ctx.recorder);
}

void
checkAllocator(const ProbeAllocator &alloc, uint64_t rounds0,
               uint64_t violations0, RepResult &out)
{
    out.allocRounds = alloc.rounds() - rounds0;
    if (alloc.violations() != violations0) {
        out.failures.push_back(
            "allocator limits exceeded the budget in " +
            std::to_string(alloc.violations() - violations0) + " rounds");
    }
}

void
digestCluster(const aapm::ClusterResult &r, Digest &d)
{
    d.add(r.intervals);
    d.add(r.instructions);
    d.add(r.trueEnergyJ);
    d.add(r.seconds);
    d.add(r.fractionOverBudgetTrue);
    for (const aapm::RunResult &c : r.cores) {
        d.add(c.instructions);
        d.add(c.trueEnergyJ);
        d.add(c.dvfs.transitions);
        d.add(c.idle.wakeups);
    }
}

/** A seeded cluster manifest: SPEC proxies of spread lengths, so the
 *  active set shrinks as cores finish, under a binding budget with one
 *  scheduled mid-run step. */
struct Manifest
{
    std::vector<aapm::Workload> workloads;
    double budgetW = 0.0;
    aapm::ScheduledCommand step;
};

Manifest
clusterManifest(const Context &ctx)
{
    SeedRng rng(ctx.seed ^ 0x6d616e6966657374ull);
    const std::vector<std::string> &names = aapm::specSuiteNames();
    Manifest m;
    // One manifest line per core: the totals average over 1024 draws,
    // so the amount of work barely moves with the seed.
    for (size_t k = 0; k < kClusterCores; ++k) {
        const std::string &name = names[rng.index(names.size())];
        m.workloads.push_back(aapm::specWorkload(
            name, ctx.config.core, rng.uniform(0.6, 2.4)));
    }
    m.budgetW = static_cast<double>(kClusterCores) * rng.uniform(8.9, 9.1);
    m.step.when = aapm::secondsToTicks(rng.uniform(0.65, 0.75));
    m.step.kind = aapm::ScheduledCommand::Kind::SetPowerLimit;
    m.step.value = m.budgetW * rng.uniform(0.89, 0.91);
    return m;
}

/** The manifest cluster the CLI builds for `aapm run --cluster`. */
aapm::ClusterConfig
manifestCluster(const Context &ctx, const Manifest &m)
{
    const double placeholderW =
        m.budgetW / static_cast<double>(kClusterCores);
    const aapm::PowerEstimator *power = ctx.power;
    const GovernorFactory factory = instrument(
        ctx,
        [power, placeholderW]() -> std::unique_ptr<aapm::Governor> {
            return std::make_unique<aapm::PerformanceMaximizer>(
                *power, aapm::PmConfig{.powerLimitW = placeholderW});
        },
        false);
    aapm::ClusterConfig cc;
    cc.budgetW = m.budgetW;
    cc.budgetCommands = {m.step};
    for (size_t i = 0; i < kClusterCores; ++i) {
        aapm::ClusterCoreConfig core;
        core.platform = ctx.config;
        core.workload = &m.workloads[i % m.workloads.size()];
        core.governor = factory;
        core.powerModel = ctx.power;
        core.perfModel = ctx.perf;
        cc.cores.push_back(std::move(core));
    }
    return cc;
}

// --------------------------------------------------------------------

/** The paper's Fig 6-11 grid through SweepRunner. */
class SuiteSweep final : public Workload
{
  public:
    explicit SuiteSweep(const Context &ctx) : ctx_(ctx) {}

    void
    build() override
    {
        SeedRng rng(ctx_.seed ^ 0x7377656570ull);
        suite_ = aapm::specSuite(ctx_.config.core, kSuiteSeconds);
        runner_ = std::make_unique<aapm::SweepRunner>(ctx_.config);

        // Three of the paper's PM limits (high, middle, low) and two of
        // its PS floors, each jittered around the paper value.
        const aapm::PowerEstimator *power = ctx_.power;
        const aapm::PerfEstimator *perf = ctx_.perf;
        const aapm::PStateTable pstates = ctx_.config.pstates;
        for (double paperLimit : {16.5, 13.5, 10.5}) {
            const double limit = paperLimit + rng.uniform(-0.1, 0.1);
            addSuite(rng, [power, limit]()
                         -> std::unique_ptr<aapm::Governor> {
                return std::make_unique<aapm::PerformanceMaximizer>(
                    *power, aapm::PmConfig{.powerLimitW = limit});
            });
        }
        for (double paperFloor : {0.8, 0.4}) {
            const double floor = paperFloor + rng.uniform(-0.01, 0.01);
            addSuite(rng, [pstates, perf, floor]()
                         -> std::unique_ptr<aapm::Governor> {
                return std::make_unique<aapm::PowerSave>(
                    pstates, *perf, aapm::PsConfig{floor});
            });
        }
    }

    void
    rep(RepResult &out) override
    {
        const Counters c0 = Counters::read();
        const Stopwatch sw;
        const aapm::SweepResults res = runner_->run(grid_);
        sw.stop(out);
        countersDelta(c0, Counters::read(), out);

        Digest d;
        double energyJ = 0.0;
        double seconds = 0.0;
        for (const aapm::RunResult &r : res.runs()) {
            d.add(r.instructions);
            d.add(r.seconds);
            d.add(r.trueEnergyJ);
            d.add(r.measuredEnergyJ);
            d.add(r.dvfs.transitions);
            energyJ += r.trueEnergyJ;
            seconds += r.seconds;
            if (!r.finished || r.instructions == 0)
                out.failures.push_back(r.workloadName + " did not finish");
        }
        out.digest = d.hex();
        out.sim = {{"sim.runs", static_cast<double>(res.runs().size())},
                   {"sim.energy_j", energyJ},
                   {"sim.seconds", seconds}};
    }

    size_t poolJobs() const override { return runner_->jobs(); }

  private:
    void
    addSuite(SeedRng &rng, GovernorFactory factory)
    {
        const GovernorFactory wrapped = instrument(ctx_, factory, true);
        for (const aapm::Workload &w : suite_) {
            aapm::RunSpec spec;
            spec.workload = &w;
            spec.governor = wrapped;
            spec.sensorSeed = rng.next() | 1;
            grid_.add(std::move(spec));
        }
    }

    Context ctx_;
    std::vector<aapm::Workload> suite_;
    std::unique_ptr<aapm::SweepRunner> runner_;
    aapm::SweepGrid grid_;
};

/** `aapm run --cluster 1024 --allocator greedy` on a seeded manifest. */
class ClusterCapped final : public Workload
{
  public:
    explicit ClusterCapped(const Context &ctx) : ctx_(ctx) {}

    void
    build() override
    {
        manifest_ = clusterManifest(ctx_);
        cluster_ = std::make_unique<aapm::ClusterPlatform>(
            manifestCluster(ctx_, manifest_));
        allocator_ = probeAllocator(ctx_, "greedy");
        if (ctx_.recorder != nullptr) {
            hook_ = std::make_unique<TimingHook>(nullptr, *ctx_.recorder);
            cluster_->setStepHook(hook_.get());
        }
        pool_ = std::make_unique<aapm::ThreadPool>();
    }

    void
    rep(RepResult &out) override
    {
        const Counters c0 = Counters::read();
        const uint64_t rounds0 = allocator_->rounds();
        const uint64_t violations0 = allocator_->violations();
        if (ctx_.recorder != nullptr)
            ctx_.recorder->beginRep();
        const Stopwatch sw;
        const aapm::ClusterResult r =
            cluster_->run(*allocator_, pool_.get());
        sw.stop(out);
        if (ctx_.recorder != nullptr)
            ctx_.recorder->endRep();
        countersDelta(c0, Counters::read(), out);
        checkAllocator(*allocator_, rounds0, violations0, out);
        if (!r.finished)
            out.failures.push_back("cluster run did not finish");

        Digest d;
        digestCluster(r, d);
        d.add(out.coreIntervals);
        out.digest = d.hex();
        out.sim = {{"sim.energy_j", r.trueEnergyJ},
                   {"sim.seconds", r.seconds},
                   {"sim.over_budget_frac", r.fractionOverBudgetTrue}};
    }

    size_t poolJobs() const override { return pool_->jobs(); }

  private:
    Context ctx_;
    Manifest manifest_;
    std::unique_ptr<aapm::ClusterPlatform> cluster_;
    std::unique_ptr<ProbeAllocator> allocator_;
    std::unique_ptr<TimingHook> hook_;
    std::unique_ptr<aapm::ThreadPool> pool_;
};

/** The manifest cluster under `uniform` with every interval of every
 *  core traced to binary files through one shared flush thread, as
 *  `aapm run --cluster 1024 --trace-out x.bin` does. */
class ClusterTraced final : public Workload
{
  public:
    explicit ClusterTraced(const Context &ctx) : ctx_(ctx) {}

    void
    build() override
    {
        manifest_ = clusterManifest(ctx_);
        allocator_ = probeAllocator(ctx_, "uniform");
        pool_ = std::make_unique<aapm::ThreadPool>();
        prepare();
    }

    void
    rep(RepResult &out) override
    {
        if (!cluster_)
            prepare();
        const Counters c0 = Counters::read();
        const uint64_t rounds0 = allocator_->rounds();
        const uint64_t violations0 = allocator_->violations();
        Recorder *rec = ctx_.recorder;
        if (rec != nullptr)
            rec->beginRep();
        const Stopwatch sw;
        const aapm::ClusterResult r =
            cluster_->run(*allocator_, pool_.get());
        // Closing the sinks drains the flush queue: the trace is not
        // complete until then, so it belongs to the timed region.
        if (rec != nullptr)
            rec->closeStart();
        tracers_.clear();
        sinks_.clear();
        out.flushCpuS = flushTid_ != 0 ? threadCpuS(flushTid_) : 0.0;
        flush_.reset();
        if (rec != nullptr)
            rec->closeEnd();
        sw.stop(out);
        if (rec != nullptr)
            rec->endRep();
        cluster_.reset();
        countersDelta(c0, Counters::read(), out);
        checkAllocator(*allocator_, rounds0, violations0, out);
        if (!r.finished)
            out.failures.push_back("cluster run did not finish");

        // Every file must decode, and together hold exactly the records
        // the platform reports having appended. Their content joins the
        // digest: the insight columns show whether a governor decorator
        // forwarded what the governor estimated.
        Digest d;
        uint64_t decoded = 0;
        for (size_t i = 0; i < kClusterCores; ++i) {
            const std::string path = tracePath(i);
            aapm::ParsedTrace trace;
            if (!aapm::readTraceBinary(path, trace)) {
                out.failures.push_back("trace " + path +
                                       " does not decode");
                continue;
            }
            decoded += trace.records.size();
            for (const aapm::IntervalRecord &rec : trace.records) {
                d.mix64(rec.when);
                d.mix64(rec.pstate);
                d.mix64(rec.decision);
                d.mix64(rec.predValid);
                d.mix64(Digest::micro(rec.predictedPowerW));
                d.mix64(Digest::micro(rec.measuredW));
            }
            std::error_code ec;
            out.traceBytes += fs::file_size(path, ec);
        }
        if (decoded != out.tracedRecords) {
            out.failures.push_back(
                "decoded " + std::to_string(decoded) +
                " trace records, platform counted " +
                std::to_string(out.tracedRecords));
        }
        std::error_code ec;
        fs::remove_all(repDir(), ec);

        digestCluster(r, d);
        d.add(out.coreIntervals);
        d.add(decoded);
        out.digest = d.hex();
        out.sim = {{"sim.energy_j", r.trueEnergyJ},
                   {"sim.seconds", r.seconds},
                   {"sim.over_budget_frac", r.fractionOverBudgetTrue},
                   {"sim.trace_records", static_cast<double>(decoded)}};
    }

    size_t poolJobs() const override { return pool_->jobs(); }

  private:
    std::string repDir() const { return ctx_.tmpDir + "/trace"; }

    std::string
    tracePath(size_t core) const
    {
        return repDir() + "/trace.core" + std::to_string(core) + ".bin";
    }

    /** Fresh sinks, tracers and cluster for the next rep. */
    void
    prepare()
    {
        fs::create_directories(repDir());
        const std::vector<long> before = threadIds();
        flush_ = std::make_unique<aapm::TraceFlushThread>();
        flushTid_ = 0;
        for (long tid : threadIds()) {
            if (std::find(before.begin(), before.end(), tid) ==
                before.end())
                flushTid_ = tid;
        }
        aapm::ClusterConfig cc = manifestCluster(ctx_, manifest_);
        for (size_t i = 0; i < kClusterCores; ++i) {
            sinks_.push_back(aapm::makeTraceSink(
                tracePath(i), aapm::TraceFormat::Auto, flush_.get()));
            tracers_.push_back(
                std::make_unique<aapm::IntervalTracer>(*sinks_.back(), 1));
            cc.cores[i].options.tracer = tracers_.back().get();
        }
        cluster_ = std::make_unique<aapm::ClusterPlatform>(std::move(cc));
        if (ctx_.recorder != nullptr) {
            hook_ = std::make_unique<TimingHook>(nullptr, *ctx_.recorder);
            cluster_->setStepHook(hook_.get());
        }
    }

    Context ctx_;
    Manifest manifest_;
    std::unique_ptr<ProbeAllocator> allocator_;
    std::unique_ptr<aapm::ThreadPool> pool_;
    // Declared before the sinks so it outlives their destructors.
    std::unique_ptr<aapm::TraceFlushThread> flush_;
    long flushTid_ = 0;
    std::vector<std::unique_ptr<aapm::TraceSink>> sinks_;
    std::vector<std::unique_ptr<aapm::IntervalTracer>> tracers_;
    std::unique_ptr<aapm::ClusterPlatform> cluster_;
    std::unique_ptr<TimingHook> hook_;
};

/** `aapm serve --cluster 4096 --dispatch jsq --governor race` on the
 *  idle flagship's ladder and budget. */
class ServeJsq final : public Workload
{
  public:
    explicit ServeJsq(const Context &ctx) : ctx_(ctx) {}

    void
    build() override
    {
        const double n = static_cast<double>(kServeCores);
        const double budgetW = 7.0 * n;
        const aapm::CStateLadder ladder = aapm::CStateLadder::parse(
            "C1:0.4W:2us;C6:0.05W:150us", "benchmark ladder");
        aapm::PlatformConfig config = ctx_.config;
        config.cstates = ladder;

        serving_.mix = aapm::defaultRequestMix();
        // Poisson, not the flagship's bursty MMPP: over a 0.5 s horizon
        // the MMPP's offered volume swings by a third from seed to seed,
        // and JSQ cost scales with it. Poisson keeps the volume within
        // half a percent while the race governor still sleeps through
        // the gaps.
        serving_.traffic.process = aapm::ArrivalProcess::Poisson;
        serving_.traffic.rateRps = 40.0 * n;
        serving_.traffic.seed =
            SeedRng(ctx_.seed ^ 0x7365727665ull).next() | 1;
        serving_.horizonS = 0.5;
        serving_.sloS = 0.05;
        serving_.dispatch = aapm::DispatchPolicy::JoinShortestQueue;
        menu_ = aapm::servingMenu(serving_.mix, config.core);

        const aapm::PowerEstimator *power = ctx_.power;
        const double placeholderW = budgetW / n;
        const GovernorFactory factory = instrument(
            ctx_,
            [power, ladder, placeholderW]()
                -> std::unique_ptr<aapm::Governor> {
                return std::make_unique<aapm::RaceToIdleGovernor>(
                    *power, ladder,
                    aapm::PmConfig{.powerLimitW = placeholderW});
            },
            false);
        aapm::ClusterConfig cc;
        cc.budgetW = budgetW;
        for (size_t i = 0; i < kServeCores; ++i) {
            aapm::ClusterCoreConfig core;
            core.platform = config;
            core.workload = &menu_;
            core.governor = factory;
            core.powerModel = ctx_.power;
            core.perfModel = ctx_.perf;
            cc.cores.push_back(std::move(core));
        }
        cluster_ = std::make_unique<aapm::ClusterPlatform>(std::move(cc));
        allocator_ = probeAllocator(ctx_, "uniform");
        pool_ = std::make_unique<aapm::ThreadPool>();
        prepare();
    }

    void
    rep(RepResult &out) override
    {
        if (!scheduler_)
            prepare();
        const Counters c0 = Counters::read();
        const uint64_t rounds0 = allocator_->rounds();
        const uint64_t violations0 = allocator_->violations();
        if (ctx_.recorder != nullptr)
            ctx_.recorder->beginRep();
        const Stopwatch sw;
        aapm::ClusterResult cr = cluster_->run(*allocator_, pool_.get());
        const aapm::ServingResult r = scheduler_->finish(std::move(cr));
        sw.stop(out);
        if (ctx_.recorder != nullptr)
            ctx_.recorder->endRep();
        scheduler_.reset();
        countersDelta(c0, Counters::read(), out);
        checkAllocator(*allocator_, rounds0, violations0, out);
        out.requests = r.completed;
        if (r.offered != r.completed + r.dropped) {
            out.failures.push_back(
                "offered " + std::to_string(r.offered) +
                " != completed + dropped " +
                std::to_string(r.completed + r.dropped));
        }
        if (r.unfinished != 0) {
            out.failures.push_back(std::to_string(r.unfinished) +
                                   " requests unfinished");
        }
        if (r.completed == 0)
            out.failures.push_back("no request completed");

        Digest d;
        digestCluster(r.cluster, d);
        d.add(out.coreIntervals);
        d.add(r.offered);
        d.add(r.completed);
        d.add(r.dropped);
        d.add(r.p50S);
        d.add(r.p99S);
        d.add(r.p999S);
        d.add(r.sloViolationFrac);
        for (const aapm::RequestRecord &rec : r.requests) {
            d.add(static_cast<uint64_t>(rec.core));
            d.add(static_cast<uint64_t>(rec.complete));
        }
        out.digest = d.hex();
        out.sim = {{"sim.energy_j", r.cluster.trueEnergyJ},
                   {"sim.offered", static_cast<double>(r.offered)},
                   {"sim.p99_ms", r.p99S * 1e3},
                   {"sim.slo_viol_frac", r.sloViolationFrac},
                   {"sim.over_budget_frac",
                    r.cluster.fractionOverBudgetTrue}};
    }

    size_t poolJobs() const override { return pool_->jobs(); }

  private:
    /** A RequestScheduler serves one run; build the next one. */
    void
    prepare()
    {
        scheduler_ = std::make_unique<aapm::RequestScheduler>(
            *cluster_, menu_, serving_);
        if (ctx_.recorder != nullptr) {
            hook_ = std::make_unique<TimingHook>(scheduler_.get(),
                                                 *ctx_.recorder);
            cluster_->setStepHook(hook_.get());
        } else {
            cluster_->setStepHook(scheduler_.get());
        }
    }

    Context ctx_;
    aapm::ServingConfig serving_;
    aapm::Workload menu_;
    std::unique_ptr<aapm::ClusterPlatform> cluster_;
    std::unique_ptr<ProbeAllocator> allocator_;
    std::unique_ptr<aapm::ThreadPool> pool_;
    std::unique_ptr<aapm::RequestScheduler> scheduler_;
    std::unique_ptr<TimingHook> hook_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite_sweep", "cluster_capped", "serve_jsq", "cluster_traced"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Context &ctx)
{
    if (name == "suite_sweep")
        return std::make_unique<SuiteSweep>(ctx);
    if (name == "cluster_capped")
        return std::make_unique<ClusterCapped>(ctx);
    if (name == "serve_jsq")
        return std::make_unique<ServeJsq>(ctx);
    if (name == "cluster_traced")
        return std::make_unique<ClusterTraced>(ctx);
    return nullptr;
}

} // namespace perfbench
