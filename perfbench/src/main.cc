/**
 * @file
 * aapm_perfbench: runs one benchmark workload in one process and prints
 * one JSON object as its last stdout line.
 *
 *   aapm_perfbench --workload NAME --seed N --seconds S
 *                  [--mode plain|layers|setup] [--tmp DIR] [--spans FILE]
 *                  [--min-reps N] [--cpu K]
 *
 * plain   repeat the workload for S seconds with no decorators; report
 *         every rep's wall, CPU and core-interval count, the output
 *         digest and the process peak RSS.
 * layers  the same with timing decorators on every extension point;
 *         adds per-layer numbers, and writes the spans to FILE at exit.
 * setup   build the workload and stop at the first simulated interval,
 *         printing that moment on CLOCK_MONOTONIC.
 *
 * The whole process runs on one CPU at a time: the K-th CPU it may use
 * (modulo their count) until the first rep, then the next one for each
 * rep, so the reps sample every CPU the process was given.
 *
 * run.py drives this binary; see README.md for the metrics.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "exp/thread_pool.hh"
#include "models/trainer.hh"
#include "platform/experiment.hh"
#include "probes.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    Mode mode = Mode::Plain;
    std::string tmpDir = ".";
    std::string spansPath;
    /** Timed reps to run even when the seconds are used up. */
    size_t minReps = 3;
    /** Index of the first CPU to run on (see the file comment). */
    size_t firstCpu = 0;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "aapm_perfbench: %s\nusage: aapm_perfbench --workload "
                 "NAME --seed N --seconds S [--mode plain|layers|setup] "
                 "[--tmp DIR] [--spans FILE] [--min-reps N] [--cpu K]\n",
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
        const std::string value = argv[++i];
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value.c_str(), nullptr);
        } else if (key == "--mode") {
            if (value == "plain")
                a.mode = Mode::Plain;
            else if (value == "layers")
                a.mode = Mode::Layers;
            else if (value == "setup")
                a.mode = Mode::Setup;
            else
                usage("unknown mode");
        } else if (key == "--tmp") {
            a.tmpDir = value;
        } else if (key == "--spans") {
            a.spansPath = value;
        } else if (key == "--min-reps") {
            a.minReps = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--cpu") {
            a.firstCpu = std::strtoull(value.c_str(), nullptr, 10);
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** A JSON string literal. */
std::string
jsonString(const std::string &v)
{
    std::string quoted = "\"";
    for (char c : v) {
        if (c == '"' || c == '\\')
            quoted += '\\';
        quoted += (c == '\n') ? ' ' : c;
    }
    return quoted + "\"";
}

/** Minimal JSON object writer (insertion order, numbers at full
 *  precision). */
class Json
{
  public:
    Json &
    num(const std::string &key, double v)
    {
        char buf[40];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        return raw(key, buf);
    }

    Json &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, jsonString(v));
    }

    Json &
    boolean(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    Json &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** CPU quota from cgroup v2 cpu.max or v1 cfs quota/period, as CPUs;
 *  0 when unlimited or unreadable. */
double
cgroupCpuLimit(std::string *raw)
{
    std::string v2 = readFirstLine("/sys/fs/cgroup/cpu.max");
    if (!v2.empty()) {
        *raw = "cpu.max " + v2;
        double quota = 0.0, period = 0.0;
        if (std::sscanf(v2.c_str(), "%lf %lf", &quota, &period) == 2 &&
            period > 0.0)
            return quota / period;
        return 0.0;
    }
    const std::string q =
        readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    const std::string p =
        readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    *raw = "cfs_quota_us " + (q.empty() ? "?" : q) + " cfs_period_us " +
        (p.empty() ? "?" : p);
    const double quota = q.empty() ? -1.0 : std::atof(q.c_str());
    const double period = p.empty() ? 0.0 : std::atof(p.c_str());
    return quota > 0.0 && period > 0.0 ? quota / period : 0.0;
}

/** CPUs the process may run on (sched_getaffinity); empty if unknown. */
std::vector<int>
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    }
    return cpus;
}

/**
 * Move every thread of the process onto one CPU.
 *
 * On a shared host a CPU runs the workload ~1.8x slower for tens of
 * seconds at a time (CPU time per interval rises with the wall time and
 * no time is stolen, so most likely a busy hyperthread sibling), and
 * which CPU that is moves. Pinned to one fixed CPU, whole runs landed
 * in that state. Moving to the next CPU every rep lets each run sample
 * every CPU, and the fast quartile of the reps reads the CPUs that ran
 * at full speed.
 */
void
pinProcess(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    for (long tid : threadIds())
        sched_setaffinity(static_cast<pid_t>(tid), sizeof set, &set);
}

std::string
hostFacts(size_t poolJobs, size_t cpus)
{
    std::string quotaRaw;
    const double quota = cgroupCpuLimit(&quotaRaw);
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    Json j;
    j.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
        .num("affinity_cpus", static_cast<double>(cpus))
        .str("placement", "one CPU at a time, the next one each rep")
        .num("cgroup_cpu_limit", quota)
        .str("cgroup_cpu_raw", quotaRaw)
        .num("pool_jobs", static_cast<double>(poolJobs))
        .num("default_jobs",
             static_cast<double>(aapm::ThreadPool::defaultJobs()))
        .str("compiler", "gcc " __VERSION__)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .boolean("optimized", optimized)
        .boolean("comparable", optimized);
    return j.text();
}

/** Per-layer numbers of an instrumented run (see README.md). */
struct LayerNumbers
{
    Json metrics;
    Json detail;
};

LayerNumbers
layerNumbers(const Recorder &rec, const std::vector<RepResult> &reps,
             const TallySum &tallyBase, size_t jobs, size_t cpus)
{
    const double k = nsPerTick();
    auto ns = [k](uint64_t from, uint64_t to) {
        return to > from ? static_cast<double>(to - from) * k : 0.0;
    };
    double wallS = 0.0, cpuS = 0.0, flushCpuS = 0.0;
    double ci = 0.0, fast = 0.0, chunked = 0.0, sleep = 0.0;
    double requests = 0.0, depthSum = 0.0, depthSamples = 0.0;
    double traced = 0.0, bytes = 0.0, rounds = 0.0;
    for (const RepResult &r : reps) {
        wallS += r.wallS;
        cpuS += r.cpuS;
        flushCpuS += r.flushCpuS;
        ci += static_cast<double>(r.coreIntervals);
        fast += static_cast<double>(r.fastIntervals);
        chunked += static_cast<double>(r.chunkedIntervals);
        sleep += static_cast<double>(r.sleepIntervals);
        requests += static_cast<double>(r.requests);
        depthSum += static_cast<double>(r.queueDepthSum);
        depthSamples += static_cast<double>(r.queueDepthSamples);
        traced += static_cast<double>(r.tracedRecords);
        bytes += static_cast<double>(r.traceBytes);
        rounds += static_cast<double>(r.allocRounds);
    }
    const double n = static_cast<double>(reps.size());
    TallySum tallies = sumTallies();
    tallies.decideTicks -= tallyBase.decideTicks;
    tallies.decideCalls -= tallyBase.decideCalls;
    tallies.limitCalls -= tallyBase.limitCalls;
    const double decideNs = static_cast<double>(tallies.decideTicks) * k;
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    // ThreadPool::parallelFor runs on every worker plus the caller, but
    // never on more CPUs than the process may use.
    const double threads = static_cast<double>(
        std::min<size_t>(jobs > 1 ? jobs + 1 : 1, cpus));

    std::vector<double> runMs;
    double busy = 0.0, selfNs = 0.0, coverage = 0.0;
    double phaseA = 0.0, hook = 0.0, other = 0.0, alloc = 0.0;
    double boot = 0.0, finish = 0.0, close = 0.0, repNs = 0.0;
    std::vector<double> intervalUs;
    if (!rec.runs().empty()) {
        // SweepRunner grid: each governor lifetime brackets one run,
        // measured in the running thread's CPU time.
        double runNs = 0.0;
        for (const RunSpan &run : rec.runs()) {
            runNs += run.cpuS * 1e9;
            runMs.push_back(run.cpuS * 1e3);
        }
        busy = ratio(runNs, wallS * 1e9 * threads);
        selfNs = ratio(runNs - decideNs, ci);
        coverage = busy;
    } else {
        const auto &spans = rec.intervals();
        for (const RepSpan &rep : rec.reps()) {
            repNs += ns(rep.start, rep.end);
            runMs.push_back(ns(rep.start, rep.end) * 1e-6);
            boot += ns(rep.start, rep.preAllocStart);
            alloc += ns(rep.preAllocStart, rep.preAllocEnd);
            close += ns(rep.closeStart, rep.closeEnd);
            uint64_t lastHookEnd = rep.preAllocEnd;
            for (size_t i = 0; i < rep.intervalCount; ++i) {
                const IntervalSpan &s = spans[rep.firstInterval + i];
                phaseA += ns(s.begin, s.hookStart);
                hook += ns(s.hookStart, s.hookEnd);
                if (s.allocStart != 0) {
                    other += ns(s.hookEnd, s.allocStart);
                    alloc += ns(s.allocStart, s.allocEnd);
                }
                intervalUs.push_back(
                    ns(s.begin, s.allocStart != 0 ? s.allocEnd : s.hookEnd) *
                    1e-3);
                lastHookEnd = s.hookEnd;
            }
            finish += ns(lastHookEnd,
                         rep.closeStart != 0 ? rep.closeStart : rep.end);
        }
        // Phase A runs on the pool; everything else runs on the
        // stepping thread, where CPU time equals wall time.
        const double serialS =
            (boot + hook + other + alloc + finish) * 1e-9;
        const double phaseACpuNs =
            std::max(0.0, cpuS - serialS - flushCpuS) * 1e9;
        busy = ratio(phaseACpuNs, phaseA * threads);
        selfNs = ratio(phaseACpuNs - decideNs, ci);
        // The spans against the independently clocked timed wall: what
        // no span covers is wall time no layer accounts for.
        coverage = ratio(
            (boot + phaseA + hook + other + alloc + finish + close) * 1e-9,
            wallS);
    }

    LayerNumbers out;
    out.metrics.num("exp.run_ms_p50", quantile(runMs, 0.50))
        .num("exp.run_ms_p99", quantile(runMs, 0.99))
        .num("exp.busy_frac", busy)
        .num("platform.self_ns_per_ci", selfNs)
        .num("platform.fast_frac", ratio(fast, fast + chunked))
        .num("platform.fast_intervals", fast / n)
        .num("platform.chunked_intervals", chunked / n)
        .num("idle.sleep_intervals", sleep / n)
        .num("mgmt.decide_ns",
             ratio(decideNs, static_cast<double>(tallies.decideCalls)))
        .num("mgmt.limit_deliveries_per_round",
             ratio(static_cast<double>(tallies.limitCalls), rounds))
        .num("cluster.phase_a_share", ratio(phaseA, repNs))
        .num("cluster.alloc_share", ratio(alloc, repNs))
        .num("cluster.other_share", ratio(other, repNs))
        .num("cluster.boot_share", ratio(boot, repNs))
        .num("cluster.finish_share", ratio(finish, repNs))
        .num("serve.hook_share", ratio(hook, repNs))
        .num("serve.queue_depth_mean", ratio(depthSum, depthSamples))
        .num("obs.records_per_ci", ratio(traced, ci))
        .num("obs.bytes_per_record", ratio(bytes, traced))
        .num("obs.flush_cpu_frac", ratio(flushCpuS, wallS))
        .num("obs.close_share", ratio(close, repNs))
        .num("layers.coverage_frac", coverage);
    out.detail.num("cluster.alloc_ns_per_round", ratio(alloc, rounds))
        .num("cluster.phase_a_ns_per_ci", ratio(phaseA, ci))
        .num("cluster.other_ns_per_ci", ratio(other, ci))
        .num("cluster.interval_us_p50", quantile(intervalUs, 0.50))
        .num("cluster.interval_us_p99", quantile(intervalUs, 0.99))
        .num("cluster.intervals", static_cast<double>(intervalUs.size()))
        .num("serve.hook_ns_per_request", ratio(hook, requests))
        .num("obs.flush_cpu_ns_per_record", ratio(flushCpuS * 1e9, traced))
        .num("obs.close_s", ratio(close * 1e-9, n))
        .num("mgmt.decide_calls", static_cast<double>(tallies.decideCalls));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    // The benchmark measures the CLI defaults: models trained in
    // process, pool width from the host.
    unsetenv("AAPM_MODEL_CACHE");
    unsetenv("AAPM_JOBS");
    const Args args = parseArgs(argc, argv);
    const std::vector<int> cpus = affinityCpus();
    size_t nextCpu = args.firstCpu;
    const auto moveToNextCpu = [&] {
        if (!cpus.empty())
            pinProcess(cpus[nextCpu++ % cpus.size()]);
    };
    moveToNextCpu();

    Recorder recorder;
    Context ctx;
    ctx.mode = args.mode;
    ctx.seed = args.seed;
    ctx.tmpDir = args.tmpDir;
    if (args.mode == Mode::Layers)
        ctx.recorder = &recorder;

    const double trainStart = monotonicS();
    const aapm::TrainedModels models = aapm::trainModels(ctx.config);
    const aapm::PowerEstimator power =
        models.powerEstimator(ctx.config.pstates);
    const aapm::PerfEstimator perf = models.perfEstimator();
    const double trainS = monotonicS() - trainStart;
    ctx.power = &power;
    ctx.perf = &perf;

    const double buildStart = monotonicS();
    std::unique_ptr<Workload> workload = makeWorkload(args.workload, ctx);
    if (!workload)
        usage(("unknown workload " + args.workload).c_str());
    workload->build();
    const double buildS = monotonicS() - buildStart;

    if (args.mode == Mode::Setup) {
        RepResult unused;
        workload->rep(unused);
        std::fprintf(stderr, "aapm_perfbench: workload ran no interval\n");
        return 3;
    }

    // One checked warm-up rep takes the first-touch page faults and
    // allocator growth, which run 20-30% slow; it is not timed.
    RepResult warmup;
    workload->rep(warmup);
    recorder.clear();
    const TallySum tallyBase = sumTallies();

    // Closed batch: the next rep starts when the previous one ends.
    std::vector<RepResult> reps;
    const double deadline = monotonicS() + args.seconds;
    while (reps.size() < args.minReps || monotonicS() < deadline) {
        moveToNextCpu();
        reps.emplace_back();
        workload->rep(reps.back());
    }

    size_t failed = 0;
    std::vector<std::string> failures;
    const auto check = [&](const RepResult &r) {
        const bool drifted = r.digest != warmup.digest;
        if (!r.failures.empty() || drifted)
            ++failed;
        failures.insert(failures.end(), r.failures.begin(), r.failures.end());
        if (drifted)
            failures.push_back("digest changed between reps");
    };
    check(warmup);
    for (const RepResult &r : reps)
        check(r);

    std::string repsJson = "[";
    for (size_t i = 0; i < reps.size(); ++i) {
        Json j;
        j.num("wall_s", reps[i].wallS)
            .num("cpu_s", reps[i].cpuS)
            .num("ci", static_cast<double>(reps[i].coreIntervals))
            .num("requests", static_cast<double>(reps[i].requests));
        repsJson += (i > 0 ? ", " : "") + j.text();
    }
    repsJson += "]";
    std::string failuresJson = "[";
    for (size_t i = 0; i < failures.size() && i < 20; ++i)
        failuresJson += (i > 0 ? ", " : "") + jsonString(failures[i]);
    failuresJson += "]";
    Json sim;
    for (const auto &[name, value] : reps.front().sim)
        sim.num(name, value);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    Json out;
    out.str("workload", args.workload)
        .str("mode", args.mode == Mode::Layers ? "layers" : "plain")
        .num("seed", static_cast<double>(args.seed))
        .num("train_s", trainS)
        .num("build_s", buildS)
        .raw("reps", repsJson)
        .num("attempted", static_cast<double>(reps.size() + 1))
        .num("failed", static_cast<double>(failed))
        .raw("failures", failuresJson)
        .str("digest", reps.front().digest)
        .raw("sim", sim.text())
        .num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
        .raw("host", hostFacts(workload->poolJobs(), cpus.size()));
    if (args.mode == Mode::Layers) {
        // Every rep runs on one CPU.
        const LayerNumbers layers = layerNumbers(
            recorder, reps, tallyBase, workload->poolJobs(), 1);
        out.raw("layers", layers.metrics.text())
            .raw("layers_detail", layers.detail.text());
        if (!args.spansPath.empty() && !recorder.write(args.spansPath)) {
            std::fprintf(stderr, "aapm_perfbench: cannot write %s\n",
                         args.spansPath.c_str());
        }
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}
