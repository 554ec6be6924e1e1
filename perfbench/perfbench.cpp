/**
 * @file
 * perfbench: the measuring half of the end-to-end OSCAR benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
 *
 * Runs one workload (solve-heavy, execute-heavy, fleet, serve-mix; see
 * DESIGN.md) through the library's public entry points only, checks
 * every output it times, and prints one JSON line of raw measurements:
 * per-operation duration samples, deterministic counts, host and
 * configuration labels, and -- with --trace 1 -- the spans this file
 * records around each public call. run.py turns that line into the
 * benchmark's metrics; nothing here computes a statistic.
 *
 * With --trace 0 the timed window measures what a user sees: landscape
 * computation (Oscar::reconstruct, or a cold oscar-serve request),
 * landscape reuse (LandscapeStore::load, or a warm request), the exact
 * grid search, and optimizer trials on the interpolant. With --trace 1
 * the window instead replays the pipeline stage by stage with spans
 * kept in memory (sample -> execute -> csSolveFolded -> landscape ->
 * interpolant + trial), asserts the staged result is bit-identical to
 * Oscar::reconstruct's, and then measures single layers: DCT, per-point
 * evaluation, thread scaling, store put/load, and -- where the
 * workload's own path skips them -- a fleet batch and warm daemon
 * requests on the workload's data.
 *
 * DIR holds the stores and sockets the run writes; it should start
 * empty. Counts that must not change within a run (solver iterations,
 * nrmse, the single-thread prefix-cache hit ratio, evaluations per cold
 * request, the fleet's remote share) are measured more than once, and a
 * repeat that differs fails the run.
 */

#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/ansatz/qaoa.h"
#include "src/backend/analytic_qaoa.h"
#include "src/backend/engine.h"
#include "src/backend/statevector_backend.h"
#include "src/common/rng.h"
#include "src/core/oscar.h"
#include "src/cs/dct.h"
#include "src/cs/reconstructor.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/interp/bicubic.h"
#include "src/interp/multilinear.h"
#include "src/landscape/grid.h"
#include "src/landscape/landscape.h"
#include "src/landscape/metrics.h"
#include "src/landscape/sampler.h"
#include "src/optimize/adam.h"
#include "src/quantum/kernels.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/store/landscape_store.h"

extern char** environ;

namespace {

using namespace oscar;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- settings

/**
 * Set-ups per run: setup_s is their median, so one slow process start
 * or page-cache miss does not move it.
 */
constexpr int kSetups = 3;

/**
 * Shares of the timed window (--trace 0) given to each operation. The
 * grid search is the longest operation (over a second at 20 qubits),
 * so it gets as much time as the reconstruction to collect a median.
 */
constexpr double kColdShare = 0.45;
constexpr double kGridShare = 0.45;
constexpr double kWarmShare = 0.02;
constexpr double kTrialShare = 0.08;

/** serve-mix: closed-loop clients (> the daemon's 2 job threads). */
constexpr int kServeClients = 3;

/** serve-mix: stored keys the warm requests draw from. */
constexpr int kWarmKeys = 8;

/** serve-mix: every kColdEvery-th request of a client is cold. */
constexpr int kColdEvery = 4;

/** serve-mix: share of the window spent in the client loop. */
constexpr double kServeShare = 0.80;

/** serve-mix: client-loop segments with grid and trial ops between. */
constexpr int kServeSegments = 8;

/** Fleet: worker processes x threads per worker. */
constexpr int kFleetWorkers = 2;
constexpr int kFleetThreadsPerWorker = 1;

/** Spanned fleet batches / warm requests per layer measurement. */
constexpr int kLayerFleetBatches = 3;
constexpr std::size_t kLayerWarmRequests = 50;

/** Points evaluated one at a time for quantum.eval_us. */
constexpr std::size_t kEvalPoints = 32;

/** Containers written per store.put_us / store.load_us measurement. */
constexpr std::size_t kStoreOps = 24;

/** Grid points cross-checked against the closed-form p=1 energy. */
constexpr std::size_t kAnalyticChecks = 16;

// ----------------------------------------------------------------- json

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------- spans

/**
 * In-memory span log: name, parent, start and end (seconds since the
 * log was created). Spans are written out with the report when the
 * run ends; recording costs one locked push per span.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

    int
    open(const char* name, int parent)
    {
        if (!on_)
            return -1;
        const double now = secondsSince(origin_);
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({parent, name, now, now});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        const double now = secondsSince(origin_);
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = now;
    }

    std::string
    json() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::string out = "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out.append(i ? ",[" : "[")
                .append(std::to_string(s.parent))
                .append(",")
                .append(jsonString(s.name))
                .append(",")
                .append(jsonNumber(s.start))
                .append(",")
                .append(jsonNumber(s.end))
                .append("]");
        }
        return out + "]";
    }

  private:
    struct Span
    {
        int parent;
        std::string name;
        double start;
        double end;
    };

    const bool on_;
    const Clock::time_point origin_;
    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanLog& log, const char* name, int parent = -1)
        : log_(log), id_(log.open(name, parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int id() const { return id_; }

  private:
    SpanLog& log_;
    const int id_;
};

// --------------------------------------------------------------- report

/** Everything one run measured; printed as the run's JSON line. */
class Report
{
  public:
    void
    label(const std::string& key, const std::string& value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        labels_[key] = value;
    }

    void
    sample(const std::string& name, double value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_[name].push_back(value);
    }

    void
    count(const std::string& name, double value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counts_[name] = value;
    }

    /**
     * A count that must come out the same, bit for bit, every time the
     * run measures it. Each repeat is one attempted check; a different
     * value fails it and the first value stays.
     */
    void
    exact(const std::string& name, double value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, first] = counts_.try_emplace(name, value);
        if (first)
            return;
        const bool same = std::memcmp(&it->second, &value, sizeof value) == 0;
        record(same, name + " differs between repetitions: " +
                         jsonNumber(it->second) + " then " + jsonNumber(value));
    }

    /** One attempted operation; a failed one keeps its reason. */
    void
    outcome(bool ok, const std::string& what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        record(ok, what);
    }

    std::string
    json(const SpanLog& spans) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::string out = "{\"labels\":{";
        const char* sep = "";
        for (const auto& [k, v] : labels_) {
            out.append(sep).append(jsonString(k)).append(":").append(
                jsonString(v));
            sep = ",";
        }
        out.append("},\"attempted\":").append(std::to_string(attempted_));
        out.append(",\"failed\":").append(std::to_string(failed_));
        out.append(",\"errors\":[");
        sep = "";
        for (const std::string& e : errors_) {
            out.append(sep).append(jsonString(e));
            sep = ",";
        }
        out.append("],\"samples\":{");
        sep = "";
        for (const auto& [k, v] : samples_) {
            out.append(sep).append(jsonString(k)).append(":[");
            for (std::size_t i = 0; i < v.size(); ++i)
                out.append(i ? "," : "").append(jsonNumber(v[i]));
            out.append("]");
            sep = ",";
        }
        out.append("},\"counts\":{");
        sep = "";
        for (const auto& [k, v] : counts_) {
            out.append(sep).append(jsonString(k)).append(":").append(
                jsonNumber(v));
            sep = ",";
        }
        return out.append("},\"spans\":").append(spans.json()).append("}");
    }

  private:
    /** Caller holds mutex_. */
    void
    record(bool ok, const std::string& what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (errors_.size() < 20)
                errors_.push_back(what);
        }
    }

    mutable std::mutex mutex_; ///< guards everything below
    std::map<std::string, std::string> labels_;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> counts_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> errors_;
};

/**
 * Run one operation: it counts as attempted, and as failed when it
 * throws or its own verification returns false.
 */
bool
attempt(Report& report, const std::string& what,
        const std::function<bool()>& op)
{
    bool ok = false;
    std::string why = "output check failed";
    try {
        ok = op();
    } catch (const std::exception& e) {
        why = e.what();
    }
    report.outcome(ok, what + ": " + why);
    return ok;
}

/**
 * Repeat `op` until `budget` seconds have passed since the first call,
 * and at least `min_ops` times.
 */
void
repeatFor(double budget, std::size_t min_ops, const std::function<void()>& op)
{
    const Clock::time_point t0 = Clock::now();
    for (std::size_t n = 0; n < min_ops || secondsSince(t0) < budget; ++n)
        op();
}

bool
bitIdentical(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool
allFinite(const std::vector<double>& v)
{
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x); });
}

// ------------------------------------------------------------ workloads

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
};

enum class Kind
{
    InProcess,
    Fleet,
    Serve,
};

/** The fixed shape of a workload; the seed fills in the instance. */
struct WorkloadSpec
{
    const char* name;
    Kind kind;
    int qubits;
    int depth;
    GridSpec grid;
    double fraction;
};

std::optional<WorkloadSpec>
findWorkload(const std::string& name)
{
    // solve-heavy runs the paper's default p=2 grid (32 400 points,
    // folded to 180 x 180 for the CS solve); execute-heavy and fleet
    // share one 20-qubit p=1 instance so their values can be compared
    // bit for bit; serve-mix uses a request small enough that the
    // daemon's queue, not one computation, sets its latency.
    const WorkloadSpec specs[] = {
        {"solve-heavy", Kind::InProcess, 12, 2, GridSpec::qaoaP2(), 0.05},
        {"execute-heavy", Kind::InProcess, 20, 1, GridSpec::qaoaP1(16, 32),
         0.10},
        {"fleet", Kind::Fleet, 20, 1, GridSpec::qaoaP1(16, 32), 0.10},
        {"serve-mix", Kind::Serve, 10, 1, GridSpec::qaoaP1(30, 60), 0.05},
    };
    for (const WorkloadSpec& s : specs)
        if (name == s.name)
            return s;
    return std::nullopt;
}

/**
 * The generated inputs of one run: a random 3-regular MaxCut instance
 * and the sampling seed, both drawn from the run seed. Depends only on
 * the workload's shape and the seed, so execute-heavy and fleet runs
 * of one seed compute the same landscape.
 */
struct Instance
{
    const WorkloadSpec* spec = nullptr;
    Graph graph;
    Circuit circuit;
    PauliSum hamiltonian{1};
    std::uint64_t sampleSeed = 0;
    std::shared_ptr<const StatevectorCost> proto;

    /**
     * A cost function with an empty prefix cache, for use by one
     * thread at a time. It is a copy of `proto`, which skips building
     * the Hamiltonian's diagonal table (~0.2 s at 20 qubits). Copies
     * share the prototype's cache; changing the cache budget empties
     * it, so two budget changes hand each operation an empty cache at
     * the default budget, as a new cost function would have.
     */
    std::unique_ptr<StatevectorCost>
    freshCost() const
    {
        auto cost = std::make_unique<StatevectorCost>(*proto);
        KernelOptions kernel;
        kernel.prefixCacheBudgetBytes += 1;
        cost->configureKernel(kernel);
        cost->configureKernel(KernelOptions{});
        return cost;
    }

    /** A cost function sharing nothing, for concurrent use. */
    std::unique_ptr<StatevectorCost>
    independentCost() const
    {
        return std::make_unique<StatevectorCost>(circuit, hamiltonian);
    }

    OscarOptions
    options(std::uint64_t sample_seed) const
    {
        OscarOptions opts;
        opts.samplingFraction = spec->fraction;
        opts.seed = sample_seed;
        return opts;
    }
};

Instance
makeInstance(const WorkloadSpec& spec, std::uint64_t seed)
{
    Instance inst;
    inst.spec = &spec;
    Rng rng(seed);
    inst.graph = random3RegularGraph(spec.qubits, rng);
    inst.circuit = qaoaCircuit(inst.graph, spec.depth);
    inst.hamiltonian = maxcutHamiltonian(inst.graph);
    inst.sampleSeed = rng();
    inst.proto = inst.independentCost();
    return inst;
}

/** Host CPUs this process may run on (what `nproc` prints). */
int
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
exeDir()
{
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    if (ec)
        throw std::runtime_error("cannot resolve /proc/self/exe");
    return self.parent_path().string();
}

EngineOptions
inProcessEngine(int threads)
{
    EngineOptions opts;
    opts.numThreads = threads;
    opts.dist.numWorkers = -1; // never distribute, whatever the env says
    return opts;
}

EngineOptions
fleetEngine(std::uint64_t seed)
{
    // Loopback TCP with a per-run secret; stealing keeps its default.
    // The coordinator runs serially: every batch large enough to
    // distribute goes to the workers.
    EngineOptions opts;
    opts.numThreads = 1;
    opts.dist.numWorkers = kFleetWorkers;
    opts.dist.threadsPerWorker = kFleetThreadsPerWorker;
    opts.dist.listen = "127.0.0.1:0";
    opts.dist.secret = "perfbench-" + std::to_string(seed);
    opts.dist.workerPath = exeDir() + "/oscar-worker";
    return opts;
}

/** The optimizer trial's fixed start: 30% into every axis. */
std::vector<double>
trialStart(const GridSpec& grid)
{
    std::vector<double> start;
    for (const GridAxis& axis : grid.axes())
        start.push_back(axis.lo + 0.3 * (axis.hi - axis.lo));
    return start;
}

/** Bicubic for rank 2, multilinear otherwise. */
std::unique_ptr<CostFunction>
makeInterpolant(const Landscape& landscape)
{
    if (landscape.grid().rank() == 2)
        return std::make_unique<InterpolatedLandscapeCost>(landscape);
    return std::make_unique<MultilinearLandscapeCost>(landscape);
}

/** The store entry oscar-serve would write for a reconstruction. */
store::StoredLandscape
toStored(const GridSpec& grid, const OscarResult& result, double fraction,
         std::uint64_t sample_seed)
{
    store::StoredLandscape entry;
    entry.grid = grid;
    entry.sampleIndices.assign(result.samples.indices.begin(),
                               result.samples.indices.end());
    entry.sampleValues = result.samples.values;
    entry.reconstructed = result.reconstructed.values().flat();
    entry.kernel = result.execution.kernel;
    entry.samplingFraction = fraction;
    entry.sampleSeed = sample_seed;
    entry.queriesUsed = result.queriesUsed;
    entry.querySpeedup = result.querySpeedup;
    return entry;
}

/**
 * Independent check of exact values on p=1 workloads: a handful of
 * grid points against the closed-form QAOA energy.
 */
bool
matchesClosedForm(const Instance& inst, const Landscape& truth)
{
    if (inst.spec->depth != 1)
        return true;
    AnalyticQaoaCost analytic(inst.graph);
    const std::size_t n = truth.numPoints();
    for (std::size_t k = 0; k < kAnalyticChecks; ++k) {
        const std::size_t idx = (k * 7919 + 13) % n;
        const double want = analytic.evaluate(truth.grid().pointAt(idx));
        if (std::abs(want - truth.value(idx)) > 1e-8 * (1.0 + std::abs(want)))
            return false;
    }
    return true;
}

/** The reconstruction's sampled values are the exact values there. */
bool
samplesMatchTruth(const OscarResult& result, const Landscape& truth)
{
    const SampleSet& s = result.samples;
    for (std::size_t i = 0; i < s.size(); ++i)
        if (std::memcmp(&s.values[i],
                        truth.values().data() + s.indices[i],
                        sizeof(double)) != 0)
            return false;
    return true;
}

void
labelHost(Report& report, const Args& args, const WorkloadSpec& spec,
          int cpus, int threads, int workers)
{
    const KernelOptions kernel;
    report.label("workload", spec.name);
    report.label("seed", std::to_string(args.seed));
    report.label("nproc", std::to_string(cpus));
    report.label("hardware_concurrency",
                 std::to_string(std::thread::hardware_concurrency()));
    report.label("isa", kernels::isaName(kernels::defaultKernelTable().isa));
    report.label("fusion_plan",
                 "fuseWindow=" + std::to_string(kernel.fuseWindow) +
                     ",blockWindow=" + std::to_string(kernel.blockWindow));
    report.label("build_type", OSCAR_PERFBENCH_BUILD_TYPE);
    report.label("compiler", OSCAR_PERFBENCH_COMPILER);
    // The instance's shape: workloads with equal shapes and seeds
    // compute the same landscape.
    std::string instance = "q";
    instance.append(std::to_string(spec.qubits))
        .append("-p")
        .append(std::to_string(spec.depth));
    for (const std::size_t d : spec.grid.shape())
        instance.append("-").append(std::to_string(d));
    instance.append("-f").append(std::to_string(spec.fraction));
    report.label("instance", instance);
    report.label("grid_points", std::to_string(spec.grid.numPoints()));
    report.label("samples_per_landscape",
                 std::to_string(sampleCount(spec.grid, spec.fraction)));
    report.label("threads", std::to_string(threads));
    report.label("worker_processes", std::to_string(workers));
    const bool over = threads + workers > cpus;
    report.label("oversubscribed", over ? "1" : "0");
    if (over)
        std::fprintf(stderr,
                     "perfbench: WARNING: %d threads + %d worker processes "
                     "exceed %d cores; scaling figures are not meaningful\n",
                     threads, workers, cpus);
}

// ----------------------------------------------------------- timed ops

/** One kind of timed operation and its share of the window. */
struct TimedOp
{
    double share;
    std::function<void()> run;
};

/**
 * Run `ops` for `seconds`, each at least once. Every step runs the op
 * that has used the smallest part of its share so far, so each op's
 * samples spread over the whole window: a burst of outside load then
 * touches every metric a little instead of one metric entirely.
 */
void
interleave(const std::vector<TimedOp>& ops, double seconds)
{
    std::vector<double> used(ops.size(), 0.0);
    std::vector<std::size_t> runs(ops.size(), 0);
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        const bool all_ran = std::all_of(runs.begin(), runs.end(),
                                         [](std::size_t n) { return n > 0; });
        if (all_ran && secondsSince(t0) >= seconds)
            return;
        std::size_t next = 0;
        for (std::size_t i = 1; i < ops.size(); ++i)
            if (used[i] / ops[i].share < used[next] / ops[next].share)
                next = i;
        const Clock::time_point t = Clock::now();
        ops[next].run();
        used[next] += secondsSince(t);
        ++runs[next];
    }
}

/**
 * Timed exact grid search. The first result becomes the truth when
 * none was computed beforehand (and is checked against the closed
 * form); every later one must equal it bit for bit. Each one also
 * scores `recon` (nrmse, which must repeat exactly and stay below 1)
 * and must hold its sampled values at the sampled points.
 */
struct GridOp
{
    const Instance& inst;
    ExecutionEngine& engine;
    std::optional<Landscape>& truth;
    const OscarResult& recon;
    Report& report;

    void
    operator()()
    {
        auto cost = inst.freshCost();
        attempt(report, "grid_search", [&] {
            const Clock::time_point t0 = Clock::now();
            Landscape exact =
                Landscape::gridSearch(inst.spec->grid, *cost, &engine);
            report.sample("grid_search_s", secondsSince(t0));
            const double q =
                nrmse(exact.values(), recon.reconstructed.values());
            report.exact("nrmse", q);
            // The paper's reconstructions stay well under 1; a value
            // above it means the solve did not recover the landscape.
            if (!std::isfinite(q) || q >= 1.0 ||
                !samplesMatchTruth(recon, exact))
                return false;
            if (!truth) {
                truth = std::move(exact);
                return allFinite(truth->values().flat()) &&
                       matchesClosedForm(inst, *truth);
            }
            return bitIdentical(exact.values().flat(),
                                truth->values().flat());
        });
    }
};

/** Timed Adam trial (default options) on a reconstruction's interpolant. */
struct TrialOp
{
    Report& report;
    std::unique_ptr<CostFunction> interp;
    std::vector<double> start;
    std::optional<double> best;

    void
    operator()()
    {
        attempt(report, "trial", [&] {
            Adam adam;
            const Clock::time_point t0 = Clock::now();
            const OptimizerResult r = adam.minimize(*interp, start);
            report.sample("trial_s", secondsSince(t0));
            if (!best)
                best = r.bestValue;
            // Same interpolant, same start: the same minimum, bit for bit.
            return std::isfinite(r.bestValue) &&
                   std::memcmp(&*best, &r.bestValue, sizeof(double)) == 0;
        });
    }
};

// --------------------------------------------------------------- daemon

/** A child oscar-serve with its own socket and fresh store. */
class Daemon
{
  public:
    Daemon(const std::string& socket, const std::string& store_dir)
        : socket_(socket)
    {
        const std::string bin = exeDir() + "/oscar-serve";
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The daemon's chatter goes to stderr; stdout carries only
            // the benchmark's result.
            ::dup2(2, 1);
            ::execl(bin.c_str(), bin.c_str(), "--socket", socket.c_str(),
                    "--store", store_dir.c_str(),
                    static_cast<char*>(nullptr));
            ::_exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Connect once the socket accepts, or throw. */
    std::unique_ptr<serve::ServeClient>
    connect(double timeout_s) const
    {
        const Clock::time_point t0 = Clock::now();
        for (;;) {
            try {
                return std::make_unique<serve::ServeClient>(socket_);
            } catch (const std::exception&) {
                int status = 0;
                if (::waitpid(pid_, &status, WNOHANG) == pid_)
                    throw std::runtime_error("oscar-serve exited at start");
                if (secondsSince(t0) > timeout_s)
                    throw std::runtime_error("oscar-serve did not listen");
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        }
    }

    /** SIGTERM (graceful drain), then wait; SIGKILL after 10 s. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        const Clock::time_point t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 10.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

serve::RequestMsg
makeRequest(const Instance& inst, std::uint64_t sample_seed)
{
    serve::RequestMsg msg;
    msg.kind = serve::RequestKind::Reconstruct;
    msg.cost.circuit = inst.circuit;
    msg.cost.hamiltonian = inst.hamiltonian;
    msg.grid = inst.spec->grid;
    msg.samplingFraction = inst.spec->fraction;
    msg.sampleSeed = sample_seed;
    return msg;
}

/** The key oscar-serve files a request's landscape under. */
store::StoreKey
storeKeyOf(const Instance& inst, std::uint64_t sample_seed)
{
    serve::RequestMsg msg = makeRequest(inst, sample_seed);
    serve::encodeRequest(msg); // resolves the ISA, stamps the cost id
    return serve::storeKeyFor(msg);
}

/** An Ok answer with the expected origin and exactly these values. */
bool
answerMatches(const serve::ResponseMsg& r, serve::ServedFrom from,
              const std::vector<double>& want)
{
    return r.status == serve::ResponseStatus::Ok && r.servedFrom == from &&
           bitIdentical(r.landscape.reconstructed, want);
}

serve::ServeCounters
daemonCounters(serve::ServeClient& client)
{
    serve::RequestMsg msg;
    msg.kind = serve::RequestKind::Stats;
    const serve::ResponseMsg r = client.call(std::move(msg));
    if (r.status != serve::ResponseStatus::Stats)
        throw std::runtime_error("oscar-serve: no stats");
    return r.counters;
}

/** The daemon store's hit ratio over the lookups between two snapshots. */
void
recordHitRatio(const serve::ServeCounters& before,
               const serve::ServeCounters& after, Report& report)
{
    const std::uint64_t hits = after.store.hits - before.store.hits;
    const std::uint64_t lookups = hits + after.store.misses -
                                  before.store.misses;
    if (lookups > 0)
        report.count("store.hit_ratio", static_cast<double>(hits) /
                                            static_cast<double>(lookups));
}

// ------------------------------------------------- in-process and fleet

/** What one staged replay produced (trace mode). */
struct Staged
{
    Landscape landscape;
    SampleSet samples;
    std::size_t csIterations = 0;
    std::size_t queries = 0;
    double trialBest = 0.0;
};

/**
 * The pipeline stage by stage, each stage spanned: sample ->
 * submit/get -> csSolveFolded -> landscape -> interpolant + trial.
 * Mirrors Oscar::reconstruct's non-streaming path call for call.
 */
Staged
stagedReplay(const Instance& inst, std::uint64_t sample_seed,
             ExecutionEngine& engine, bool fleet, SpanLog& log)
{
    Staged out;
    const GridSpec& grid = inst.spec->grid;
    auto cost = inst.freshCost();
    const OscarOptions opts = inst.options(sample_seed);
    const ScopedSpan round(log, "core.round");
    {
        const ScopedSpan recon(log, "core.reconstruct", round.id());
        std::vector<std::size_t> indices;
        {
            const ScopedSpan s(log, "landscape.sample", recon.id());
            cost->configureKernel(opts.kernel);
            Rng rng(opts.seed);
            indices = chooseSampleIndices(grid.numPoints(),
                                          opts.samplingFraction, rng);
        }
        {
            const ScopedSpan s(log, fleet ? "dist.execute" : "backend.execute",
                               recon.id());
            out.samples = gatherCost(grid, *cost, indices, &engine);
        }
        CsSolveResult solve;
        {
            const ScopedSpan s(log, "cs.solve", recon.id());
            solve = csSolveFolded(grid.shape(), out.samples.indices,
                                  out.samples.values, opts.cs);
        }
        out.csIterations = solve.iterations;
        {
            const ScopedSpan s(log, "landscape.build", recon.id());
            out.landscape = Landscape(grid, std::move(solve.values));
        }
    }
    std::unique_ptr<CostFunction> interp;
    {
        const ScopedSpan s(log, "interp.build", round.id());
        interp = makeInterpolant(out.landscape);
    }
    {
        const ScopedSpan s(log, "optimize.trial", round.id());
        Adam adam;
        const OptimizerResult r =
            adam.minimize(*interp, trialStart(grid));
        out.queries = r.numQueries;
        out.trialBest = r.bestValue;
    }
    return out;
}

/**
 * dist.* counts of one batch, as per-batch samples; the share of points
 * run remotely must be the same for every batch.
 */
void
recordBatchCounts(const BatchStats& st, Report& report)
{
    const double points = static_cast<double>(std::max<std::size_t>(
        1, st.pointsTotal));
    report.sample("dist.steals_per_point",
                  static_cast<double>(st.shardsStolen) / points);
    report.sample("dist.requeued", static_cast<double>(st.shardsRequeued));
    report.exact("dist.remote_share",
                 static_cast<double>(st.pointsRemote) / points);
    report.sample("dist.wire_bytes_per_point",
                  static_cast<double>(st.bytesOnWireCompressed) / points);
    if (st.bytesOnWireRaw > 0)
        report.sample("dist.wire_ratio",
                      static_cast<double>(st.bytesOnWireCompressed) /
                          static_cast<double>(st.bytesOnWireRaw));
}

/**
 * The traced window: rounds of an untraced Oscar::reconstruct and a
 * staged replay of the same inputs, for `seconds` and at least twice.
 * Every staged landscape must equal both that reconstruction and
 * `want`, and every round must take as many solver iterations.
 */
void
tracedRounds(const Instance& inst, std::uint64_t sample_seed,
             ExecutionEngine& engine, bool fleet,
             const std::vector<double>& want, double seconds, Report& report,
             SpanLog& log)
{
    repeatFor(seconds, 2, [&] {
        attempt(report, "staged-replay", [&] {
            auto cost = inst.freshCost();
            const Clock::time_point t0 = Clock::now();
            const OscarResult r = Oscar::reconstruct(
                inst.spec->grid, *cost, inst.options(sample_seed), &engine);
            report.sample("untraced_reconstruct_s", secondsSince(t0));
            const Staged st =
                stagedReplay(inst, sample_seed, engine, fleet, log);
            report.exact("cs.iterations",
                         static_cast<double>(st.csIterations));
            report.count("backend.points",
                         static_cast<double>(st.samples.size()));
            report.sample("interp.queries", static_cast<double>(st.queries));
            if (fleet)
                recordBatchCounts(st.samples.stats, report);
            const std::vector<double>& got = st.landscape.values().flat();
            return bitIdentical(got, r.reconstructed.values().flat()) &&
                   bitIdentical(got, want) && std::isfinite(st.trialBest);
        });
    });
}

/**
 * Layer measurements outside the staged window: one forward + inverse
 * DCT at the folded shape, single-thread per-point evaluation,
 * 1-thread vs N-thread batch wall, the exact grid search, and store
 * put/load of the workload's landscape in a scratch store.
 */
void
measureLayers(const Instance& inst, const OscarResult& recon,
              std::uint64_t sample_seed, int threads, const std::string& scratch,
              Report& report, SpanLog& log)
{
    const GridSpec& grid = inst.spec->grid;
    const std::vector<std::size_t>& indices = recon.samples.indices;
    const store::StoredLandscape entry =
        toStored(grid, recon, inst.spec->fraction, sample_seed);
    const store::StoreKey key = storeKeyOf(inst, sample_seed);
    attempt(report, "cs.dct2d", [&] {
        const std::vector<std::size_t> folded = csFoldedShape(grid.shape());
        const Dct2d dct(folded[0], folded[1]);
        NdArray x(folded);
        Rng rng(7);
        for (double& v : x.flat())
            v = rng.uniform(-1.0, 1.0);
        NdArray back;
        repeatFor(0.2, 5, [&] {
            const ScopedSpan s(log, "cs.dct2d");
            back = dct.inverse(dct.forward(x));
        });
        double err = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i)
            err = std::max(err, std::abs(back[i] - x[i]));
        return err < 1e-9;
    });

    attempt(report, "quantum.eval", [&] {
        auto cost = inst.freshCost();
        const std::size_t n = std::min(kEvalPoints, indices.size());
        bool ok = true;
        for (std::size_t i = 0; i < n; ++i) {
            const std::vector<double> p = grid.pointAt(indices[i]);
            double v;
            {
                const ScopedSpan s(log, "quantum.eval");
                v = cost->evaluate(p);
            }
            ok = ok && std::isfinite(v);
        }
        return ok;
    });

    attempt(report, "backend.thread_scaling", [&] {
        ExecutionEngine one(inProcessEngine(1));
        ExecutionEngine many(inProcessEngine(threads));
        bool ok = true;
        // Twice on one thread: there the prefix cache sees the points in
        // one fixed order, so its hit ratio must repeat exactly.
        for (int i = 0; i < 2; ++i) {
            auto cost = inst.freshCost();
            SampleSet s1;
            {
                const ScopedSpan s(log, "backend.batch_1t");
                s1 = gatherCost(grid, *cost, indices, &one);
            }
            const KernelStats& k = s1.stats.kernel;
            report.exact("backend.prefix_hit_ratio",
                         k.cacheLookups
                             ? static_cast<double>(k.cacheHits) /
                                   static_cast<double>(k.cacheLookups)
                             : 0.0);
            ok = ok && bitIdentical(s1.values, recon.samples.values);
        }
        auto cost = inst.freshCost();
        SampleSet sn;
        {
            const ScopedSpan s(log, "backend.batch_nt");
            sn = gatherCost(grid, *cost, indices, &many);
        }
        return ok && bitIdentical(sn.values, recon.samples.values);
    });

    attempt(report, "backend.grid_search", [&] {
        ExecutionEngine engine(inProcessEngine(threads));
        bool ok = true;
        for (int i = 0; i < 2; ++i) {
            auto cost = inst.freshCost();
            Landscape truth;
            {
                const ScopedSpan s(log, "backend.grid_search");
                truth = Landscape::gridSearch(grid, *cost, &engine);
            }
            report.count("grid.points",
                         static_cast<double>(truth.numPoints()));
            const double q =
                nrmse(truth.values(), recon.reconstructed.values());
            report.exact("cs.nrmse", q);
            ok = ok && allFinite(truth.values().flat()) &&
                 matchesClosedForm(inst, truth) && std::isfinite(q) &&
                 q < 1.0 && samplesMatchTruth(recon, truth);
        }
        return ok;
    });

    attempt(report, "store.put_load", [&] {
        store::LandscapeStore st({scratch + "/layer-store"});
        bool ok = true;
        for (std::size_t i = 0; i < kStoreOps; ++i) {
            store::StoreKey k = key;
            k.costId += i; // distinct containers, same entry
            {
                const ScopedSpan s(log, "store.put");
                st.put(k, entry);
            }
            std::optional<store::StoredLandscape> got;
            {
                const ScopedSpan s(log, "store.load");
                got = st.load(k);
            }
            ok = ok && got && bitIdentical(got->reconstructed,
                                           entry.reconstructed);
        }
        std::error_code ec;
        report.count("store.entry_bytes",
                     static_cast<double>(fs::file_size(
                         st.containerPath(key), ec)));
        return ok;
    });
}

/**
 * dist.* on a workload that does not run the fleet: its sample batch on
 * a pool configured like `fleet`'s (one untimed batch starts it).
 */
void
measureFleetLayer(const Instance& inst, const OscarResult& recon,
                  std::uint64_t seed, Report& report, SpanLog& log)
{
    attempt(report, "dist.execute", [&] {
        ExecutionEngine fleet(fleetEngine(seed));
        const GridSpec& grid = inst.spec->grid;
        const std::vector<std::size_t>& indices = recon.samples.indices;
        auto warmup = inst.freshCost();
        bool ok = bitIdentical(
            gatherCost(grid, *warmup, indices, &fleet).values,
            recon.samples.values);
        for (int i = 0; i < kLayerFleetBatches; ++i) {
            auto cost = inst.freshCost();
            SampleSet s;
            {
                const ScopedSpan span(log, "dist.execute");
                s = gatherCost(grid, *cost, indices, &fleet);
            }
            recordBatchCounts(s.stats, report);
            ok = ok && s.stats.pointsRemote == s.stats.pointsTotal &&
                 bitIdentical(s.values, recon.samples.values);
        }
        return ok;
    });
}

/**
 * serve.* on a workload that does not run serve-mix: warm requests for
 * the workload's landscape, put into a fresh store before a child
 * oscar-serve opens it. Every lookup should hit, so store.hit_ratio
 * reads 1 here unless the store loses the entry.
 */
void
measureServeLayer(const Instance& inst, const OscarResult& recon,
                  std::uint64_t sample_seed, const std::string& scratch,
                  Report& report, SpanLog& log)
{
    attempt(report, "serve.warm", [&] {
        const std::string base = fs::relative(scratch).string();
        const std::string dir = base + "/layer-serve-store";
        {
            store::LandscapeStore st({dir});
            st.put(storeKeyOf(inst, sample_seed),
                   toStored(inst.spec->grid, recon, inst.spec->fraction,
                            sample_seed));
        }
        Daemon daemon(base + "/layer-serve.sock", dir);
        auto client = daemon.connect(20.0);
        const serve::RequestMsg msg = makeRequest(inst, sample_seed);
        const serve::ServeCounters before = daemonCounters(*client);
        bool ok = true;
        for (std::size_t i = 0; i < kLayerWarmRequests; ++i) {
            serve::RequestMsg m = msg;
            serve::ResponseMsg r;
            {
                const ScopedSpan span(log, "serve.warm");
                r = client->call(std::move(m));
            }
            ok = ok && answerMatches(r, serve::ServedFrom::Store,
                                     recon.reconstructed.values().flat());
        }
        recordHitRatio(before, daemonCounters(*client), report);
        return ok;
    });
}

int
runPipeline(const Args& args, const WorkloadSpec& spec, Report& report,
            SpanLog& log)
{
    const bool fleet = spec.kind == Kind::Fleet;
    const int cpus = hostCpus();
    const int threads = fleet ? 1 : cpus;
    labelHost(report, args, spec, cpus, threads,
              fleet ? kFleetWorkers * kFleetThreadsPerWorker : 0);

    const Instance inst = makeInstance(spec, args.seed);
    const GridSpec& grid = spec.grid;
    const OscarOptions opts = inst.options(inst.sampleSeed);
    const EngineOptions engine_opts =
        fleet ? fleetEngine(args.seed) : inProcessEngine(threads);
    const std::string scratch = args.outDir;

    // ---- set-up: engine (and fleet handshake) + a warm-up
    // reconstruction, several times; the last engine is kept.
    std::unique_ptr<ExecutionEngine> engine;
    std::optional<OscarResult> first;
    const int setups = args.trace ? 1 : kSetups;
    for (int s = 0; s < setups; ++s) {
        engine.reset();
        auto cost = inst.freshCost();
        attempt(report, "setup", [&] {
            const Clock::time_point t0 = Clock::now();
            engine = std::make_unique<ExecutionEngine>(engine_opts);
            OscarResult r = Oscar::reconstruct(grid, *cost, opts, engine.get());
            report.sample("setup_s", secondsSince(t0));
            const bool remote_ok =
                !fleet || r.execution.pointsRemote == r.execution.pointsTotal;
            if (first)
                return remote_ok &&
                       bitIdentical(r.reconstructed.values().flat(),
                                    first->reconstructed.values().flat());
            first = std::move(r);
            return remote_ok;
        });
    }
    if (!first || !engine)
        return 1;
    const OscarResult& warm = *first;
    const std::vector<double>& want = warm.reconstructed.values().flat();

    // ---- references (untimed): the fleet must reproduce the
    // in-process values bit for bit, and the exact landscape.
    std::optional<Landscape> truth;
    if (fleet) {
        attempt(report, "fleet-vs-in-process", [&] {
            ExecutionEngine local(inProcessEngine(cpus));
            auto cost = inst.freshCost();
            const OscarResult ref =
                Oscar::reconstruct(grid, *cost, opts, &local);
            auto gcost = inst.freshCost();
            truth = Landscape::gridSearch(grid, *gcost, &local);
            return bitIdentical(ref.reconstructed.values().flat(), want) &&
                   bitIdentical(ref.samples.values, warm.samples.values);
        });
    }

    if (args.trace) {
        // ---- traced window: untraced reconstruction + staged replay,
        // round after round; every staged result must equal it.
        tracedRounds(inst, inst.sampleSeed, *engine, fleet, want,
                     args.seconds, report, log);
        if (fleet) {
            // The in-process execute stage on the same inputs, so
            // backend.execute_s exists beside dist.execute_s.
            attempt(report, "backend.execute", [&] {
                ExecutionEngine local(inProcessEngine(cpus));
                auto cost = inst.freshCost();
                SampleSet s;
                {
                    const ScopedSpan span(log, "backend.execute");
                    s = gatherCost(grid, *cost, warm.samples.indices, &local);
                }
                return bitIdentical(s.values, warm.samples.values);
            });
        }
        measureLayers(inst, warm, inst.sampleSeed, cpus, scratch, report,
                      log);
        engine.reset();
        if (!fleet)
            measureFleetLayer(inst, warm, args.seed, report, log);
        measureServeLayer(inst, warm, inst.sampleSeed, scratch, report, log);
        return 0;
    }

    // ---- timed window (untraced).
    std::size_t cold_ops = 0;
    double cold_busy = 0.0;
    const TimedOp cold{kColdShare, [&] {
        auto cost = inst.freshCost();
        attempt(report, "reconstruct", [&] {
            const Clock::time_point t0 = Clock::now();
            const OscarResult r =
                Oscar::reconstruct(grid, *cost, opts, engine.get());
            const double dt = secondsSince(t0);
            report.sample("cold_s", dt);
            cold_busy += dt;
            ++cold_ops;
            if (fleet) {
                const BatchStats& st = r.execution;
                report.sample("dist.steals_per_point",
                              static_cast<double>(st.shardsStolen) /
                                  static_cast<double>(st.pointsTotal));
                if (st.pointsRemote != st.pointsTotal)
                    return false;
            }
            return bitIdentical(r.reconstructed.values().flat(), want);
        });
    }};

    const store::StoredLandscape entry =
        toStored(grid, warm, spec.fraction, inst.sampleSeed);
    const store::StoreKey key = storeKeyOf(inst, inst.sampleSeed);
    store::LandscapeStore st({scratch + "/warm-store"});
    st.put(key, entry);
    const TimedOp reuse{kWarmShare, [&] {
        attempt(report, "store_load", [&] {
            const Clock::time_point t0 = Clock::now();
            const std::optional<store::StoredLandscape> got = st.load(key);
            report.sample("warm_s", secondsSince(t0));
            return got && bitIdentical(got->reconstructed, want) &&
                   bitIdentical(got->sampleValues, entry.sampleValues);
        });
    }};

    GridOp exact{inst, *engine, truth, warm, report};
    TrialOp trial{report, makeInterpolant(warm.reconstructed),
                  trialStart(grid), std::nullopt};
    interleave({cold, {kGridShare, std::ref(exact)}, reuse,
                {kTrialShare, std::ref(trial)}},
               args.seconds);
    // The cold_s samples again, as a mean rate: not a second measurement.
    report.count("throughput_per_s",
                 static_cast<double>(cold_ops) / cold_busy);
    engine.reset();
    return 0;
}

// ------------------------------------------------------------ serve-mix

/**
 * serve-mix: a closed loop of kServeClients connections against a
 * child oscar-serve (default options: 2 job threads) with a fresh
 * store. Three requests in four repeat one of kWarmKeys stored keys;
 * one in four asks for a fresh sampling seed (cold compute + store
 * write). Warm answers are checked against in-process references as
 * they arrive, cold ones after the window.
 */
int
runServe(const Args& args, const WorkloadSpec& spec, Report& report,
         SpanLog& log)
{
    const int cpus = hostCpus();
    labelHost(report, args, spec, cpus, kServeClients, 0);
    const Instance inst = makeInstance(spec, args.seed);
    const GridSpec& grid = spec.grid;

    Rng rng(args.seed ^ 0x5e7fe5eedULL);
    std::vector<std::uint64_t> warm_seeds(kWarmKeys);
    for (std::uint64_t& s : warm_seeds)
        s = rng();

    // ---- references (untimed): in-process reconstructions of every
    // warm key, and the exact landscape.
    std::vector<OscarResult> refs;
    std::optional<Landscape> truth;
    {
        ExecutionEngine local(inProcessEngine(cpus));
        for (const std::uint64_t s : warm_seeds) {
            auto cost = inst.freshCost();
            refs.push_back(
                Oscar::reconstruct(grid, *cost, inst.options(s), &local));
        }
        auto cost = inst.freshCost();
        truth = Landscape::gridSearch(grid, *cost, &local);
    }
    report.outcome(matchesClosedForm(inst, *truth), "exact landscape");

    // Relative paths keep the socket under sun_path's 108 bytes however
    // deep the checkout is.
    const std::string base = fs::relative(args.outDir).string();
    std::unique_ptr<Daemon> daemon;
    const int setups = args.trace ? 1 : kSetups;
    for (int s = 0; s < setups; ++s) {
        daemon.reset();
        const std::string store_dir = base + "/serve-store-" + std::to_string(s);
        attempt(report, "setup", [&] {
            const Clock::time_point t0 = Clock::now();
            daemon = std::make_unique<Daemon>(base + "/serve.sock", store_dir);
            // Pre-fill: every warm key once, over the clients'
            // connections in parallel.
            std::atomic<bool> ok{true};
            std::vector<std::thread> fill;
            for (int c = 0; c < kServeClients; ++c) {
                fill.emplace_back([&, c] {
                    try {
                        auto client = daemon->connect(20.0);
                        for (int k = c; k < kWarmKeys; k += kServeClients) {
                            const serve::ResponseMsg r = client->call(
                                makeRequest(inst, warm_seeds[k]));
                            if (!answerMatches(
                                    r, serve::ServedFrom::Computed,
                                    refs[k].reconstructed.values().flat()))
                                ok = false;
                        }
                    } catch (const std::exception&) {
                        ok = false;
                    }
                });
            }
            for (std::thread& t : fill)
                t.join();
            report.sample("setup_s", secondsSince(t0));
            return ok.load();
        });
    }
    if (!daemon)
        return 1;

    auto admin = daemon->connect(20.0);
    const serve::ServeCounters before = daemonCounters(*admin);

    // ---- the closed loop, in kServeSegments segments. Untraced runs
    // time the grid search and trials between segments, while the
    // clients pause, so their samples spread over the whole run too.
    struct Cold
    {
        std::uint64_t seed;
        std::vector<double> values;
    };
    struct Client
    {
        std::unique_ptr<serve::ServeClient> conn;
        Rng pick;
        Rng fresh;
        std::size_t sent = 0;
    };
    std::vector<Client> clients;
    for (int c = 0; c < kServeClients; ++c) {
        const auto id = static_cast<std::uint64_t>(c);
        clients.push_back({daemon->connect(20.0), Rng(args.seed * 31 + id),
                           Rng(args.seed ^ (0xC01DULL << 32) ^ id)});
    }
    std::mutex cold_mutex;
    std::vector<Cold> colds;
    std::atomic<std::size_t> completed{0};
    std::atomic<std::size_t> cold_sent{0};

    // One client's requests until `deadline`: every kColdEvery-th is
    // cold (staggered across clients), the rest repeat a stored key.
    const auto request_loop = [&](std::size_t c, Clock::time_point deadline) {
        Client& cl = clients[c];
        while (Clock::now() < deadline) {
            const bool cold =
                (cl.sent++ + c) % kColdEvery == kColdEvery - 1;
            const std::size_t k = cl.pick.uniformInt(kWarmKeys);
            const std::uint64_t seed = cold ? cl.fresh() : warm_seeds[k];
            serve::RequestMsg msg = makeRequest(inst, seed);
            if (cold)
                cold_sent++;
            const bool ok = attempt(
                report, cold ? "cold request" : "warm request", [&] {
                    serve::ResponseMsg r;
                    {
                        const ScopedSpan s(log,
                                           cold ? "serve.cold" : "serve.warm");
                        const Clock::time_point t0 = Clock::now();
                        r = cl.conn->call(std::move(msg));
                        report.sample(cold ? "cold_s" : "warm_s",
                                      secondsSince(t0));
                    }
                    if (!cold)
                        return answerMatches(
                            r, serve::ServedFrom::Store,
                            refs[k].reconstructed.values().flat());
                    if (r.status != serve::ResponseStatus::Ok ||
                        r.servedFrom != serve::ServedFrom::Computed)
                        return false;
                    std::lock_guard<std::mutex> lock(cold_mutex);
                    colds.push_back(
                        {seed, std::move(r.landscape.reconstructed)});
                    return true;
                });
            if (ok)
                completed++;
        }
    };

    ExecutionEngine engine(inProcessEngine(cpus));
    // The request's grid is small (1800 points at 10 qubits, ~2 ms on
    // the threaded engine), so thread hand-off would decide its time;
    // one thread measures the grid search itself.
    ExecutionEngine serial(inProcessEngine(1));
    GridOp exact{inst, serial, truth, refs[0], report};
    TrialOp trial{report, makeInterpolant(refs[0].reconstructed),
                  trialStart(grid), std::nullopt};
    const int segments = args.trace ? 2 : kServeSegments;
    const double loop_s =
        (args.trace ? 0.6 : kServeShare) * args.seconds / segments;
    double loop_wall = 0.0;
    serve::ServeCounters seg_before = before;
    for (int seg = 0; seg < segments; ++seg) {
        const std::size_t cold_before = cold_sent.load();
        const Clock::time_point t0 = Clock::now();
        const Clock::time_point deadline =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(loop_s));
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients.size(); ++c)
            threads.emplace_back(request_loop, c, deadline);
        for (std::thread& t : threads)
            t.join();
        loop_wall += secondsSince(t0);
        // Fresh seeds never repeat, so every cold request of every
        // segment costs the daemon exactly one evaluation.
        const serve::ServeCounters seg_after = daemonCounters(*admin);
        const std::size_t seg_colds = cold_sent.load() - cold_before;
        if (seg_colds > 0)
            report.exact("serve.evaluations_per_cold",
                         static_cast<double>(seg_after.evaluations -
                                             seg_before.evaluations) /
                             static_cast<double>(seg_colds));
        seg_before = seg_after;
        if (!args.trace)
            interleave({{0.5, std::ref(exact)}, {0.5, std::ref(trial)}},
                       (1.0 - kServeShare) * args.seconds / segments);
    }
    report.count("throughput_per_s",
                 static_cast<double>(completed.load()) / loop_wall);

    recordHitRatio(before, seg_before, report);
    admin.reset();
    clients.clear();
    daemon.reset(); // drain + reap before the in-process phases

    bool quality_ok = true;
    for (const OscarResult& r : refs)
        quality_ok = quality_ok &&
                     nrmse(truth->values(), r.reconstructed.values()) < 1.0 &&
                     samplesMatchTruth(r, *truth);
    report.outcome(quality_ok, "nrmse");

    if (args.trace) {
        tracedRounds(inst, warm_seeds[0], engine, false,
                     refs[0].reconstructed.values().flat(),
                     0.2 * args.seconds, report, log);
        // Layers on the first stored entry (bit-identical to the one
        // the daemon serves for that key).
        measureLayers(inst, refs[0], warm_seeds[0], cpus, args.outDir,
                      report, log);
        measureFleetLayer(inst, refs[0], args.seed, report, log);
    }

    // ---- cold answers, checked after the window against fresh
    // in-process reconstructions of the same keys.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> checkers;
    for (int t = 0; t < cpus; ++t) {
        checkers.emplace_back([&] {
            ExecutionEngine serial(inProcessEngine(1));
            for (std::size_t i = next++; i < colds.size(); i = next++) {
                bool ok = false;
                try {
                    auto cost = inst.independentCost();
                    const OscarResult r = Oscar::reconstruct(
                        grid, *cost, inst.options(colds[i].seed), &serial);
                    ok = bitIdentical(r.reconstructed.values().flat(),
                                      colds[i].values);
                } catch (const std::exception&) {
                }
                if (!ok)
                    report.outcome(false, "cold answer differs from an "
                                          "in-process reconstruction");
            }
        });
    }
    for (std::thread& t : checkers)
        t.join();
    report.count("cold_checked", static_cast<double>(colds.size()));
    return 0;
}

// ----------------------------------------------------------------- main

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "solve-heavy|execute-heavy|fleet|serve-mix --seed N "
                 "--seconds S --trace 0|1 --out DIR\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string val = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0')
                usage("--seed: expected an unsigned integer");
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(a.seconds > 0.0) ||
                a.seconds > 120.0)
                usage("--seconds: expected a number in (0, 120]");
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace: expected 0 or 1");
            a.trace = val == "1";
        } else if (flag == "--out") {
            a.outDir = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || a.outDir.empty())
        usage("--workload, --seed and --out are required");
    return a;
}

/** Hermetic runs: no OSCAR_* setting inherited from the environment. */
void
clearOscarEnv()
{
    std::vector<std::string> names;
    for (char** e = environ; *e; ++e) {
        const std::string entry = *e;
        if (entry.rfind("OSCAR_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string& n : names)
        ::unsetenv(n.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    const std::optional<WorkloadSpec> spec = findWorkload(args.workload);
    if (!spec)
        usage(("unknown workload " + args.workload).c_str());
    clearOscarEnv();
    ::signal(SIGPIPE, SIG_IGN);

    Report report;
    SpanLog log(args.trace);
    int rc = 0;
    try {
        fs::create_directories(args.outDir);
        rc = spec->kind == Kind::Serve ? runServe(args, *spec, report, log)
                                       : runPipeline(args, *spec, report, log);
    } catch (const std::exception& e) {
        report.outcome(false, std::string("run aborted: ") + e.what());
        rc = 1;
    }
    std::printf("%s\n", report.json(log).c_str());
    return rc;
}
