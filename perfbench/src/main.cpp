/// Search-level benchmark: runs one workload as a full seeded
/// EvolutionEngine search and prints its end-to-end metrics (--trace 0),
/// or traces one search and replays its final populations layer by layer
/// to print the per-layer metrics (--trace 1). The last line of standard
/// output is one JSON object: {"correct", "attempted", "failed",
/// "metrics"}. perfbench/README.md explains the workloads and metrics.
///
/// Usage: perfbench --workload <name> --seed <n> --seconds <s>
///                  --trace <0|1> --work-dir <dir>

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "core/engine.h"
#include "core/portfolio.h"
#include "core/workload.h"
#include "mutation/edit.h"
#include "replay.h"
#include "stats.h"
#include "support/strings.h"
#include "trace.h"

using namespace gevo;
using namespace perfbench;

namespace {

/// Evaluation threads. On the 4-vCPU host the baseline was measured on, 3
/// pool threads leave the engine's serial work and the rest of the host a
/// core of their own (with 4, per-call wall time ran ~25% above CPU time
/// from preemption).
constexpr std::uint32_t kThreads = 3;
/// Per island. Larger than kThreads so every miss batch fills the pool.
constexpr std::uint32_t kPopulation = 32;
/// Set-ups per run (at least this many, and more while they take under
/// kSetupSeconds in total); setup_s is their median.
constexpr std::size_t kMinSetups = 15;
constexpr double kSetupSeconds = 1.0;
/// Span capacity of the traced search (one records a few thousand).
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

/// Run length the per-workload search counts are sized for.
constexpr double kDesignSeconds = 40.0;

struct WorkloadSpec {
    const char* name;
    const char* app; ///< Registry name.
    /// App scale knobs (the registry's own defaults where not named).
    std::map<std::string, std::string> knobs;
    const char* dataSeedKnob; ///< Dataset seed knob; nullptr = none.
    const char* devices;      ///< Portfolio device list; nullptr = one.
    /// Simulator instruction budget per thread and launch (0 = the device
    /// default, 4M). A variant over budget fails as a timeout, and costs
    /// host time in proportion to the budget.
    std::uint64_t instrBudget;
    std::uint32_t generations;
    /// Searches per kDesignSeconds of run, each on its own seed. A fixed
    /// count keeps a run's work a function of its seed alone.
    std::uint32_t searches;
    /// Checkpoint every generation and persist the cache at the app's
    /// default interval.
    bool persist;
    void (*configure)(core::EvolutionParams*);
};

// Why these three: see README.md ("Workloads").
const WorkloadSpec kWorkloads[] = {
    {"simcov-steady", "simcov", {}, "sim-seed", nullptr, 0, 8, 12, false,
     [](core::EvolutionParams*) {}},
    {"stencil-tail", "stencil", {{"grid", "16"}, {"steps", "3"}}, nullptr,
     nullptr, 1'000'000, 30, 22, true,
     [](core::EvolutionParams* p) {
         p->islands = 4;
         p->topology = core::TopologyKind::Ring;
         p->samplerKind = core::SamplerKind::Guided;
         p->adaptRates = true;
         p->checkpointInterval = 1;
     }},
    {"adept-isolated", "adept-v1",
     {{"pairs", "1"}, {"min-len", "48"}, {"max-len", "48"}}, "data-seed",
     "p100,v100", 1'000'000, 25, 10, false,
     [](core::EvolutionParams* p) {
         p->backend = core::EvalBackendKind::Isolated;
         p->selection = core::SelectionKind::Pareto;
         p->objectives = {core::Objective::Time, core::Objective::Sectors};
     }},
};

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workDir;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    std::map<std::string, std::string> kv;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            usage(("unexpected argument '" + key + "'").c_str());
        key = key.substr(2);
        std::string value;
        if (const auto eq = key.find('='); eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(("missing value for --" + key).c_str());
        }
        kv[key] = value;
    }
    for (const char* required :
         {"workload", "seed", "seconds", "trace", "work-dir"}) {
        if (kv.count(required) == 0)
            usage((std::string("missing --") + required).c_str());
    }
    Args a;
    a.workload = kv["workload"];
    char* end = nullptr;
    a.seed = std::strtoull(kv["seed"].c_str(), &end, 10);
    if (*end != '\0' || kv["seed"].empty())
        usage("--seed must be a non-negative integer");
    a.seconds = std::strtod(kv["seconds"].c_str(), &end);
    if (*end != '\0' || !(a.seconds > 0.0))
        usage("--seconds must be a positive number");
    if (kv["trace"] != "0" && kv["trace"] != "1")
        usage("--trace must be 0 or 1");
    a.trace = kv["trace"] == "1";
    a.workDir = kv["work-dir"];
    return a;
}

/// A built workload: app instance plus the optional device portfolio.
struct Instance {
    std::unique_ptr<core::WorkloadInstance> app;
    std::unique_ptr<core::PortfolioFitness> portfolio;

    const core::FitnessFunction&
    fitness() const
    {
        return portfolio ? *portfolio : app->fitness();
    }
};

Instance
buildInstance(const WorkloadSpec& spec, std::uint64_t seed)
{
    core::WorkloadConfig config;
    config.defaults = spec.knobs;
    if (spec.instrBudget != 0)
        config.device.maxInstrPerThread = spec.instrBudget;
    if (spec.dataSeedKnob != nullptr)
        config.defaults[spec.dataSeedKnob] = std::to_string(seed);
    Instance inst;
    inst.app = core::WorkloadRegistry::instance().get(spec.app).make(config);
    if (spec.devices != nullptr) {
        auto devices = sim::resolveDeviceList(spec.devices);
        for (auto& dev : devices) {
            if (spec.instrBudget != 0)
                dev.maxInstrPerThread = spec.instrBudget;
        }
        inst.portfolio = std::make_unique<core::PortfolioFitness>(
            inst.app->fitness(), std::move(devices));
    }
    return inst;
}

core::EvolutionParams
searchParams(const WorkloadSpec& spec, std::uint64_t seed,
             const std::string& workDir, bool persistForReplay)
{
    core::EvolutionParams p =
        core::WorkloadRegistry::instance().get(spec.app).searchDefaults;
    p.populationSize = kPopulation;
    p.generations = spec.generations;
    p.threads = kThreads;
    p.seed = seed;
    p.useCache = true;
    spec.configure(&p);
    if (spec.persist || persistForReplay) {
        p.checkpointPath = workDir + "/search.ckpt";
        p.cachePath = workDir + "/search.cache";
        if (!spec.persist) {
            // Replay input only: one save each, after the last generation.
            p.checkpointInterval = 0;
            p.cacheSaveInterval = 0;
        }
    }
    return p;
}

double
cpuSeconds()
{
    double total = 0.0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        ::getrusage(who, &ru);
        total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec +
                                     ru.ru_stime.tv_usec) /
                     1e6;
    }
    return total;
}

/// Setup = workload build + engine construction + baseline evaluation.
double
timeSetup(const WorkloadSpec& spec, std::uint64_t seed,
          const std::string& workDir, Instance* out)
{
    const std::int64_t start = nowNs();
    Instance inst = buildInstance(spec, seed);
    const core::EvolutionEngine engine(
        inst.app->module(), inst.fitness(),
        searchParams(spec, seed, workDir, false));
    const auto baseline =
        core::evaluateVariant(inst.app->module(), {}, inst.fitness());
    const double seconds = static_cast<double>(nowNs() - start) / 1e9;
    if (!baseline.valid) {
        std::fprintf(stderr, "perfbench: baseline fails its tests: %s\n",
                     baseline.failReason.c_str());
        std::exit(1);
    }
    *out = std::move(inst);
    return seconds;
}

/// The deterministic fields of the search history (the same fields an
/// evolve --dump-history file holds) plus the best individual.
std::string
historyDigest(const core::SearchResult& r)
{
    std::string text;
    for (const auto& log : r.history) {
        text += strformat("gen %u best %a mean %a valid %zu evals %zu qhits "
                          "%zu crash %zu timeout %zu protocol %zu islands",
                          log.generation, log.bestMs, log.meanMs,
                          log.validCount, log.evaluations,
                          log.quarantineHits, log.workerCrashes,
                          log.workerTimeouts, log.protocolErrors);
        for (const double ms : log.islandBestMs)
            text += strformat(" %a", ms);
        for (const auto& rt : log.islandRates)
            text += strformat(" rates %a %a %a %a %a %a", rt.wDelete,
                              rt.wCopy, rt.wMove, rt.wReplace, rt.wSwap,
                              rt.wOperand);
        if (log.paretoFrontSize != 0)
            text += strformat(" front %zu", log.paretoFrontSize);
        text += " edits " + mut::serializeEdits(log.bestEdits) + "\n";
    }
    text += "best";
    for (const double v : r.best.fitness.objectives)
        text += strformat(" %a", v);
    text += '\n';
    text += mut::serializeEdits(r.best.edits);
    return strformat("%016llx", static_cast<unsigned long long>(
                                    core::VariantCache::hashKey(text)));
}

std::size_t
requestsOf(const core::EvolutionParams& p)
{
    return static_cast<std::size_t>(p.populationSize) * p.islands *
           p.generations;
}

struct Rep {
    core::SearchResult result;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<std::int64_t> marks; ///< Run start, then each generation.
    std::string digest;
    std::size_t requests = 0; ///< Population x islands x generations.
    std::size_t evaluated = 0;
};

Rep
runSearch(const Instance& inst, const core::FitnessFunction& fitness,
          const core::EvolutionParams& p)
{
    // Every search starts cold: a persisted cache from the last one would
    // turn misses into hits.
    std::error_code ec;
    for (const auto& path : {p.checkpointPath, p.cachePath}) {
        if (!path.empty())
            std::filesystem::remove(path, ec);
    }
    Rep rep;
    core::EvolutionEngine engine(inst.app->module(), fitness, p);
    const double cpu0 = cpuSeconds();
    rep.marks.push_back(nowNs());
    rep.result = engine.run([&](const core::GenerationLog&,
                                const core::SearchResult&) {
        rep.marks.push_back(nowNs());
    });
    const std::int64_t end = nowNs();
    rep.cpuS = cpuSeconds() - cpu0;
    rep.wallS = static_cast<double>(end - rep.marks.front()) / 1e9;
    rep.digest = historyDigest(rep.result);
    rep.requests = requestsOf(p);
    rep.evaluated = rep.result.cacheSummary.evaluated;
    return rep;
}

/// Re-score the best edit list fresh (no cache) through the search's
/// fitness: it must pass the app oracle and reproduce the recorded
/// objective vector bit for bit. Returns a diagnostic, empty when it does.
std::string
checkBest(const Instance& inst, const core::SearchResult& r)
{
    const auto fresh = core::evaluateVariant(inst.app->module(),
                                             r.best.edits, inst.fitness());
    if (!fresh.valid)
        return "best edit list fails the app oracle when re-scored: " +
               fresh.failReason;
    if (!sameFitness(fresh, r.best.fitness))
        return "best edit list re-scores to a different objective vector";
    return {};
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

/// Print every metric for people, then the machine-readable result line.
void
report(bool correct, std::size_t attempted, std::size_t failed,
       const std::vector<Metric>& metrics)
{
    for (const auto& m : metrics)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::string json = strformat(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += strformat("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                          i ? ", " : "", metrics[i].name.c_str(),
                          metrics[i].value, metrics[i].unit);
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/// Search seed \p i of a run; disjoint across run seeds for i < 1000.
std::uint64_t
searchSeed(std::uint64_t runSeed, std::uint32_t i)
{
    return runSeed * 1000 + i;
}

int
runEndToEnd(const WorkloadSpec& spec, const Args& args)
{
    std::vector<double> setups;
    double setupTotal = 0.0;
    Instance inst;
    while (setups.size() < kMinSetups || setupTotal < kSetupSeconds) {
        setups.push_back(timeSetup(spec, args.seed, args.workDir, &inst));
        setupTotal += setups.back();
    }

    // Searches 0..count-1 on distinct seeds, then search 0 once more: the
    // repeat must reproduce its trajectory exactly.
    const auto count = static_cast<std::uint32_t>(std::max(
        1L, std::lround(spec.searches * args.seconds / kDesignSeconds)));
    std::vector<Rep> reps;
    for (std::uint32_t i = 0; i <= count; ++i) {
        const auto params = searchParams(
            spec, searchSeed(args.seed, i % count), args.workDir, false);
        reps.push_back(runSearch(inst, inst.fitness(), params));
    }

    bool correct = true;
    auto fail = [&](const std::string& why) {
        std::printf("FAIL: %s\n", why.c_str());
        correct = false;
    };
    // One search's rate depends on its trajectory (its cache hit rate, how
    // many variants hit the instruction budget), so rates are medians over
    // searches and generation times are pooled over all of them.
    std::size_t evaluated = 0;
    std::size_t failed = 0;
    std::vector<double> rps, cpuMs, speedups, genMs;
    std::string digests;
    for (std::uint32_t i = 0; i < reps.size(); ++i) {
        const Rep& rep = reps[i];
        std::vector<double> repGenMs;
        for (std::size_t g = 1; g < rep.marks.size(); ++g)
            repGenMs.push_back(
                static_cast<double>(rep.marks[g] - rep.marks[g - 1]) / 1e6);
        std::printf("search %u (seed %llu): digest %s, %.3f s wall, %.3f s "
                    "cpu, %zu evaluated, generation p50 %.1f ms p90 %.1f "
                    "ms, best %.4fx\n",
                    i, static_cast<unsigned long long>(
                           searchSeed(args.seed, i % count)),
                    rep.digest.c_str(), rep.wallS, rep.cpuS, rep.evaluated,
                    quantile(repGenMs, 0.5), quantile(repGenMs, 0.9),
                    rep.result.speedup());
        genMs.insert(genMs.end(), repGenMs.begin(), repGenMs.end());
        if (i < count) {
            speedups.push_back(rep.result.speedup());
            digests += rep.digest;
            if (const auto bad = checkBest(inst, rep.result); !bad.empty())
                fail(bad);
        }
        rps.push_back(static_cast<double>(rep.requests) / rep.wallS);
        cpuMs.push_back(rep.cpuS * 1e3 /
                        static_cast<double>(std::max<std::size_t>(
                            rep.evaluated, 1)));
        evaluated += rep.evaluated;
        failed += rep.result.evalFailures;
    }
    if (reps.back().digest != reps.front().digest)
        fail("repeated search diverged (digest " + reps.back().digest +
             " vs " + reps.front().digest + ")");
    std::printf("%s seed %llu: %zu searches, run digest %016llx, %zu "
                "generation samples, fail_rate %.6g (%zu of %zu "
                "evaluations)\n",
                spec.name, static_cast<unsigned long long>(args.seed),
                reps.size(),
                static_cast<unsigned long long>(
                    core::VariantCache::hashKey(digests)),
                genMs.size(),
                evaluated ? static_cast<double>(failed) /
                                static_cast<double>(evaluated)
                          : 0.0,
                failed, evaluated);
    report(correct, evaluated, failed,
           {
               {"requests_per_s", median(rps), "1/s"},
               {"gen_wall_ms_p50", quantile(genMs, 0.5), "ms"},
               {"gen_wall_ms_p90", quantile(genMs, 0.9), "ms"},
               {"cpu_ms_per_eval", median(cpuMs), "ms"},
               {"search_speedup",
                *std::max_element(speedups.begin(), speedups.end()),
                "ratio"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mb", peakRssMb(), "MB"},
           });
    return 0;
}

/// Per-generation cost account of the traced search, from its spans.
struct Ledger {
    double busyMs = 0.0;      ///< Worker request-span time.
    double idleMs = 0.0;      ///< Worker-slot time outside requests.
    double wallMs = 0.0;      ///< Sum of generation wall times.
    double serialMs = 0.0;    ///< Wall time with no worker request running.
    double stragglerMs = 0.0; ///< Tail with some worker already idle.
    double profileMs = 0.0;   ///< Elite profiling (guided sampler).
    double maxError = 0.0;    ///< Worst |busy + idle - T*wall| / T*wall.
};

/// Length of the union of \p intervals clipped to [lo, hi).
double
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
            std::int64_t lo, std::int64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    double len = 0.0;
    std::int64_t reach = lo;
    for (auto [a, b] : intervals) {
        a = std::max(a, reach);
        b = std::min(b, hi);
        if (b > a) {
            len += static_cast<double>(b - a);
            reach = b;
        }
    }
    return len;
}

/// Spans on \p mainTid are the engine thread's own serial work (the
/// baseline evaluation, elite profiling); every other thread or process
/// is one of the backend's workers.
Ledger
buildLedger(const std::vector<Span>& spans,
            const std::vector<std::int64_t>& marks, std::int32_t mainTid)
{
    using Interval = std::pair<std::int64_t, std::int64_t>;
    Ledger l;
    const double threads = kThreads;
    for (std::size_t g = 1; g < marks.size(); ++g) {
        const std::int64_t w0 = marks[g - 1];
        const std::int64_t w1 = marks[g];
        const auto wall = static_cast<double>(w1 - w0);
        double busy = 0.0;
        std::vector<Interval> all;
        std::map<std::int32_t, std::vector<Interval>> byWorker;
        for (const auto& s : spans) {
            if (s.startNs < w0 || s.startNs >= w1)
                continue;
            if (s.kind == SpanKind::Profile)
                l.profileMs += static_cast<double>(s.endNs - s.startNs) / 1e6;
            if (s.kind != SpanKind::Request || s.tid == mainTid)
                continue;
            busy += static_cast<double>(s.endNs - s.startNs);
            all.emplace_back(s.startNs, s.endNs);
            byWorker[s.tid].emplace_back(s.startNs, s.endNs);
        }
        // Idle is measured per worker slot, from that worker's own spans:
        // the part of the window it was not running a request, plus whole
        // windows for slots no worker used. Busy + idle = T x wall exactly
        // when every span lies inside its generation, no worker runs two
        // requests at once, and at most T workers ran.
        double idle = (threads - static_cast<double>(byWorker.size())) * wall;
        double stragglerLo = 0.0;
        double stragglerHi = 0.0;
        bool first = true;
        for (const auto& [tid, intervals] : byWorker) {
            idle += wall - unionLength(intervals, w0, w1);
            std::int64_t last = 0;
            for (const auto& iv : intervals)
                last = std::max(last, iv.second);
            const auto end = static_cast<double>(last);
            stragglerLo = first ? end : std::min(stragglerLo, end);
            stragglerHi = first ? end : std::max(stragglerHi, end);
            first = false;
        }
        l.maxError = std::max(l.maxError,
                              std::abs(busy + idle - threads * wall) /
                                  (threads * wall));
        l.busyMs += busy / 1e6;
        l.idleMs += idle / 1e6;
        l.wallMs += wall / 1e6;
        l.serialMs += (wall - unionLength(all, w0, w1)) / 1e6;
        l.stragglerMs += (stragglerHi - stragglerLo) / 1e6;
    }
    return l;
}

int
runTraced(const WorkloadSpec& spec, const Args& args)
{
    Instance inst;
    timeSetup(spec, args.seed, args.workDir, &inst);
    const auto params =
        searchParams(spec, searchSeed(args.seed, 0), args.workDir, true);
    bool correct = true;
    auto fail = [&](const std::string& why) {
        std::printf("FAIL: %s\n", why.c_str());
        correct = false;
    };

    // Search 0 untraced twice around the traced one. The first search of
    // a process runs measurably slower than later ones, so the overhead
    // compares the traced search with the second untraced one.
    const Rep warm = runSearch(inst, inst.fitness(), params);

    SpanLog log(kSpanCapacity);
    std::unique_ptr<TracingFitness> inner;
    std::unique_ptr<core::PortfolioFitness> tracedPortfolio;
    const core::FitnessFunction* scored = &inst.app->fitness();
    if (inst.portfolio) {
        inner = std::make_unique<TracingFitness>(inst.app->fitness(), log,
                                                 SpanKind::Sim);
        tracedPortfolio = std::make_unique<core::PortfolioFitness>(
            *inner, inst.portfolio->devices());
        scored = tracedPortfolio.get();
    }
    const TracingFitness outer(*scored, log, SpanKind::Request);
    const Rep traced = runSearch(inst, outer, params);
    const std::vector<Span> spans = log.spans();
    const Rep plain = runSearch(inst, inst.fitness(), params);

    std::printf("untraced digest %s, traced digest %s\n",
                plain.digest.c_str(), traced.digest.c_str());
    if (plain.digest != traced.digest || warm.digest != plain.digest)
        fail("tracing changed the search trajectory");
    if (log.dropped() != 0)
        fail(strformat("%llu spans dropped",
                       static_cast<unsigned long long>(log.dropped())));
    if (const auto bad = checkBest(inst, traced.result); !bad.empty())
        fail(bad);

    const Ledger ledger = buildLedger(
        spans, traced.marks,
        static_cast<std::int32_t>(::syscall(SYS_gettid)));
    const auto gens = static_cast<double>(traced.marks.size() - 1);
    std::printf("ledger: worker busy %.1f ms + idle %.1f ms vs %u x wall "
                "%.1f ms; worst generation off by %.3f%%\n",
                ledger.busyMs, ledger.idleMs, kThreads, ledger.wallMs,
                ledger.maxError * 100.0);
    if (ledger.maxError > 0.03)
        fail("ledger does not add up: busy + idle differs from threads x "
             "wall by more than 3%");
    const double rpsPlain =
        static_cast<double>(plain.requests) / plain.wallS;
    const double rpsTraced =
        static_cast<double>(traced.requests) / traced.wallS;
    std::printf("requests_per_s untraced %.2f, traced %.2f: tracing "
                "overhead %+.2f%%\n",
                rpsPlain, rpsTraced, (rpsPlain / rpsTraced - 1.0) * 100.0);

    std::vector<double> requestMs;
    double requestNs = 0.0, budgetNs = 0.0, simMs = 0.0;
    std::size_t invalid = 0, valid = 0, sims = 0;
    for (const auto& s : spans) {
        if (s.kind == SpanKind::Sim)
            ++sims;
        if (s.kind != SpanKind::Request)
            continue;
        const auto ns = static_cast<double>(s.endNs - s.startNs);
        requestMs.push_back(ns / 1e6);
        requestNs += ns;
        if (s.fail == FailClass::Budget)
            budgetNs += ns;
        if (s.valid) {
            ++valid;
            simMs += s.simMs;
        } else {
            ++invalid;
        }
    }
    const auto requests = static_cast<double>(requestMs.size());
    std::size_t hits = 0, misses = 0;
    for (const auto& g : traced.result.history) {
        hits += g.cacheHits;
        misses += g.cacheMisses;
    }

    ReplayInputs in;
    in.module = &inst.app->module();
    in.fitness = &inst.fitness();
    in.appFitness = &inst.app->fitness();
    in.params = params;
    in.checkpointPath = params.checkpointPath;
    in.cachePath = params.cachePath;
    in.workDir = args.workDir;
    const ReplayResult replay = replayLayers(in);
    if (!replay.error.empty())
        fail(replay.error);
    auto rm = [&](const char* name) {
        const auto it = replay.metrics.find(name);
        return it == replay.metrics.end() ? 0.0 : it->second;
    };

    const std::size_t attempted =
        warm.evaluated + traced.evaluated + plain.evaluated;
    const std::size_t failed = warm.result.evalFailures +
                               traced.result.evalFailures +
                               plain.result.evalFailures;
    report(correct, attempted, failed,
           {
               {"engine.occupancy",
                ledger.busyMs / (kThreads * ledger.wallMs), "share"},
               {"engine.serial_ms_per_gen", ledger.serialMs / gens, "ms"},
               {"engine.straggler_ms_per_gen", ledger.stragglerMs / gens,
                "ms"},
               {"breed.us_per_child", rm("breed.us_per_child"), "us"},
               {"breed.edits_per_individual",
                rm("breed.edits_per_individual"), "count"},
               {"breed.profile_ms_per_gen", ledger.profileMs / gens, "ms"},
               {"cache.hit_rate",
                static_cast<double>(hits) /
                    static_cast<double>(hits + misses),
                "share"},
               {"cache.key_us_per_request", rm("cache.key_us_per_request"),
                "us"},
               {"compile.us_per_variant", rm("compile.us_per_variant"),
                "us"},
               {"patch.us_per_variant", rm("patch.us_per_variant"), "us"},
               {"verify.us_per_variant", rm("verify.us_per_variant"), "us"},
               {"cleanup.us_per_variant", rm("cleanup.us_per_variant"),
                "us"},
               {"decode.us_per_variant", rm("decode.us_per_variant"), "us"},
               {"compile.reject_rate", rm("compile.reject_rate"), "share"},
               {"score.ms_per_eval_p50", quantile(requestMs, 0.5), "ms"},
               {"score.ms_per_eval_p99", quantile(requestMs, 0.99), "ms"},
               {"score.budget_timeout_share",
                requestNs > 0.0 ? budgetNs / requestNs : 0.0, "share"},
               {"score.ns_per_warp_instr", rm("score.ns_per_warp_instr"),
                "ns"},
               {"score.invalid_rate", static_cast<double>(invalid) / requests,
                "share"},
               {"score.sim_ms_per_eval",
                valid ? simMs / static_cast<double>(valid) : 0.0, "sim_ms"},
               {"portfolio.sims_per_request",
                inst.portfolio ? static_cast<double>(sims) / requests : 1.0,
                "count"},
               {"pareto.sort_us_per_gen", rm("pareto.sort_us_per_gen"),
                "us"},
               {"backend.batch_overhead_ms", rm("backend.batch_overhead_ms"),
                "ms"},
               {"wire.bytes_per_eval", rm("wire.bytes_per_eval"), "bytes"},
               {"wire.codec_us_per_eval", rm("wire.codec_us_per_eval"),
                "us"},
               {"persist.checkpoint_ms", rm("persist.checkpoint_ms"), "ms"},
               {"persist.checkpoint_mb", rm("persist.checkpoint_mb"), "MB"},
               {"persist.cache_save_ms", rm("persist.cache_save_ms"), "ms"},
               {"persist.cache_mb", rm("persist.cache_mb"), "MB"},
               {"trace.overhead_share", rpsPlain / rpsTraced - 1.0,
                "share"},
               {"trace.ledger_error", ledger.maxError, "share"},
           });
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // An isolated worker dying mid-write must surface as a write error
    // the backend handles, not as a SIGPIPE death of the benchmark.
    std::signal(SIGPIPE, SIG_IGN);
    const Args args = parseArgs(argc, argv);
    apps::registerBuiltinWorkloads();
    for (const auto& spec : kWorkloads) {
        if (args.workload == spec.name)
            return args.trace ? runTraced(spec, args)
                              : runEndToEnd(spec, args);
    }
    usage(("unknown workload '" + args.workload + "'").c_str());
}
