/// Loopback farm end-to-end: real forked worker daemons on Unix-domain
/// sockets serving a real EvolutionEngine search through the remote
/// backend. The headline guarantees under test:
///
///   - fault-free remote trajectory == in-process trajectory, exactly;
///   - SIGKILLing a worker (daemon + its session children) mid-run is
///     absorbed by redispatch with zero trajectory perturbation;
///   - losing every worker degrades to local evaluation, the search
///     still finishes, and the trajectory is still identical;
///   - injected farm faults (disconnect / delay / truncate / garbage)
///     settle as the documented deterministic penalties and counters,
///     over remote daemons and the isolated backend's local forks alike.

#include "farm/server.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "core/engine.h"
#include "core/portfolio.h"
#include "ir/parser.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"
#include "support/strings.h"

namespace gevo::core {
namespace {

/// Same toy optimization target as test_eval_backend.cpp: a pointless
/// scratch-zeroing loop dominates the runtime.
constexpr const char* kToyKernel = R"(
kernel @toy params 1 regs 24 shared 512 local 0 {
entry:
    r1 = tid
    r2 = mov 0
    br memset
memset:
    r3 = mul.i32 r2, 4
    r4 = cvt.i32.i64 r3
    st.i32.shared r4, 0
    r2 = add.i32 r2, 1
    r5 = cmp.lt.i32 r2, 96
    brc r5, memset, work
work:
    r6 = mul.i32 r1, 2
    r7 = cvt.i32.i64 r1
    r8 = mul.i64 r7, 4
    r9 = add.i64 r0, r8
    st.i32.global r9, r6
    ret
}
)";

class ToyFitness : public FitnessFunction {
  public:
    FitnessResult
    evaluate(const CompiledVariant& variant) const override
    {
        return evaluateOn(variant, sim::p100());
    }

    FitnessResult
    evaluateOn(const CompiledVariant& variant,
               const sim::DeviceConfig& dev) const override
    {
        const auto* prog = variant.programs.find("toy");
        if (prog == nullptr)
            return FitnessResult::fail("kernel missing");
        sim::DeviceMemory mem(1 << 16);
        const auto out = mem.alloc(64 * 4);
        const auto res = sim::launchKernel(
            dev, mem, *prog, {1, 64}, {static_cast<std::uint64_t>(out)});
        if (!res.ok())
            return FitnessResult::fail(res.fault.detail);
        for (int t = 0; t < 64; ++t) {
            if (mem.read<std::int32_t>(out + t * 4) != t * 2)
                return FitnessResult::fail("wrong output");
        }
        return FitnessResult::pass(res.stats.ms, res.stats);
    }

    std::string name() const override { return "toy"; }
};

ir::Module
toyModule()
{
    auto res = ir::parseModule(kToyKernel);
    EXPECT_TRUE(res.ok) << res.error;
    return std::move(res.module);
}

EvolutionParams
smallParams()
{
    EvolutionParams params;
    params.populationSize = 10;
    params.generations = 5;
    params.elitism = 2;
    params.seed = 7;
    params.threads = 2;
    return params;
}

/// Scoped GEVO_FAULT_INJECT setting. Farm faults fire in the worker
/// sessions, which inherit the environment from the daemon fork — so
/// this must be in effect *before* the daemons are forked.
class ScopedFaultInject {
  public:
    explicit ScopedFaultInject(const char* spec)
    {
        ::setenv("GEVO_FAULT_INJECT", spec, 1);
    }
    ~ScopedFaultInject() { ::unsetenv("GEVO_FAULT_INJECT"); }
};

void
expectSameTrajectory(const SearchResult& a, const SearchResult& b)
{
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t g = 0; g < a.history.size(); ++g) {
        const GenerationLog& la = a.history[g];
        const GenerationLog& lb = b.history[g];
        EXPECT_EQ(la.generation, lb.generation);
        EXPECT_EQ(la.bestMs, lb.bestMs) << "gen " << la.generation;
        EXPECT_EQ(la.meanMs, lb.meanMs) << "gen " << la.generation;
        EXPECT_EQ(la.validCount, lb.validCount) << "gen " << la.generation;
        EXPECT_EQ(la.evaluations, lb.evaluations)
            << "gen " << la.generation;
        EXPECT_EQ(la.islandBestMs, lb.islandBestMs)
            << "gen " << la.generation;
        EXPECT_EQ(mut::serializeEdits(la.bestEdits),
                  mut::serializeEdits(lb.bestEdits))
            << "gen " << la.generation;
    }
    EXPECT_EQ(mut::serializeEdits(a.best.edits),
              mut::serializeEdits(b.best.edits));
    EXPECT_EQ(a.best.fitness.ms(), b.best.fitness.ms());
}

/// One forked worker daemon (plus the session children it forks, all in
/// its own process group) serving the toy workload on a Unix socket.
class ToyWorker {
  public:
    ToyWorker(const ir::Module& mod, const FitnessFunction& fitness)
    {
        static int counter = 0;
        const std::string tag =
            strformat("/tmp/gevo_farm_e2e_%d_%d", ::getpid(), counter++);
        socketPath_ = tag + ".sock";
        readyPath_ = tag + ".ready";
        pid_ = ::fork();
        EXPECT_NE(pid_, -1);
        if (pid_ == -1)
            return;
        if (pid_ == 0) {
            // Own process group: SIGKILLing it takes the session
            // children down with the daemon, like killing a remote box.
            ::setpgid(0, 0);
            farm::ServerOptions opts;
            opts.listenSpec = "unix:" + socketPath_;
            opts.readyFile = readyPath_;
            opts.banner = "toy e2e worker";
            ::_Exit(farm::runWorkerServer(mod, fitness, opts));
        }
        ::setpgid(pid_, pid_); // Parent side of the same race.
        for (int i = 0; i < 750 && ::access(readyPath_.c_str(), F_OK) != 0;
             ++i)
            ::usleep(20 * 1000);
        EXPECT_EQ(::access(readyPath_.c_str(), F_OK), 0)
            << "worker daemon never came up";
    }

    ~ToyWorker() { kill(); }

    /// SIGKILL the daemon and every session child — no goodbye frames,
    /// exactly like pulling a farm machine's plug.
    void
    kill()
    {
        if (pid_ == -1)
            return;
        ::kill(-pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        // Session children were reparented to init; wait until the whole
        // process group is gone so their sockets are really closed —
        // otherwise the client's next dispatch can land in a dying
        // session's buffer and turn a clean connection-refused into a
        // raced half-delivery.
        for (int i = 0; i < 750 && ::kill(-pid_, 0) == 0; ++i)
            ::usleep(2 * 1000);
        pid_ = -1;
        ::unlink(socketPath_.c_str());
        ::unlink(readyPath_.c_str());
    }

    std::string spec() const { return "unix:" + socketPath_; }

  private:
    pid_t pid_ = -1;
    std::string socketPath_;
    std::string readyPath_;
};

std::string
workerList(const std::vector<ToyWorker*>& workers)
{
    std::string out;
    for (const auto* w : workers) {
        if (!out.empty())
            out += ',';
        out += w->spec();
    }
    return out;
}

struct FailureTally {
    std::size_t crashes = 0;
    std::size_t timeouts = 0;
    std::size_t protocol = 0;
};

FailureTally
tally(const SearchResult& r)
{
    FailureTally t;
    for (const auto& log : r.history) {
        t.crashes += log.workerCrashes;
        t.timeouts += log.workerTimeouts;
        t.protocol += log.protocolErrors;
    }
    return t;
}

TEST(FarmE2E, RemoteMatchesInProcessTrajectory)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    ToyWorker w0(mod, fitness), w1(mod, fitness);
    for (const bool useCache : {true, false}) {
        auto params = smallParams();
        params.useCache = useCache;
        params.backend = EvalBackendKind::InProcess;
        const auto inProcess =
            EvolutionEngine(mod, fitness, params).run();
        params.backend = EvalBackendKind::Remote;
        params.workers = workerList({&w0, &w1});
        params.evalTimeoutMs = 10000;
        const auto remote = EvolutionEngine(mod, fitness, params).run();
        expectSameTrajectory(inProcess, remote);
        EXPECT_EQ(remote.evalFailures, 0u);
        EXPECT_EQ(remote.quarantined, 0u);
    }
}

TEST(FarmE2E, ParetoPortfolioRemoteMatchesInProcess)
{
    // Multi-objective selection over a device portfolio, served by real
    // remote workers: the v2 wire format must carry the full objective
    // vector with exact bits, or the Pareto ordering drifts.
    const auto mod = toyModule();
    ToyFitness toy;
    PortfolioFitness fitness(toy, {sim::p100(), sim::v100()});
    ToyWorker w0(mod, fitness), w1(mod, fitness);
    auto params = smallParams();
    params.selection = SelectionKind::Pareto;
    params.objectives = {Objective::Time, Objective::Sectors};
    params.backend = EvalBackendKind::InProcess;
    const auto inProcess = EvolutionEngine(mod, fitness, params).run();
    EXPECT_FALSE(inProcess.paretoFront.empty());

    params.backend = EvalBackendKind::Remote;
    params.workers = workerList({&w0, &w1});
    params.evalTimeoutMs = 10000;
    const auto remote = EvolutionEngine(mod, fitness, params).run();
    expectSameTrajectory(inProcess, remote);
    ASSERT_EQ(remote.paretoFront.size(), inProcess.paretoFront.size());
    for (std::size_t i = 0; i < remote.paretoFront.size(); ++i) {
        EXPECT_EQ(mut::serializeEdits(remote.paretoFront[i].edits),
                  mut::serializeEdits(inProcess.paretoFront[i].edits));
        EXPECT_EQ(remote.paretoFront[i].fitness.objectives,
                  inProcess.paretoFront[i].fitness.objectives);
    }
    EXPECT_EQ(remote.evalFailures, 0u);
}

TEST(FarmE2E, WorkerKilledMidRunIsAbsorbedByRedispatch)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = smallParams();
    params.backend = EvalBackendKind::InProcess;
    const auto inProcess = EvolutionEngine(mod, fitness, params).run();

    ToyWorker w0(mod, fitness), w1(mod, fitness);
    params.backend = EvalBackendKind::Remote;
    params.workers = workerList({&w0, &w1});
    params.evalTimeoutMs = 10000;
    const auto remote =
        EvolutionEngine(mod, fitness, params)
            .run([&](const GenerationLog& log, const SearchResult&) {
                if (log.generation == 2)
                    w1.kill();
            });
    expectSameTrajectory(inProcess, remote);
    EXPECT_EQ(remote.evalFailures, 0u);
    EXPECT_EQ(remote.quarantined, 0u);
}

TEST(FarmE2E, AllWorkersGoneDegradesToLocalEvaluation)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = smallParams();
    params.backend = EvalBackendKind::InProcess;
    const auto inProcess = EvolutionEngine(mod, fitness, params).run();

    ToyWorker w0(mod, fitness);
    params.backend = EvalBackendKind::Remote;
    params.workers = w0.spec();
    params.evalTimeoutMs = 10000;
    // The sole worker dies between generations; the client exhausts its
    // redial budget, then finishes the remaining generations in-process
    // — warn, don't abort, and don't perturb the trajectory.
    const auto remote =
        EvolutionEngine(mod, fitness, params)
            .run([&](const GenerationLog& log, const SearchResult&) {
                if (log.generation == 2)
                    w0.kill();
            });
    expectSameTrajectory(inProcess, remote);
    EXPECT_EQ(remote.evalFailures, 0u);
    EXPECT_EQ(remote.quarantined, 0u);
}

/// Injected farm faults strike the same evaluation on every redispatch
/// (the fault schedule is keyed on the request's sequence number, which
/// redispatch preserves), so two strikes settle it as exactly one
/// deterministic penalty of the documented kind.
struct FaultCase {
    const char* spec;
    std::size_t FailureTally::* counter;
    /// Per-evaluation deadline. Generous enough that a legitimate toy
    /// evaluation never trips it even on a loaded CI machine — only the
    /// injected fault can. The delay case keeps the smallest budget that
    /// is still safe, because the injected sleep (and so the test's wall
    /// clock) scales with it.
    std::uint32_t timeoutMs;
};

/// Run over both out-of-process backends: remote workerd daemons and
/// the isolated backend's local forks share the transport, so they meet
/// the same frame-level faults.
class FarmFaults
    : public ::testing::TestWithParam<std::tuple<FaultCase, EvalBackendKind>> {
};

TEST_P(FarmFaults, IsPenalizedOnceAndSearchCompletes)
{
    const auto& [fault, backend] = GetParam();
    const auto mod = toyModule();
    ToyFitness fitness;
    ScopedFaultInject inject(fault.spec); // Before any worker forks.
    auto params = smallParams();
    params.useCache = false; // Every individual dispatched, every gen.
    params.backend = backend;
    params.evalTimeoutMs = fault.timeoutMs;
    std::optional<ToyWorker> w0, w1;
    if (backend == EvalBackendKind::Remote) {
        w0.emplace(mod, fitness);
        w1.emplace(mod, fitness);
        params.workers = workerList({&*w0, &*w1});
    }
    const auto result = EvolutionEngine(mod, fitness, params).run();

    ASSERT_EQ(result.history.size(), params.generations);
    EXPECT_EQ(result.evalFailures, 1u);
    EXPECT_EQ(result.quarantined, 1u);
    const auto t = tally(result);
    EXPECT_EQ(t.*fault.counter, 1u) << fault.spec;
    EXPECT_EQ(t.crashes + t.timeouts + t.protocol, 1u) << fault.spec;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FarmFaults,
    ::testing::Combine(
        ::testing::Values(
            // Connection loss folds into the crash counter.
            FaultCase{"disconnect@7", &FailureTally::crashes, 10000},
            // A reply truncated mid-frame is indistinguishable from death.
            FaultCase{"truncate@7", &FailureTally::crashes, 10000},
            // A blown per-evaluation deadline is a timeout.
            FaultCase{"delay@7", &FailureTally::timeouts, 5000},
            // An undecodable byte stream is a protocol error.
            FaultCase{"garbage@7", &FailureTally::protocol, 10000}),
        ::testing::Values(EvalBackendKind::Remote,
                          EvalBackendKind::Isolated)),
    [](const auto& info) {
        const std::string spec = std::get<0>(info.param).spec;
        return spec.substr(0, spec.find('@')) +
               (std::get<1>(info.param) == EvalBackendKind::Remote
                    ? "_remote"
                    : "_isolated");
    });

} // namespace
} // namespace gevo::core
