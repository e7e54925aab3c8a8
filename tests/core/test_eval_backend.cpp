/// Evaluation-backend seam: in-process vs isolated trajectory equality,
/// and crash/hang/garbage fault handling — a variant that takes its
/// worker down must be penalized and quarantined while the search runs
/// to completion.

#include "core/eval_backend.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>

#include <sys/wait.h>

#include "core/engine.h"
#include "ir/parser.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"

namespace gevo::core {
namespace {

/// Same toy optimization target as test_engine.cpp: a pointless
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
        const auto* prog = variant.programs.find("toy");
        if (prog == nullptr)
            return FitnessResult::fail("kernel missing");
        sim::DeviceMemory mem(1 << 16);
        const auto out = mem.alloc(64 * 4);
        const auto res = sim::launchKernel(
            sim::p100(), mem, *prog, {1, 64},
            {static_cast<std::uint64_t>(out)});
        if (!res.ok())
            return FitnessResult::fail(res.fault.detail);
        for (int t = 0; t < 64; ++t) {
            if (mem.read<std::int32_t>(out + t * 4) != t * 2)
                return FitnessResult::fail("wrong output");
        }
        return FitnessResult::pass(res.stats.ms);
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

/// Scoped GEVO_FAULT_INJECT setting (the backend re-reads it at
/// construction, i.e. inside EvolutionEngine::run).
class ScopedFaultInject {
  public:
    explicit ScopedFaultInject(const char* spec)
    {
        ::setenv("GEVO_FAULT_INJECT", spec, 1);
    }
    ~ScopedFaultInject() { ::unsetenv("GEVO_FAULT_INJECT"); }
};

/// The deterministic trajectory fields of two runs must agree exactly;
/// cacheHits/cacheMisses are deliberately not compared (they can wobble
/// under concurrency and are not part of the trajectory).
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

std::size_t
totalFailures(const SearchResult& r)
{
    std::size_t n = 0;
    for (const auto& log : r.history)
        n += log.workerCrashes + log.workerTimeouts + log.protocolErrors;
    return n;
}

TEST(EvalBackend, FailureNames)
{
    EXPECT_EQ(evalFailureName(EvalFailure::WorkerCrash), "crash");
    EXPECT_EQ(evalFailureName(EvalFailure::WorkerTimeout), "timeout");
    EXPECT_EQ(evalFailureName(EvalFailure::ProtocolError), "protocol");
}

TEST(EvalBackend, IsolatedMatchesInProcessTrajectory)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    for (const bool useCache : {true, false}) {
        auto params = smallParams();
        params.useCache = useCache;
        params.backend = EvalBackendKind::InProcess;
        const auto inProcess =
            EvolutionEngine(mod, fitness, params).run();
        params.backend = EvalBackendKind::Isolated;
        const auto isolated =
            EvolutionEngine(mod, fitness, params).run();
        expectSameTrajectory(inProcess, isolated);
        EXPECT_EQ(isolated.evalFailures, 0u);
        EXPECT_EQ(isolated.quarantined, 0u);
    }
}

TEST(EvalBackend, CrashIsPenalizedQuarantinedAndSearchCompletes)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    ScopedFaultInject fault("crash@4");
    auto params = smallParams();
    params.backend = EvalBackendKind::Isolated;
    const auto result = EvolutionEngine(mod, fitness, params).run();

    ASSERT_EQ(result.history.size(), params.generations);
    EXPECT_EQ(totalFailures(result), 1u);
    EXPECT_EQ(result.evalFailures, 1u);
    EXPECT_EQ(result.quarantined, 1u);
    std::size_t crashes = 0;
    for (const auto& log : result.history)
        crashes += log.workerCrashes;
    EXPECT_EQ(crashes, 1u);
}

TEST(EvalBackend, HangIsKilledByTheWatchdog)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    ScopedFaultInject fault("hang@3");
    auto params = smallParams();
    params.backend = EvalBackendKind::Isolated;
    // Generous enough that a legitimate toy evaluation never trips it
    // even on a loaded CI machine — only the injected infinite hang can.
    params.evalTimeoutMs = 5000;
    const auto result = EvolutionEngine(mod, fitness, params).run();

    ASSERT_EQ(result.history.size(), params.generations);
    std::size_t timeouts = 0;
    for (const auto& log : result.history)
        timeouts += log.workerTimeouts;
    EXPECT_EQ(timeouts, 1u);
    EXPECT_EQ(result.quarantined, 1u);
    // Every worker — the hung one included — was killed and reaped.
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(EvalBackend, GarbageResponseIsAProtocolError)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    ScopedFaultInject fault("garbage@2");
    auto params = smallParams();
    params.backend = EvalBackendKind::Isolated;
    const auto result = EvolutionEngine(mod, fitness, params).run();

    ASSERT_EQ(result.history.size(), params.generations);
    std::size_t protocol = 0;
    for (const auto& log : result.history)
        protocol += log.protocolErrors;
    EXPECT_EQ(protocol, 1u);
    EXPECT_EQ(result.quarantined, 1u);
}

TEST(EvalBackend, QuarantineServesRecurringGenotypesWithoutRedispatch)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    // Every dispatched evaluation crashes its worker. On the reference
    // path every member (elites included) is re-screened each
    // generation, so gen 2 onward must serve the carried-over genotypes
    // from the quarantine set instead of burning a fresh worker on them.
    ScopedFaultInject fault("crash@0+");
    auto params = smallParams();
    params.useCache = false;
    params.backend = EvalBackendKind::Isolated;
    const auto result = EvolutionEngine(mod, fitness, params).run();

    ASSERT_EQ(result.history.size(), params.generations);
    EXPECT_GT(result.evalFailures, 0u);
    EXPECT_GT(result.quarantined, 0u);
    std::size_t quarantineHits = 0;
    for (const auto& log : result.history)
        quarantineHits += log.quarantineHits;
    EXPECT_GT(quarantineHits, 0u);
    // Nothing ever evaluated successfully, so the best is the baseline.
    EXPECT_TRUE(result.best.edits.empty());
    EXPECT_EQ(result.speedup(), 1.0);
}

TEST(EvalBackend, FaultScheduleIsThreadCountIndependent)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    SearchResult results[2];
    for (int i = 0; i < 2; ++i) {
        ScopedFaultInject fault("crash@6,garbage@11");
        auto params = smallParams();
        params.backend = EvalBackendKind::Isolated;
        params.threads = i == 0 ? 1 : 4;
        results[i] = EvolutionEngine(mod, fitness, params).run();
    }
    expectSameTrajectory(results[0], results[1]);
    EXPECT_EQ(totalFailures(results[0]), totalFailures(results[1]));
    EXPECT_EQ(results[0].quarantined, results[1].quarantined);
}

TEST(EvalBackendDeath, MalformedFaultSpecIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto mod = toyModule();
    ToyFitness fitness;
    ScopedFaultInject fault("crash@notanumber");
    auto params = smallParams();
    params.backend = EvalBackendKind::Isolated;
    EXPECT_DEATH(EvolutionEngine(mod, fitness, params).run(),
                 "GEVO_FAULT_INJECT");
}

} // namespace
} // namespace gevo::core
