/// Checkpoint/resume: file-format round trips, corruption rejection, and
/// bit-identical resumed trajectories through the engine — including an
/// abrupt mid-search death (a forked child that _Exit()s between periodic
/// checkpoints, the deterministic stand-in for kill -9).

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include <sys/wait.h>
#include <unistd.h>

#include "core/engine.h"
#include "ir/parser.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"
#include "support/bytes.h"

namespace gevo::core {
namespace {

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

std::string
tmpPath(const std::string& name)
{
    const std::string path =
        ::testing::TempDir() + "gevo_" + name + ".gevockpt";
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/// A nontrivial state exercising every field: two islands, mixed
/// valid/invalid individuals, multi-generation history, quarantine keys
/// with embedded NULs (canonical edit-list keys are binary).
CheckpointState
sampleState()
{
    CheckpointState st;
    st.generation = 7;
    st.finished = false;
    st.baselineMs = 12.75;

    mut::Edit del;
    del.kind = mut::EditKind::InstrDelete;
    del.srcUid = 42;
    mut::Edit opr;
    opr.kind = mut::EditKind::OperandReplace;
    opr.srcUid = 9;
    opr.opIndex = 1;
    opr.newOperand = ir::Operand::imm(3);

    st.best.edits = {del};
    // v3: full objective vector (time, sectors, divergence), not just
    // the scalar.
    st.best.fitness = FitnessResult::pass(3.5, 96.0, 2.0);
    st.best.evaluated = true;

    GenerationLog log;
    log.generation = 7;
    log.bestMs = 3.5;
    log.meanMs = 5.25;
    log.validCount = 3;
    log.evaluations = 4;
    log.cacheHits = 1;
    log.cacheMisses = 3;
    log.workerCrashes = 1;
    log.quarantineHits = 2;
    log.bestEdits = {del};
    log.islandBestMs = {3.5, 4.0};
    // v2: the self-adaptation audit trail (one rate tuple per island).
    mut::SamplerConfig loggedRates;
    loggedRates.wDelete = 0.5;
    loggedRates.wOperand = 0.125;
    log.islandRates = {loggedRates, mut::SamplerConfig{}};
    // v3: Pareto-front size per generation.
    log.paretoFrontSize = 2;
    st.history = {log, log};
    st.history[0].generation = 6;

    CheckpointIsland a;
    a.rngState = {1, 2, 3, 4};
    a.bestMs = 3.5;
    Individual good{{del, opr}, FitnessResult::pass(3.5, 96.0, 2.0), true};
    Individual bad{{opr}, FitnessResult::fail("wrong output"), true};
    Individual fresh{{del}, {}, false};
    a.members = {good, bad, fresh};
    // v2: mid-verdict self-adaptive rate state.
    a.rates.wSwap = 0.75;
    a.candidateRates.wSwap = 1.5;
    a.candidateRates.exploreFloor = 0.0625;
    a.ratePending = true;
    a.rateLastBest = 3.25;
    CheckpointIsland b;
    b.rngState = {~0ull, 5, 6, 7};
    b.bestMs = 4.0;
    b.members = {bad, good};
    st.islands = {a, b};

    st.quarantine = {std::string("bin\0key", 7), "plain"};
    // v3: the cross-generation Pareto archive rides along.
    st.paretoFront = {good, Individual{{opr},
                                       FitnessResult::pass(4.0, 80.0, 1.0),
                                       true}};
    return st;
}

void
expectRatesEqual(const mut::SamplerConfig& a, const mut::SamplerConfig& b)
{
    EXPECT_EQ(a.wDelete, b.wDelete);
    EXPECT_EQ(a.wCopy, b.wCopy);
    EXPECT_EQ(a.wMove, b.wMove);
    EXPECT_EQ(a.wReplace, b.wReplace);
    EXPECT_EQ(a.wSwap, b.wSwap);
    EXPECT_EQ(a.wOperand, b.wOperand);
    EXPECT_EQ(a.exploreFloor, b.exploreFloor);
}

void
expectIndividualsEqual(const Individual& a, const Individual& b)
{
    EXPECT_EQ(mut::serializeEdits(a.edits), mut::serializeEdits(b.edits));
    EXPECT_EQ(a.fitness.valid, b.fitness.valid);
    EXPECT_EQ(a.fitness.objectives, b.fitness.objectives);
    EXPECT_EQ(a.fitness.failReason, b.fitness.failReason);
    EXPECT_EQ(a.evaluated, b.evaluated);
}

void
expectStatesEqual(const CheckpointState& a, const CheckpointState& b)
{
    EXPECT_EQ(a.generation, b.generation);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.baselineMs, b.baselineMs);
    expectIndividualsEqual(a.best, b.best);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t g = 0; g < a.history.size(); ++g) {
        EXPECT_EQ(a.history[g].generation, b.history[g].generation);
        EXPECT_EQ(a.history[g].bestMs, b.history[g].bestMs);
        EXPECT_EQ(a.history[g].meanMs, b.history[g].meanMs);
        EXPECT_EQ(a.history[g].validCount, b.history[g].validCount);
        EXPECT_EQ(a.history[g].evaluations, b.history[g].evaluations);
        EXPECT_EQ(a.history[g].cacheHits, b.history[g].cacheHits);
        EXPECT_EQ(a.history[g].cacheMisses, b.history[g].cacheMisses);
        EXPECT_EQ(a.history[g].workerCrashes,
                  b.history[g].workerCrashes);
        EXPECT_EQ(a.history[g].workerTimeouts,
                  b.history[g].workerTimeouts);
        EXPECT_EQ(a.history[g].protocolErrors,
                  b.history[g].protocolErrors);
        EXPECT_EQ(a.history[g].quarantineHits,
                  b.history[g].quarantineHits);
        EXPECT_EQ(a.history[g].paretoFrontSize,
                  b.history[g].paretoFrontSize);
        EXPECT_EQ(a.history[g].islandBestMs, b.history[g].islandBestMs);
        EXPECT_EQ(mut::serializeEdits(a.history[g].bestEdits),
                  mut::serializeEdits(b.history[g].bestEdits));
        ASSERT_EQ(a.history[g].islandRates.size(),
                  b.history[g].islandRates.size());
        for (std::size_t i = 0; i < a.history[g].islandRates.size(); ++i)
            expectRatesEqual(a.history[g].islandRates[i],
                             b.history[g].islandRates[i]);
    }
    ASSERT_EQ(a.islands.size(), b.islands.size());
    for (std::size_t i = 0; i < a.islands.size(); ++i) {
        EXPECT_EQ(a.islands[i].rngState, b.islands[i].rngState);
        EXPECT_EQ(a.islands[i].bestMs, b.islands[i].bestMs);
        ASSERT_EQ(a.islands[i].members.size(),
                  b.islands[i].members.size());
        for (std::size_t m = 0; m < a.islands[i].members.size(); ++m)
            expectIndividualsEqual(a.islands[i].members[m],
                                   b.islands[i].members[m]);
        expectRatesEqual(a.islands[i].rates, b.islands[i].rates);
        expectRatesEqual(a.islands[i].candidateRates,
                         b.islands[i].candidateRates);
        EXPECT_EQ(a.islands[i].ratePending, b.islands[i].ratePending);
        EXPECT_EQ(a.islands[i].rateLastBest, b.islands[i].rateLastBest);
    }
    EXPECT_EQ(a.quarantine, b.quarantine);
    ASSERT_EQ(a.paretoFront.size(), b.paretoFront.size());
    for (std::size_t i = 0; i < a.paretoFront.size(); ++i)
        expectIndividualsEqual(a.paretoFront[i], b.paretoFront[i]);
}

TEST(Checkpoint, SaveLoadRoundTrip)
{
    const auto path = tmpPath("roundtrip");
    const auto st = sampleState();
    std::string error;
    ASSERT_TRUE(saveCheckpoint(path, 42, st, &error)) << error;
    const auto load = loadCheckpoint(path, 42);
    ASSERT_EQ(load.status, CheckpointLoadResult::Status::Ok)
        << load.message;
    expectStatesEqual(st, load.state);
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsMissing)
{
    const auto load = loadCheckpoint(tmpPath("missing"));
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::Missing);
}

TEST(Checkpoint, GarbageFileIsRejectedAsBadHeader)
{
    const auto path = tmpPath("garbage");
    writeFile(path, "definitely not a checkpoint");
    const auto load = loadCheckpoint(path);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::BadHeader);
    std::remove(path.c_str());
}

TEST(Checkpoint, VersionMismatchIsRejected)
{
    const auto path = tmpPath("version");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    auto bytes = readFile(path);
    bytes[8] = static_cast<char>(kCheckpointVersion + 1); // u32 LSB.
    writeFile(path, bytes);
    const auto load = loadCheckpoint(path, 42);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::VersionMismatch);
    std::remove(path.c_str());
}

TEST(Checkpoint, OlderV2FileDegradesToVersionMismatch)
{
    // A pre-objective-vector (v2) checkpoint is not readable by the v3
    // parser; it must surface as VersionMismatch, which the engine
    // turns into a warned cold start instead of a partial restore.
    const auto path = tmpPath("v2");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    auto bytes = readFile(path);
    bytes[8] = 2; // u32 version LSB: the PR 9 on-disk format.
    writeFile(path, bytes);
    const auto load = loadCheckpoint(path, 42);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::VersionMismatch);
    std::remove(path.c_str());
}

TEST(Checkpoint, ScopeMismatchIsRejected)
{
    const auto path = tmpPath("scope");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    const auto load = loadCheckpoint(path, 43);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::ScopeMismatch);
    std::remove(path.c_str());
}

TEST(Checkpoint, AnyTruncationRejectsTheWholeFile)
{
    // Unlike the cache store (independent records, good prefix kept), a
    // checkpoint is one consistent state: every truncation point beyond
    // the header must reject the file outright.
    const auto path = tmpPath("truncated");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    const auto full = readFile(path);
    for (const double fraction : {0.25, 0.5, 0.9}) {
        writeFile(path, full.substr(0, static_cast<std::size_t>(
                                           full.size() * fraction)));
        const auto load = loadCheckpoint(path, 42);
        EXPECT_EQ(load.status, CheckpointLoadResult::Status::Corrupt)
            << "fraction " << fraction;
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, AnyFlippedByteRejectsTheWholeFile)
{
    const auto path = tmpPath("bitflip");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    const auto full = readFile(path);
    // Flip a byte in an early, a middle and a late record.
    for (const std::size_t pos :
         {std::size_t{24}, full.size() / 2, full.size() - 3}) {
        auto bytes = full;
        bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
        writeFile(path, bytes);
        const auto load = loadCheckpoint(path, 42);
        EXPECT_EQ(load.status, CheckpointLoadResult::Status::Corrupt)
            << "byte " << pos;
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, TrailingBytesRejectTheWholeFile)
{
    const auto path = tmpPath("trailing");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    writeFile(path, readFile(path) + "spare bytes");
    const auto load = loadCheckpoint(path, 42);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::Corrupt);
    std::remove(path.c_str());
}

TEST(Checkpoint, HugeCountInACrcValidRecordIsCorrupt)
{
    // A history record whose islandBestMs count claims far more doubles
    // than the record holds, with a recomputed (valid) CRC: the loader
    // must reject the count against the bytes left, not allocate for it
    // (2^32-1 used to throw std::bad_alloc out of loadCheckpoint; 1e8
    // zeroed 800 MB before the record was rejected).
    CheckpointState st;
    st.history = {GenerationLog{}};
    const auto path = tmpPath("hugecount");
    ASSERT_TRUE(saveCheckpoint(path, 42, st));
    const auto clean = readFile(path);
    // Header (magic, version, scope), then the meta and best-individual
    // records; with no islands the history record comes next.
    std::size_t pos = 8 + 4 + 8;
    for (int record = 0; record < 2; ++record)
        pos += 8 + readLeU32(clean.data() + pos);
    const std::uint32_t len = readLeU32(clean.data() + pos);
    ASSERT_EQ(len, 104u); // Empty edit list, no islands, no rates.
    const std::size_t payload = pos + 8;
    const std::size_t countAt = payload + 4 + 2 * 8 + 9 * 8 + 4;
    for (const std::uint32_t count : {0xffffffffu, 100000000u}) {
        auto bytes = clean;
        std::string field;
        appendLeU32(&field, count);
        bytes.replace(countAt, 4, field);
        std::string crc;
        appendLeU32(&crc, crc32(bytes.data() + payload, len));
        bytes.replace(pos + 4, 4, crc);
        writeFile(path, bytes);
        const auto load = loadCheckpoint(path, 42);
        EXPECT_EQ(load.status, CheckpointLoadResult::Status::Corrupt)
            << "count " << count;
    }
    std::remove(path.c_str());
}

// ---- engine-level resume ----

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

EvolutionParams
resumeParams(std::uint32_t threads, bool useCache)
{
    EvolutionParams params;
    params.populationSize = 10;
    params.generations = 8;
    params.elitism = 2;
    params.seed = 11;
    params.threads = threads;
    params.useCache = useCache;
    return params;
}

TEST(CheckpointEngine, AbruptDeathThenResumeIsBitIdentical)
{
    // The kill -9 scenario, made deterministic: a forked child runs the
    // search with per-generation checkpoints and _Exit()s mid-run —
    // no final saves, no destructors, exactly what SIGKILL leaves
    // behind. The parent resumes from the orphaned periodic checkpoint
    // and must land on the uninterrupted run's exact history, across
    // thread counts and cache on/off.
    const auto mod = toyModule();
    ToyFitness fitness;
    for (const std::uint32_t threads : {1u, 4u}) {
        for (const bool useCache : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << "threads=" << threads << " cache=" << useCache);
            auto params = resumeParams(threads, useCache);
            const auto reference =
                EvolutionEngine(mod, fitness, params).run();

            const auto path = tmpPath(
                "kill_" + std::to_string(threads) +
                (useCache ? "_c" : "_n"));
            params.checkpointPath = path;
            params.checkpointInterval = 1;

            const pid_t pid = ::fork();
            ASSERT_GE(pid, 0);
            if (pid == 0) {
                // Child: die abruptly after generation 5's checkpoint.
                EvolutionEngine child(mod, fitness, params);
                child.run([](const GenerationLog& log,
                             const SearchResult&) {
                    if (log.generation == 6)
                        std::_Exit(0);
                });
                std::_Exit(1); // Should have died mid-run.
            }
            int status = 0;
            ASSERT_EQ(::waitpid(pid, &status, 0), pid);
            ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

            params.resume = true;
            const auto resumed =
                EvolutionEngine(mod, fitness, params).run();
            expectSameTrajectory(reference, resumed);
            std::remove(path.c_str());
        }
    }
}

TEST(CheckpointEngine, GracefulStopThenResumeIsBitIdentical)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = resumeParams(2, true);
    const auto reference = EvolutionEngine(mod, fitness, params).run();

    const auto path = tmpPath("graceful");
    params.checkpointPath = path;
    params.checkpointInterval = 3;
    EvolutionEngine engine(mod, fitness, params);
    const auto partial =
        engine.run([&](const GenerationLog& log, const SearchResult&) {
            if (log.generation == 4)
                engine.requestStop(); // As the SIGINT handler would.
        });
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.history.size(), 4u);

    params.resume = true;
    const auto resumed = EvolutionEngine(mod, fitness, params).run();
    EXPECT_FALSE(resumed.interrupted);
    expectSameTrajectory(reference, resumed);
    std::remove(path.c_str());
}

TEST(CheckpointEngine, ResumeExtendsAFinishedRun)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = resumeParams(2, true);
    const auto reference = EvolutionEngine(mod, fitness, params).run();

    const auto path = tmpPath("extend");
    params.checkpointPath = path;
    params.generations = 5;
    (void)EvolutionEngine(mod, fitness, params).run();

    params.generations = 8;
    params.resume = true;
    const auto extended = EvolutionEngine(mod, fitness, params).run();
    expectSameTrajectory(reference, extended);

    // Resuming a run that already covers the budget is a no-op that
    // returns the stored state.
    const auto again = EvolutionEngine(mod, fitness, params).run();
    expectSameTrajectory(reference, again);
    std::remove(path.c_str());
}

TEST(CheckpointEngine, DamagedCheckpointDegradesToColdStart)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = resumeParams(2, true);
    const auto reference = EvolutionEngine(mod, fitness, params).run();

    const auto path = tmpPath("damaged");
    params.checkpointPath = path;
    params.checkpointInterval = 2;
    (void)EvolutionEngine(mod, fitness, params).run();

    // Truncate the finished checkpoint: --resume must warn and rerun the
    // whole search from scratch, landing on the same trajectory.
    const auto full = readFile(path);
    writeFile(path, full.substr(0, full.size() / 2));
    params.resume = true;
    const auto cold = EvolutionEngine(mod, fitness, params).run();
    expectSameTrajectory(reference, cold);
    std::remove(path.c_str());
}

TEST(CheckpointEngine, ScopeMismatchedCheckpointDegradesToColdStart)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = resumeParams(2, true);
    const auto path = tmpPath("wrongscope");
    params.checkpointPath = path;
    (void)EvolutionEngine(mod, fitness, params).run();

    // A different seed is a different trajectory scope: resuming from
    // the seed-11 checkpoint must cold-start, not splice histories.
    auto other = params;
    other.seed = 12;
    other.resume = true;
    const auto fresh = EvolutionEngine(mod, fitness, other).run();
    auto otherRef = other;
    otherRef.checkpointPath.clear();
    otherRef.resume = false;
    const auto reference =
        EvolutionEngine(mod, fitness, otherRef).run();
    expectSameTrajectory(reference, fresh);
    std::remove(path.c_str());
}

} // namespace
} // namespace gevo::core
