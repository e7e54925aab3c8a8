#include "core/fitness.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/verifier.h"
#include "mutation/patch.h"
#include "opt/passes.h"
#include "support/bytes.h"

namespace gevo::core {

namespace {

// Stage-time accumulators (nanoseconds), summed across evaluator threads.
std::atomic<std::uint64_t> gCompileNs{0};
std::atomic<std::uint64_t> gSimulateNs{0};

// -1 = not yet resolved from the environment.
std::atomic<int> gCompileMode{-1};

CompileMode
resolveCompileMode()
{
    const char* env = std::getenv("GEVO_COMPILE_REF");
    const bool ref = env != nullptr && env[0] != '\0' &&
                     !(env[0] == '0' && env[1] == '\0');
    return ref ? CompileMode::Reference : CompileMode::Incremental;
}

} // namespace

CompileMode
compileMode()
{
    int mode = gCompileMode.load(std::memory_order_relaxed);
    if (mode < 0) {
        mode = static_cast<int>(resolveCompileMode());
        gCompileMode.store(mode, std::memory_order_relaxed);
    }
    return static_cast<CompileMode>(mode);
}

void
setCompileMode(CompileMode mode)
{
    gCompileMode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

StageTimes
stageTimes()
{
    StageTimes t;
    t.compileMs =
        gCompileNs.load(std::memory_order_relaxed) / 1e6;
    t.simulateMs =
        gSimulateNs.load(std::memory_order_relaxed) / 1e6;
    return t;
}

void
resetStageTimes()
{
    gCompileNs.store(0, std::memory_order_relaxed);
    gSimulateNs.store(0, std::memory_order_relaxed);
}

void
recordCompileNs(std::uint64_t ns)
{
    gCompileNs.fetch_add(ns, std::memory_order_relaxed);
}

void
recordSimulateNs(std::uint64_t ns)
{
    gSimulateNs.fetch_add(ns, std::memory_order_relaxed);
}

void
ProfileSummary::accumulateLaunch(const sim::LaunchStats& stats)
{
    warpInstrs += stats.warpInstrs;
    issueCycles += stats.issueCycles;
    divergences += stats.divergences;
    sharedConflictWays += stats.sharedConflictWays;
    globalSectors += stats.globalSectors;
    if (locIssues.size() < stats.locIssues.size())
        locIssues.resize(stats.locIssues.size(), 0);
    for (std::size_t loc = 0; loc < stats.locIssues.size(); ++loc)
        locIssues[loc] += stats.locIssues[loc];
}

CompiledVariant
compileVariant(const ir::Module& base, const std::vector<mut::Edit>& edits)
{
    CompiledVariant cv;
    cv.module = mut::applyPatch(base, edits);
    const auto verify = ir::verifyModule(cv.module);
    if (!verify.ok()) {
        cv.failReason = "verify: " + verify.message();
        return cv;
    }
    opt::runCleanupPipeline(cv.module);
    const auto reVerify = ir::verifyModule(cv.module);
    if (!reVerify.ok()) {
        cv.failReason = "post-opt verify: " + reVerify.message();
        return cv;
    }
    cv.programs = sim::ProgramSet::decodeModule(cv.module);
    cv.ok = true;
    return cv;
}

VariantCompiler::VariantCompiler(const ir::Module& base) : base_(base)
{
    if (!ir::verifyModule(base_).ok())
        return; // base is broken; compile() falls back to the oracle.
    cleanedBase_ = base_.clone();
    opt::runCleanupPipeline(cleanedBase_);
    if (!ir::verifyModule(cleanedBase_).ok())
        return;
    basePrograms_ = sim::ProgramSet::decodeModule(cleanedBase_);
    incremental_ = true;
}

CompiledVariant
VariantCompiler::compile(const std::vector<mut::Edit>& edits) const
{
    if (!incremental_ || compileMode() == CompileMode::Reference)
        return compileVariant(base_, edits);

    ir::Module patched = mut::applyPatch(base_, edits);

    // Touched set = functions applyPatch detached: pointer identity
    // against the COW-shared base, no content comparison.
    std::vector<std::size_t> touched;
    for (std::size_t i = 0; i < patched.numFunctions(); ++i) {
        if (patched.functionPtr(i) != base_.functionPtr(i))
            touched.push_back(i);
    }

    CompiledVariant cv;

    // Verify only what changed. The base verified clean at construction
    // and verifyModule carries no module-level checks, so the joined
    // diagnostic (touched functions, index order) is byte-identical to
    // the full-module message.
    ir::VerifyResult verify;
    for (const std::size_t i : touched) {
        auto r = ir::verifyFunction(std::as_const(patched).function(i));
        for (auto& err : r.errors)
            verify.errors.push_back(std::move(err));
    }
    if (!verify.ok()) {
        cv.module = std::move(patched);
        cv.failReason = "verify: " + verify.message();
        return cv;
    }

    // Cleanup + re-verify, per touched function (the pipeline is
    // per-function pure: no uid draws, no loc interning). The touched
    // functions are uniquely owned after applyPatch, so the non-const
    // accessor mutates in place without another copy.
    for (const std::size_t i : touched)
        opt::runCleanupPipeline(patched.function(i));
    ir::VerifyResult reVerify;
    for (const std::size_t i : touched) {
        auto r = ir::verifyFunction(std::as_const(patched).function(i));
        for (auto& err : r.errors)
            reVerify.errors.push_back(std::move(err));
    }
    if (!reVerify.ok()) {
        cv.module = std::move(patched);
        cv.failReason = "post-opt verify: " + reVerify.message();
        return cv;
    }

    // Assemble the variant: share the precompiled base everywhere the
    // patch didn't reach, splice in the touched functions/programs.
    cv.module = cleanedBase_.clone();
    for (const std::size_t i : touched)
        cv.module.setFunction(i, patched.functionPtr(i));
    cv.module.bumpUidCounter(patched.uidCounter());

    std::size_t next = 0;
    for (std::size_t i = 0; i < cv.module.numFunctions(); ++i) {
        const bool isTouched =
            next < touched.size() && touched[next] == i;
        if (isTouched) {
            ++next;
            cv.programs.add(std::make_shared<const sim::Program>(
                sim::Program::decode(std::as_const(cv.module).function(i))));
        } else {
            cv.programs.add(basePrograms_.share(i));
        }
    }
    cv.ok = true;
    return cv;
}

FitnessResult
scoreVariant(const FitnessFunction& fitness, const CompiledVariant& variant)
{
    const auto start = std::chrono::steady_clock::now();
    FitnessResult result = fitness.evaluate(variant);
    recordSimulateNs(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    return result;
}

FitnessResult
evaluateVariant(const ir::Module& base, const std::vector<mut::Edit>& edits,
                const FitnessFunction& fitness)
{
    const CompiledVariant cv = compileVariant(base, edits);
    if (!cv.ok)
        return FitnessResult::fail(cv.failReason);
    return scoreVariant(fitness, cv);
}

void
encodeFitness(std::string* out, const FitnessResult& result)
{
    out->push_back(result.valid ? 1 : 0);
    appendLeU32(out, static_cast<std::uint32_t>(result.objectives.size()));
    for (const double v : result.objectives)
        appendDouble(out, v);
    appendString(out, result.failReason);
}

bool
decodeFitness(ByteReader* in, FitnessResult* out)
{
    std::size_t count = 0;
    if (!in->flag(&out->valid) || !in->count32(&count, 8) || count > 64)
        return false;
    out->objectives.resize(count);
    for (auto& v : out->objectives) {
        if (!in->f64(&v))
            return false;
    }
    return in->str(&out->failReason);
}

} // namespace gevo::core
