#include "core/eval_backend.h"

#include <chrono>

#include "core/fault_inject.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace gevo::core {

std::string_view
evalFailureName(EvalFailure failure)
{
    switch (failure) {
      case EvalFailure::None: return "none";
      case EvalFailure::WorkerCrash: return "crash";
      case EvalFailure::WorkerTimeout: return "timeout";
      case EvalFailure::ProtocolError: return "protocol";
    }
    return "?";
}

EvalOutcome
failedEvaluation(EvalFailure failure, std::uint32_t timeoutMs)
{
    EvalOutcome out;
    out.failure = failure;
    switch (failure) {
      case EvalFailure::WorkerCrash:
        out.result = FitnessResult::fail("evaluation worker crashed");
        break;
      case EvalFailure::WorkerTimeout:
        out.result = FitnessResult::fail(strformat(
            "evaluation exceeded the %u ms deadline", timeoutMs));
        break;
      case EvalFailure::ProtocolError:
        out.result = FitnessResult::fail("evaluation worker protocol error");
        break;
      case EvalFailure::None:
        GEVO_PANIC("failedEvaluation(None)");
    }
    return out;
}

namespace {

// ---- shared single-task evaluation ----

using StageClock = std::chrono::steady_clock;

std::uint64_t
stageNsSince(StageClock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            StageClock::now() - start)
            .count());
}

} // namespace

/// Both stages run through the caller's precompiled VariantCompiler and
/// record into the process-wide stage timers. (Exported: the farm worker
/// session serves connections with this exact body, so remote results
/// are bit-identical to in-process ones.)
EvalOutcome
evaluateTask(const VariantCompiler& compiler, const FitnessFunction& fitness,
             const std::vector<mut::Edit>& edits, VariantCache* programCache,
             std::string* programKeyOut)
{
    EvalOutcome out;
    const auto compileStart = StageClock::now();
    const CompiledVariant cv = compiler.compile(edits);
    recordCompileNs(stageNsSince(compileStart));
    if (programCache == nullptr) {
        out.result = cv.ok ? scoreVariant(fitness, cv)
                           : FitnessResult::fail(cv.failReason);
        out.simulated = true;
        return out;
    }
    if (!cv.ok) {
        out.result = FitnessResult::fail(cv.failReason);
        out.rejected = true;
        return out;
    }
    const std::string programKey = cv.programs.contentKey();
    FitnessResult cached;
    if (programCache->lookup(programKey, &cached)) {
        out.result = cached;
        return out;
    }
    out.result = scoreVariant(fitness, cv);
    out.simulated = true;
    programCache->insert(programKey, out.result);
    if (programKeyOut != nullptr)
        *programKeyOut = programKey;
    return out;
}

namespace {

// ---- in-process backend ----

class InProcessBackend final : public EvaluationBackend {
  public:
    InProcessBackend(const ir::Module& base, const FitnessFunction& fitness,
                     std::uint32_t threads)
        : compiler_(base), fitness_(fitness), pool_(threads),
          faults_(parseFaultSpecs())
    {
    }

    void
    evaluateBatch(const std::vector<const std::vector<mut::Edit>*>& batch,
                  VariantCache* programCache,
                  std::vector<EvalOutcome>* out) override
    {
        out->assign(batch.size(), EvalOutcome{});
        // Sequence numbers are assigned by batch position, not dispatch
        // order, so the fault schedule is thread-count independent.
        const std::uint64_t seqBase = nextSeq_;
        nextSeq_ += batch.size();
        pool_.parallelFor(batch.size(), [&](std::size_t i) {
            if (const auto fault = faultFor(faults_, seqBase + i)) {
                if (*fault == FaultKind::Crash)
                    faultCrash();
                if (*fault == FaultKind::Hang)
                    faultHang();
                // The frame-level kinds have no in-process meaning: there
                // is no socket to corrupt. Ignored, so one spec can drive
                // every backend.
            }
            (*out)[i] =
                evaluateTask(compiler_, fitness_, *batch[i], programCache,
                             nullptr);
        });
    }

    std::string
    describe() const override
    {
        return strformat("in-process x%zu", pool_.workerCount());
    }

  private:
    VariantCompiler compiler_;
    const FitnessFunction& fitness_;
    ThreadPool pool_;
    std::vector<FaultSpec> faults_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace

std::unique_ptr<EvaluationBackend>
makeBackend(const ir::Module& base, const FitnessFunction& fitness,
            const EvolutionParams& params)
{
    switch (params.backend) {
      case EvalBackendKind::InProcess:
        return std::make_unique<InProcessBackend>(base, fitness,
                                                  params.threads);
      case EvalBackendKind::Isolated:
      case EvalBackendKind::Remote:
        return makeRemoteBackend(base, fitness, params);
    }
    GEVO_PANIC("unknown evaluation backend kind");
}

} // namespace gevo::core
