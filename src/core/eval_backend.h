/// \file
/// The evaluation-backend seam: who executes a generation's batch of
/// fitness evaluations, and what happens when an evaluation takes the
/// evaluating process down with it.
///
/// The engine batches every island's unevaluated individuals into one
/// dispatch per generation (core/engine.h); this interface owns that
/// dispatch. Two implementations:
///
///   InProcessBackend — the engine's thread pool: every evaluation runs
///   in the engine's own address space. Fastest, but a variant whose
///   simulation segfaults, aborts or hangs kills the whole search
///   (GEVO-scale campaigns are 256 x 300 ~ 77k evaluations of
///   adversarially mutated programs — hours of wall clock riding on
///   every one of them behaving).
///
///   RemoteBackend (farm/client.h) — one out-of-process transport for
///   everything else: the farm protocol (farm/protocol.h) to worker
///   sessions (farm/session.h), with a per-evaluation deadline, two-strike
///   redispatch and a local fallback. `--backend=remote` dials
///   gevo-workerd daemons; `--backend=isolated` dials local forks — a
///   socketpair plus fork() per worker at batch start, each child
///   serving its end with a WorkerSession and inheriting the base module,
///   the fitness function and a copy-on-write snapshot of the caller's
///   program cache with zero serialization. A variant that crashes, hangs
///   or garbles its worker is reaped and scored as a deterministic
///   invalid-individual penalty carrying an EvalFailure tag; the engine
///   quarantines the genotype by content key so it is never dispatched
///   again.
///
/// Every backend produces identical FitnessResults for every evaluation
/// that completes — fitness is a deterministic function of the edit list
/// — so the search trajectory is backend-independent as long as no fault
/// fires. Only the cache/simulation counters may differ (out-of-process
/// workers cannot share within-batch program-cache hits across process
/// boundaries).
///
/// Fault injection (testing): the GEVO_FAULT_INJECT environment variable
/// deterministically injects failures by global evaluation sequence
/// number, e.g. "crash@12" (the 13th dispatched evaluation segfaults),
/// "hang@3" (sleeps until the deadline kills it), "garbage@7" (the worker
/// writes a malformed response frame), with a comma-separated list and a
/// "+" suffix meaning "this one and every later evaluation" ("crash@5+").
/// Crash and hang apply to every backend (in process they take the host
/// down — that is the demonstration); the frame-level kinds fire in
/// worker sessions (core/fault_inject.h). The in-process and isolated
/// backends parse the spec at construction, in the host process, and
/// sequence numbers are per backend, so tests stay independent.

#ifndef GEVO_CORE_EVAL_BACKEND_H
#define GEVO_CORE_EVAL_BACKEND_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fitness.h"
#include "core/params.h"
#include "core/variant_cache.h"
#include "mutation/edit.h"

namespace gevo::core {

/// How an evaluation failed to produce a genuine pipeline result. None
/// means the pipeline ran to completion (the FitnessResult itself may
/// still be invalid — a verifier rejection or wrong output — but that is
/// a property of the variant, not of the evaluation machinery).
enum class EvalFailure : std::uint8_t {
    None = 0,
    WorkerCrash,   ///< The worker died or hung up mid-evaluation.
    WorkerTimeout, ///< No reply within the per-evaluation deadline.
    ProtocolError, ///< The worker returned an undecodable response.
};

/// Human-readable failure name ("none", "crash", "timeout", "protocol").
std::string_view evalFailureName(EvalFailure failure);

/// Outcome of one dispatched evaluation.
struct EvalOutcome {
    FitnessResult result;
    EvalFailure failure = EvalFailure::None;
    /// Cost a fresh simulation (vs. a program-cache hit).
    bool simulated = false;
    /// Compile stage ran and the verifier rejected the variant.
    bool rejected = false;
};

/// The deterministic invalid-individual penalty for an evaluation that
/// failed with \p failure (not None) under a \p timeoutMs deadline. No
/// pids, hosts or timestamps: the same variant scores the same penalty on
/// every run and every backend.
EvalOutcome failedEvaluation(EvalFailure failure, std::uint32_t timeoutMs);

/// Executes one generation's batch of fitness evaluations. Implementations
/// must be deterministic per task: outcome[i] depends only on batch[i]
/// (and the injected fault schedule), never on scheduling.
class EvaluationBackend {
  public:
    virtual ~EvaluationBackend() = default;

    /// Evaluate batch[i] (an edit list against the backend's base module)
    /// into (*out)[i]. \p programCache, when non-null, is the shared
    /// compiled-program-content cache: backends serve repeat programs
    /// from it and insert fresh simulation results into it. Null selects
    /// the compile-per-call reference path (every task compiled and
    /// simulated, no cache lookups).
    virtual void
    evaluateBatch(const std::vector<const std::vector<mut::Edit>*>& batch,
                  VariantCache* programCache,
                  std::vector<EvalOutcome>* out) = 0;

    /// Short description for logs/banners, e.g. "in-process x8".
    virtual std::string describe() const = 0;
};

/// Backend implied by \p params (threads, backend kind, deadline).
/// \p base and \p fitness must outlive the backend.
std::unique_ptr<EvaluationBackend>
makeBackend(const ir::Module& base, const FitnessFunction& fitness,
            const EvolutionParams& params);

/// The fault-tolerant client over the farm protocol: `params.threads`
/// local forks for EvalBackendKind::Isolated, the `params.workers` list
/// (comma-separated "host:port" / "unix:/path") for Remote. Defined in
/// farm/client.cpp; makeBackend routes both kinds here.
std::unique_ptr<EvaluationBackend>
makeRemoteBackend(const ir::Module& base, const FitnessFunction& fitness,
                  const EvolutionParams& params);

/// Evaluate one edit list through the two-stage pipeline against a
/// precompiled \p compiler. With a \p programCache this is the cached-path
/// body (compile, serve repeat programs from the cache, simulate + insert
/// otherwise); without one it is the compile-per-call reference path
/// (every task simulated, no cache lookups). \p programKeyOut, when
/// non-null, receives the program content key of a fresh simulation
/// (out-of-process workers ship it back so the caller's live cache learns
/// the result). Shared by the in-process backend, the remote backend's
/// local fallback and the worker session.
EvalOutcome
evaluateTask(const VariantCompiler& compiler, const FitnessFunction& fitness,
             const std::vector<mut::Edit>& edits, VariantCache* programCache,
             std::string* programKeyOut);

} // namespace gevo::core

#endif // GEVO_CORE_EVAL_BACKEND_H
