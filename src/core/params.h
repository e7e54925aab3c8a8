/// \file
/// Search hyper-parameters, shared by the population and orchestrator
/// layers (paper Sec III-E defaults, plus the island-model and cache
/// extensions this reproduction adds on top).

#ifndef GEVO_CORE_PARAMS_H
#define GEVO_CORE_PARAMS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/objectives.h"
#include "mutation/sampler.h"

namespace gevo::core {

/// Which evaluation backend executes a generation's batch of fitness
/// evaluations (core/eval_backend.h).
enum class EvalBackendKind : std::uint8_t {
    /// Today's thread pool: every evaluation runs in the engine's own
    /// address space. Fastest; a variant that crashes or hangs the
    /// simulator takes the whole search down with it.
    InProcess,
    /// Local worker processes, forked per batch, served over the farm
    /// protocol (the Remote transport with fork endpoints) with a
    /// per-evaluation wall-clock deadline: a variant that segfaults,
    /// aborts, OOMs or hangs kills only its worker. The failure is scored
    /// as a deterministic invalid-individual penalty and the genotype is
    /// quarantined so it is never dispatched again.
    Isolated,
    /// Socket-based evaluation farm (src/farm/): batches are sharded
    /// across `workers` daemons over the framed protocol, with
    /// per-evaluation deadlines, redispatch on worker loss, and local
    /// degradation when every worker is gone. Fault-free runs are
    /// trajectory-identical to InProcess.
    Remote,
};

/// Which edit-sampling strategy the populations use (mutation/sampler.h).
enum class SamplerKind : std::uint8_t {
    /// Historical uniform sampling; bit-for-bit the pre-seam RNG draws.
    Uniform,
    /// Profile-guided: edit sites weighted by the per-island elite's
    /// per-loc issue heat, re-profiled every generation.
    Guided,
};

/// Which migration topology connects the islands (core/topology.h).
enum class TopologyKind : std::uint8_t {
    /// Historical behavior: panmictic when islands <= 1, ring otherwise.
    Auto,
    /// Single population, no migration. Requires islands <= 1.
    Panmictic,
    /// Directed cycle i -> (i+1) % N.
    Ring,
    /// 2D torus grid: each island sends to its right and down neighbors.
    Torus,
    /// Hub-and-spoke: island 0 exchanges with every other island.
    Star,
};

/// Which survivor-/tournament-ordering rule selection uses
/// (core/population.h).
enum class SelectionKind : std::uint8_t {
    /// Single-scalar ordering by FitnessResult::ms() — the paper's rule
    /// and the bit-identical legacy default.
    Scalar,
    /// NSGA-II: non-dominated sort + crowding distance over
    /// EvolutionParams::objectives, ties broken by canonical edit-list
    /// key so trajectories stay reproducible across threads and
    /// backends.
    Pareto,
};

/// Search hyper-parameters (paper defaults).
struct EvolutionParams {
    std::uint32_t populationSize = 256; ///< Per island.
    std::uint32_t generations = 300;
    std::uint32_t elitism = 4;
    double crossoverProb = 0.8;
    double mutationProb = 0.3;
    /// Within a mutation event: probability the edit list grows (vs. a
    /// random existing edit being dropped).
    double mutationAppendProb = 0.85;
    std::uint32_t tournamentSize = 2;
    std::uint64_t seed = 1;
    std::uint32_t threads = 0; ///< 0 = hardware concurrency.

    // ---- population structure (island model) ----
    /// Number of islands. 1 is the paper's single panmictic population and
    /// reproduces the pre-island engine bit-for-bit (island 0's RNG stream
    /// is seeded with `seed` directly). Islands evolve independently
    /// except for migration; their fitness evaluations are batched into
    /// one thread-pool dispatch per generation.
    std::uint32_t islands = 1;
    /// Ring migration period in generations (0 = never migrate). Only
    /// meaningful when islands > 1.
    std::uint32_t migrationInterval = 10;
    /// Individuals copied island i -> (i+1) % islands at each migration
    /// (the receiver's worst are replaced). Clamped below populationSize.
    std::uint32_t migrationCount = 2;
    /// Migration topology. Auto keeps the historical mapping (panmictic
    /// for one island, ring otherwise) and is the trajectory-neutral
    /// default.
    TopologyKind topology = TopologyKind::Auto;
    /// Fitness-aware migrant acceptance: an immigrant replaces the
    /// receiver's worst resident only when strictly fitter than it.
    /// Default off = historical blind replacement.
    bool fitnessAwareMigrants = false;

    // ---- diagnosis-driven search ----
    /// Edit-sampling strategy. Uniform reproduces the pre-seam trajectory
    /// bit-for-bit; Guided re-profiles each island's elite every
    /// generation and biases edit sites toward hot locations.
    SamplerKind samplerKind = SamplerKind::Uniform;
    /// Self-adaptive operator rates (ESCH-style 1+1 rule at island
    /// granularity): each island perturbs its own SamplerConfig weights,
    /// keeps the perturbation when the island's best improves, reverts it
    /// otherwise. Rates are checkpointed and logged per generation.
    bool adaptRates = false;

    // ---- multi-objective selection ----
    /// Survivor/tournament ordering. Scalar reproduces the historical
    /// trajectory bit-for-bit; Pareto ranks on `objectives`.
    SelectionKind selection = SelectionKind::Scalar;
    /// Objective dimensions Pareto selection ranks on (Scalar mode uses
    /// only the primary time objective regardless). Part of the
    /// checkpoint scope fingerprint.
    std::vector<Objective> objectives = {Objective::Time};

    // ---- evaluation pipeline ----
    /// true: full evaluation pipeline — per-individual memo, within-
    /// generation dedup across all islands, and the two-level content-
    /// addressed variant cache (edit-list key, then compiled-program key).
    /// false: the un-cached compile-per-call reference path — every
    /// individual is patched, cleaned, verified, decoded and simulated
    /// every generation. Fitness is deterministic in the edit list, so the
    /// search trajectory is identical either way; the reference path
    /// exists to benchmark the pipeline against (bench/throughput.cpp).
    bool useCache = true;
    /// Per-level entry bound for the variant caches (0 = unbounded). When
    /// set, each cache evicts least-recently-used entries beyond the
    /// bound; eviction is trajectory-neutral because evicted results are
    /// deterministically recomputed on the next miss.
    std::size_t cacheMaxEntries = 0;
    /// Cross-run persistence (core/cache_store.h): when non-empty, both
    /// cache levels are loaded from this file before generation 1 and
    /// saved back on completion (and every `cacheSaveInterval`
    /// generations). A missing, version-mismatched or corrupted file
    /// degrades to a cold start — it never fails the run. Persistence is
    /// trajectory-neutral for the same reason the cache itself is:
    /// entries are values of a deterministic function of their key.
    /// Ignored when useCache is false.
    std::string cachePath;
    /// Generations between periodic cache saves while the search runs
    /// (0 = save only on completion). Only meaningful with a cachePath.
    /// Saves are atomic (rename-over), so a run warm-starting from a
    /// file another process is still appending to sees a complete
    /// snapshot either way.
    std::uint32_t cacheSaveInterval = 0;

    // ---- robustness (crash isolation + durable search state) ----
    /// Evaluation backend. InProcess is trajectory-identical to the
    /// pre-backend engine; Isolated survives worker crashes/hangs at the
    /// cost of forking workers and a request/reply codec per evaluation.
    EvalBackendKind backend = EvalBackendKind::InProcess;
    /// Per-evaluation wall-clock deadline for the out-of-process
    /// backends: a worker silent past it is dropped (a forked one is
    /// killed) and the evaluation redispatched; the second strike scores
    /// a WorkerTimeout penalty. Ignored by the in-process backend.
    std::uint32_t evalTimeoutMs = 30000;
    /// Remote-backend worker endpoints: comma-separated "host:port" or
    /// "unix:/path" entries. Required when backend == Remote.
    std::string workers;
    /// Durable search-state snapshots (core/checkpoint.h): when
    /// non-empty, full search state (populations, fitness, RNG streams,
    /// generation counter, history, quarantine set) is written here every
    /// `checkpointInterval` generations and on completion/interruption. A
    /// run killed mid-search resumes from the last snapshot with
    /// `resume = true` and replays to the bit-identical trajectory of an
    /// uninterrupted run.
    std::string checkpointPath;
    /// Generations between periodic checkpoint saves (0 = only on
    /// completion/interruption). Only meaningful with a checkpointPath.
    std::uint32_t checkpointInterval = 10;
    /// Restore search state from checkpointPath before running. A
    /// missing, corrupted, version- or scope-mismatched checkpoint
    /// degrades to a cold start with a warning — it never fails the run.
    bool resume = false;

    mut::SamplerConfig sampler;
};

} // namespace gevo::core

#endif // GEVO_CORE_PARAMS_H
