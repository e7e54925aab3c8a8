/// \file
/// Layer replay: reload a finished search's final populations and cache
/// file, and time each layer's public entry point on that real work.

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <map>
#include <string>

#include "core/fitness.h"
#include "core/params.h"

namespace perfbench {

struct ReplayInputs {
    const gevo::ir::Module* module = nullptr;
    /// The fitness the search ran (a portfolio for multi-device runs).
    const gevo::core::FitnessFunction* fitness = nullptr;
    /// The app's own single-device fitness (simulator speed probe).
    const gevo::core::FitnessFunction* appFitness = nullptr;
    gevo::core::EvolutionParams params;
    std::string checkpointPath; ///< Written by the search.
    std::string cachePath;      ///< Written by the search.
    std::string workDir;        ///< Scratch for the replay's own saves.
};

struct ReplayResult {
    std::map<std::string, double> metrics;
    /// Empty when every replay cross-check held, else the first failure.
    std::string error;
};

/// Bitwise equality of two fitness results (validity, reason, and every
/// objective's exact bits).
bool sameFitness(const gevo::core::FitnessResult& a,
                 const gevo::core::FitnessResult& b);

/// Run the replay; metric names follow the benchmark's per-layer table.
ReplayResult replayLayers(const ReplayInputs& in);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
