#include "replay.h"

#include <bit>
#include <cstdint>
#include <filesystem>
#include <utility>
#include <vector>

#include "core/cache_store.h"
#include "core/checkpoint.h"
#include "core/eval_backend.h"
#include "core/objectives.h"
#include "core/population.h"
#include "core/variant_cache.h"
#include "farm/protocol.h"
#include "ir/verifier.h"
#include "mutation/patch.h"
#include "mutation/sampler.h"
#include "opt/passes.h"
#include "sim/program.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace gevo;

namespace {

/// Timing rounds per layer; each metric is the median round.
constexpr int kRounds = 5;
/// Variants probed for simulator speed (valid ones only).
constexpr std::size_t kScoreProbes = 24;

double
usSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e3;
}

bool
verifyTouched(const ir::Module& mod, const std::vector<std::size_t>& touched)
{
    bool ok = true;
    for (const std::size_t i : touched)
        ok = ir::verifyFunction(mod.function(i)).ok() && ok;
    return ok;
}

} // namespace

bool
sameFitness(const core::FitnessResult& a, const core::FitnessResult& b)
{
    if (a.valid != b.valid || a.failReason != b.failReason ||
        a.objectives.size() != b.objectives.size())
        return false;
    for (std::size_t i = 0; i < a.objectives.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a.objectives[i]) !=
            std::bit_cast<std::uint64_t>(b.objectives[i]))
            return false;
    }
    return true;
}

ReplayResult
replayLayers(const ReplayInputs& in)
{
    ReplayResult out;
    auto& m = out.metrics;
    const ir::Module& module = *in.module;

    const auto ck = core::loadCheckpoint(in.checkpointPath);
    if (!ck.usable()) {
        out.error = "replay: checkpoint unreadable: " + ck.message;
        return out;
    }
    const auto store = core::loadCacheStore(in.cachePath);
    if (!store.usable()) {
        out.error = "replay: cache file unreadable: " + store.message;
        return out;
    }
    const core::CheckpointState& st = ck.state;
    std::vector<const core::Individual*> members;
    for (const auto& island : st.islands) {
        for (const auto& ind : island.members)
            members.push_back(&ind);
    }
    const auto n = static_cast<double>(members.size());
    double edits = 0.0;
    for (const auto* ind : members)
        edits += static_cast<double>(ind->edits.size());
    m["breed.edits_per_individual"] = edits / n;

    // ---- compile: the whole stage, then each step on touched kernels ----
    const core::VariantCompiler compiler(module);
    std::vector<double> tCompile, tPatch, tVerify, tCleanup, tDecode;
    std::size_t rejects = 0;
    for (int round = 0; round < kRounds; ++round) {
        double c = 0, p = 0, v = 0, cl = 0, d = 0;
        for (const auto* ind : members) {
            std::int64_t t = nowNs();
            const auto cv = compiler.compile(ind->edits);
            c += usSince(t);
            if (round == 0 && !cv.ok)
                ++rejects;

            t = nowNs();
            ir::Module patched = mut::applyPatch(module, ind->edits);
            p += usSince(t);
            std::vector<std::size_t> touched;
            for (std::size_t i = 0; i < patched.numFunctions(); ++i) {
                if (patched.functionPtr(i) != module.functionPtr(i))
                    touched.push_back(i);
            }
            t = nowNs();
            bool ok = verifyTouched(patched, touched);
            v += usSince(t);
            if (!ok)
                continue;
            t = nowNs();
            for (const std::size_t i : touched)
                opt::runCleanupPipeline(patched.function(i));
            cl += usSince(t);
            t = nowNs();
            ok = verifyTouched(patched, touched);
            v += usSince(t);
            if (!ok)
                continue;
            t = nowNs();
            for (const std::size_t i : touched) {
                const auto prog = sim::Program::decode(
                    std::as_const(patched).function(i));
                (void)prog;
            }
            d += usSince(t);
        }
        tCompile.push_back(c);
        tPatch.push_back(p);
        tVerify.push_back(v);
        tCleanup.push_back(cl);
        tDecode.push_back(d);
    }
    m["compile.us_per_variant"] = median(tCompile) / n;
    m["patch.us_per_variant"] = median(tPatch) / n;
    m["verify.us_per_variant"] = median(tVerify) / n;
    m["cleanup.us_per_variant"] = median(tCleanup) / n;
    m["decode.us_per_variant"] = median(tDecode) / n;
    m["compile.reject_rate"] = static_cast<double>(rejects) / n;

    // ---- backend: the same batch in process and in forked workers ----
    std::vector<const std::vector<mut::Edit>*> batch;
    for (const auto* ind : members)
        batch.push_back(&ind->edits);
    core::EvolutionParams bp = in.params;
    bp.backend = core::EvalBackendKind::InProcess;
    const auto inproc = core::makeBackend(module, *in.fitness, bp);
    bp.backend = core::EvalBackendKind::Isolated;
    const auto isolated = core::makeBackend(module, *in.fitness, bp);
    std::vector<core::EvalOutcome> a, b;
    std::vector<double> ta, tb;
    for (int round = 0; round < 2; ++round) {
        std::int64_t t = nowNs();
        inproc->evaluateBatch(batch, nullptr, &a);
        ta.push_back(usSince(t) / 1e3);
        t = nowNs();
        isolated->evaluateBatch(batch, nullptr, &b);
        tb.push_back(usSince(t) / 1e3);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (a[i].failure != core::EvalFailure::None ||
            b[i].failure != core::EvalFailure::None ||
            !sameFitness(a[i].result, b[i].result)) {
            out.error = "replay: in-process and isolated backends disagree "
                        "on batch entry " +
                        std::to_string(i);
            return out;
        }
        // Elites carried into the next generation keep their fitness;
        // re-evaluating them must reproduce it bit for bit.
        if (members[i]->evaluated &&
            !sameFitness(members[i]->fitness, a[i].result)) {
            out.error = "replay: re-evaluated elite " + std::to_string(i) +
                        " differs from its recorded fitness";
            return out;
        }
    }
    m["backend.batch_overhead_ms"] = median(tb) - median(ta);

    // ---- select + breed, per island, on the evaluated populations ----
    mut::UniformSampler uniform;
    std::vector<mut::ProfileGuidedSampler> guided(st.islands.size());
    std::vector<core::Population> pops;
    std::vector<Rng> rngs;
    std::size_t k = 0;
    for (std::size_t i = 0; i < st.islands.size(); ++i) {
        const auto& island = st.islands[i];
        core::Population pop(module, in.params);
        pop.members() = island.members;
        for (auto& ind : pop.members()) {
            ind.fitness = a[k++].result;
            ind.evaluated = true;
        }
        pop.sortByFitness();
        pop.setSampler(&uniform);
        if (in.params.samplerKind == core::SamplerKind::Guided) {
            const auto cv = core::compileVariant(module, pop.best().edits);
            core::ProfileSummary summary;
            if (cv.ok && in.fitness->profileVariant(cv, &summary))
                guided[i].setProfile(summary.locIssues);
            pop.setSampler(&guided[i]);
        }
        if (in.params.adaptRates)
            pop.rates() =
                island.ratePending ? island.candidateRates : island.rates;
        Rng rng(0);
        rng.setState(island.rngState);
        pops.push_back(std::move(pop));
        rngs.push_back(rng);
    }
    std::vector<double> tBreed, tPareto;
    for (int round = 0; round < kRounds; ++round) {
        double br = 0, pa = 0;
        for (std::size_t i = 0; i < pops.size(); ++i) {
            std::vector<const core::FitnessResult*> results;
            std::vector<std::string> keys;
            for (const auto& ind : pops[i].members()) {
                if (ind.fitness.valid) {
                    results.push_back(&ind.fitness);
                    keys.push_back(core::VariantCache::keyOf(ind.edits));
                }
            }
            std::int64_t t = nowNs();
            const auto scores =
                core::paretoScores(results, keys, in.params.objectives);
            pa += usSince(t);
            (void)scores;

            core::Population child = pops[i];
            Rng rng = rngs[i];
            t = nowNs();
            child.breedNext(rng);
            br += usSince(t);
        }
        tBreed.push_back(br);
        tPareto.push_back(pa);
    }
    m["breed.us_per_child"] = median(tBreed) / n;
    m["pareto.sort_us_per_gen"] = median(tPareto);

    // ---- cache keying + lookup against the search's own cache file ----
    core::VariantCache cache;
    std::vector<std::pair<std::string, core::FitnessResult>> level0;
    for (const auto& rec : store.records) {
        if (rec.level == 0)
            level0.emplace_back(rec.key, rec.result);
    }
    cache.preload(level0);
    std::vector<double> tKey;
    for (int round = 0; round < kRounds; ++round) {
        const std::int64_t t = nowNs();
        for (const auto* ind : members) {
            core::FitnessResult hit;
            cache.lookup(core::VariantCache::keyOf(ind->edits), &hit);
        }
        tKey.push_back(usSince(t));
    }
    m["cache.key_us_per_request"] = median(tKey) / n;

    // ---- simulator speed: host time per simulated warp instruction ----
    double evalNs = 0.0;
    double warpInstrs = 0.0;
    std::size_t probes = 0;
    for (std::size_t i = 0; i < members.size() && probes < kScoreProbes;
         ++i) {
        if (!a[i].result.valid)
            continue;
        const auto cv = compiler.compile(members[i]->edits);
        core::ProfileSummary summary;
        if (!cv.ok || !in.appFitness->profileVariant(cv, &summary))
            continue;
        const std::int64_t t = nowNs();
        const auto r = in.appFitness->evaluate(cv);
        evalNs += static_cast<double>(nowNs() - t);
        (void)r;
        warpInstrs += static_cast<double>(summary.warpInstrs);
        ++probes;
    }
    m["score.ns_per_warp_instr"] =
        warpInstrs > 0.0 ? evalNs / warpInstrs : 0.0;

    // ---- wire: the farm Eval request/reply codecs ----
    std::vector<double> tCodec;
    double bytes = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        const std::int64_t t = nowNs();
        for (std::size_t i = 0; i < members.size(); ++i) {
            farm::EvalRequest req;
            req.seq = i;
            req.useCache = true;
            req.edits = members[i]->edits;
            const std::string q = farm::encodeEvalRequest(req);
            farm::EvalRequest reqBack;
            const bool okQ = farm::decodeEvalRequest(q, &reqBack);
            farm::EvalReply rep;
            rep.seq = i;
            rep.outcome = a[i];
            const std::string r = farm::encodeEvalReply(rep);
            farm::EvalReply repBack;
            const bool okR = farm::decodeEvalReply(r, &repBack);
            if (round == 0) {
                bytes += static_cast<double>(q.size() + r.size() +
                                             2 * farm::kFrameHeader);
                if (!okQ || !okR ||
                    mut::serializeEdits(reqBack.edits) !=
                        mut::serializeEdits(req.edits) ||
                    !sameFitness(repBack.outcome.result, a[i].result)) {
                    out.error = "replay: Eval codec round trip changed "
                                "entry " +
                                std::to_string(i);
                    return out;
                }
            }
        }
        tCodec.push_back(usSince(t));
    }
    m["wire.bytes_per_eval"] = bytes / n;
    m["wire.codec_us_per_eval"] = median(tCodec) / n;

    // ---- persist: re-save the loaded state and cache records ----
    const std::string ckPath = in.workDir + "/replay.ckpt";
    const std::string cachePath = in.workDir + "/replay.cache";
    std::vector<double> tCk, tCache;
    for (int round = 0; round < 3; ++round) {
        std::string err;
        std::int64_t t = nowNs();
        if (!core::saveCheckpoint(ckPath, 1, st, &err)) {
            out.error = "replay: saveCheckpoint: " + err;
            return out;
        }
        tCk.push_back(usSince(t) / 1e3);
        t = nowNs();
        if (!core::saveCacheStore(cachePath, 1, store.records, &err)) {
            out.error = "replay: saveCacheStore: " + err;
            return out;
        }
        tCache.push_back(usSince(t) / 1e3);
    }
    m["persist.checkpoint_ms"] = median(tCk);
    m["persist.checkpoint_mb"] =
        static_cast<double>(std::filesystem::file_size(ckPath)) / 1e6;
    m["persist.cache_save_ms"] = median(tCache);
    m["persist.cache_mb"] =
        static_cast<double>(std::filesystem::file_size(cachePath)) / 1e6;
    return out;
}

} // namespace perfbench
