#include "core/checkpoint.h"

#include <cstring>
#include <fstream>

#include "support/bytes.h"
#include "support/io.h"
#include "support/strings.h"

namespace gevo::core {

namespace {

constexpr char kMagic[8] = {'G', 'E', 'V', 'O', 'C', 'K', 'P', 'T'};
/// magic + u32 version + u64 scope fingerprint.
constexpr std::size_t kHeaderSize = sizeof(kMagic) + 4 + 8;

/// Smallest encodings, for the element-count checks: an individual with
/// no edits, reason or objectives; a sampler config; a generation log
/// with empty lists; an island with no members.
constexpr std::size_t kMinIndividual = 4 + kMinEncodedFitness + 1;
constexpr std::size_t kRatesBytes = 7 * 8;
constexpr std::size_t kMinLog = 4 + 2 * 8 + 9 * 8 + 4 + 4 + 4;
constexpr std::size_t kMinIsland = 4 * 8 + 8 + 8 + 2 * kRatesBytes + 1 + 8;

// ---- payload builders ----

void
appendIndividual(std::string* out, const Individual& ind)
{
    appendString(out, mut::serializeEdits(ind.edits));
    encodeFitness(out, ind.fitness);
    out->push_back(ind.evaluated ? 1 : 0);
}

void
appendSamplerConfig(std::string* out, const mut::SamplerConfig& cfg)
{
    appendDouble(out, cfg.wDelete);
    appendDouble(out, cfg.wCopy);
    appendDouble(out, cfg.wMove);
    appendDouble(out, cfg.wReplace);
    appendDouble(out, cfg.wSwap);
    appendDouble(out, cfg.wOperand);
    appendDouble(out, cfg.exploreFloor);
}

void
appendLog(std::string* out, const GenerationLog& log)
{
    appendLeU32(out, log.generation);
    appendDouble(out, log.bestMs);
    appendDouble(out, log.meanMs);
    appendLeU64(out, log.validCount);
    appendLeU64(out, log.evaluations);
    appendLeU64(out, log.cacheHits);
    appendLeU64(out, log.cacheMisses);
    appendLeU64(out, log.workerCrashes);
    appendLeU64(out, log.workerTimeouts);
    appendLeU64(out, log.protocolErrors);
    appendLeU64(out, log.quarantineHits);
    appendLeU64(out, log.paretoFrontSize);
    appendString(out, mut::serializeEdits(log.bestEdits));
    appendLeU32(out, static_cast<std::uint32_t>(log.islandBestMs.size()));
    for (const double ms : log.islandBestMs)
        appendDouble(out, ms);
    appendLeU32(out, static_cast<std::uint32_t>(log.islandRates.size()));
    for (const auto& rates : log.islandRates)
        appendSamplerConfig(out, rates);
}

// ---- payload parsers (false = Corrupt) ----

bool
parseIndividual(ByteReader* in, Individual* out)
{
    std::string edits;
    return in->str(&edits) && mut::deserializeEdits(edits, &out->edits) &&
           decodeFitness(in, &out->fitness) && in->flag(&out->evaluated);
}

bool
parseSamplerConfig(ByteReader* in, mut::SamplerConfig* out)
{
    return in->f64(&out->wDelete) && in->f64(&out->wCopy) &&
           in->f64(&out->wMove) && in->f64(&out->wReplace) &&
           in->f64(&out->wSwap) && in->f64(&out->wOperand) &&
           in->f64(&out->exploreFloor);
}

bool
parseLog(ByteReader* in, GenerationLog* out)
{
    std::string edits;
    std::size_t islandCount = 0;
    if (!in->u32(&out->generation) || !in->f64(&out->bestMs) ||
        !in->f64(&out->meanMs) || !in->size(&out->validCount) ||
        !in->size(&out->evaluations) || !in->size(&out->cacheHits) ||
        !in->size(&out->cacheMisses) || !in->size(&out->workerCrashes) ||
        !in->size(&out->workerTimeouts) ||
        !in->size(&out->protocolErrors) ||
        !in->size(&out->quarantineHits) ||
        !in->size(&out->paretoFrontSize) || !in->str(&edits) ||
        !mut::deserializeEdits(edits, &out->bestEdits) ||
        !in->count32(&islandCount, 8))
        return false;
    out->islandBestMs.resize(islandCount);
    for (auto& ms : out->islandBestMs) {
        if (!in->f64(&ms))
            return false;
    }
    std::size_t ratesCount = 0;
    if (!in->count32(&ratesCount, kRatesBytes) || ratesCount > 4096)
        return false;
    out->islandRates.resize(ratesCount);
    for (auto& rates : out->islandRates) {
        if (!parseSamplerConfig(in, &rates))
            return false;
    }
    return true;
}

/// Pull the next CRC record out of \p bytes at \p pos. False on
/// truncation, oversize, or CRC mismatch — all Corrupt.
bool
nextRecord(std::string_view bytes, std::size_t* pos, ByteReader* out)
{
    std::string_view payload;
    if (readRecord(bytes, pos, &payload) != RecordStatus::Ok)
        return false;
    *out = ByteReader(payload);
    return true;
}

} // namespace

CheckpointLoadResult
loadCheckpoint(const std::string& path, std::uint64_t expectedScope)
{
    CheckpointLoadResult res;
    auto corrupt = [&](const char* what) {
        res.status = CheckpointLoadResult::Status::Corrupt;
        res.state = CheckpointState{};
        res.message = strformat("damaged checkpoint (%s)", what);
        return res;
    };

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        res.status = CheckpointLoadResult::Status::Missing;
        return res;
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad()) {
        res.status = CheckpointLoadResult::Status::BadHeader;
        res.message = "read error";
        return res;
    }
    if (bytes.size() < kHeaderSize ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        res.status = CheckpointLoadResult::Status::BadHeader;
        res.message = "not a gevo checkpoint file";
        return res;
    }
    const std::uint32_t version = readLeU32(bytes.data() + sizeof(kMagic));
    if (version != kCheckpointVersion) {
        res.status = CheckpointLoadResult::Status::VersionMismatch;
        res.message = strformat("format version %u, expected %u", version,
                                kCheckpointVersion);
        return res;
    }
    const std::uint64_t scope = readLeU64(bytes.data() + sizeof(kMagic) + 4);
    if (expectedScope != 0 && scope != expectedScope) {
        res.status = CheckpointLoadResult::Status::ScopeMismatch;
        res.message = "saved by a trajectory-incompatible search "
                      "(different workload, seed or parameters)";
        return res;
    }

    std::size_t pos = kHeaderSize;
    ByteReader c;

    // meta: generation | finished | baselineMs | islands | history
    // | quarantine | pareto-front counts.
    std::size_t islandCount = 0;
    std::size_t historyCount = 0;
    std::size_t quarantineCount = 0;
    std::size_t frontCount = 0;
    if (!nextRecord(bytes, &pos, &c))
        return corrupt("meta record");
    if (!c.u32(&res.state.generation) || !c.flag(&res.state.finished) ||
        !c.f64(&res.state.baselineMs) || !c.size(&islandCount) ||
        !c.size(&historyCount) || !c.size(&quarantineCount) ||
        !c.size(&frontCount) || !c.done())
        return corrupt("meta record");
    // Count sanity: a corrupted-but-CRC-valid meta must not drive
    // gigabyte allocations. Islands and history entries are one record
    // each, so their counts must also fit in the rest of the file.
    const std::size_t rest = bytes.size() - pos;
    if (islandCount > 4096 || historyCount > (1u << 24) ||
        quarantineCount > (1u << 24) || frontCount > (1u << 24) ||
        !countFits(islandCount, kRecordHeader + kMinIsland, rest) ||
        !countFits(historyCount, kRecordHeader + kMinLog, rest))
        return corrupt("meta counts");

    if (!nextRecord(bytes, &pos, &c) ||
        !parseIndividual(&c, &res.state.best) || !c.done())
        return corrupt("best-individual record");

    res.state.islands.resize(islandCount);
    for (auto& island : res.state.islands) {
        if (!nextRecord(bytes, &pos, &c))
            return corrupt("island record");
        for (auto& word : island.rngState) {
            if (!c.u64(&word))
                return corrupt("island record");
        }
        std::size_t memberCount = 0;
        if (!c.f64(&island.bestMs) ||
            !c.count64(&memberCount, kMinIndividual) ||
            memberCount > (1u << 24))
            return corrupt("island record");
        island.members.resize(memberCount);
        for (auto& member : island.members) {
            if (!parseIndividual(&c, &member))
                return corrupt("island member");
        }
        if (!parseSamplerConfig(&c, &island.rates) ||
            !parseSamplerConfig(&c, &island.candidateRates) ||
            !c.flag(&island.ratePending) || !c.f64(&island.rateLastBest))
            return corrupt("island rate state");
        if (!c.done())
            return corrupt("island record");
    }

    res.state.history.resize(historyCount);
    for (auto& log : res.state.history) {
        if (!nextRecord(bytes, &pos, &c) || !parseLog(&c, &log) ||
            !c.done())
            return corrupt("history record");
    }

    if (!nextRecord(bytes, &pos, &c) ||
        !countFits(quarantineCount, 4, c.left()))
        return corrupt("quarantine record");
    res.state.quarantine.resize(quarantineCount);
    for (auto& key : res.state.quarantine) {
        if (!c.str(&key))
            return corrupt("quarantine record");
    }
    if (!c.done())
        return corrupt("quarantine record");

    if (!nextRecord(bytes, &pos, &c) ||
        !countFits(frontCount, kMinIndividual, c.left()))
        return corrupt("pareto-front record");
    res.state.paretoFront.resize(frontCount);
    for (auto& ind : res.state.paretoFront) {
        if (!parseIndividual(&c, &ind))
            return corrupt("pareto-front record");
    }
    if (!c.done())
        return corrupt("pareto-front record");

    // One consistent state means exactly these records: trailing bytes
    // are damage (or a writer this version does not understand).
    if (pos != bytes.size())
        return corrupt("trailing bytes");

    res.status = CheckpointLoadResult::Status::Ok;
    return res;
}

bool
saveCheckpoint(const std::string& path, std::uint64_t scope,
               const CheckpointState& state, std::string* error)
{
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    appendLeU32(&out, kCheckpointVersion);
    appendLeU64(&out, scope);

    std::string payload;
    appendLeU32(&payload, state.generation);
    payload.push_back(state.finished ? 1 : 0);
    appendDouble(&payload, state.baselineMs);
    appendLeU64(&payload, state.islands.size());
    appendLeU64(&payload, state.history.size());
    appendLeU64(&payload, state.quarantine.size());
    appendLeU64(&payload, state.paretoFront.size());
    appendRecord(&out, payload);

    payload.clear();
    appendIndividual(&payload, state.best);
    appendRecord(&out, payload);

    for (const auto& island : state.islands) {
        payload.clear();
        for (const std::uint64_t word : island.rngState)
            appendLeU64(&payload, word);
        appendDouble(&payload, island.bestMs);
        appendLeU64(&payload, island.members.size());
        for (const auto& member : island.members)
            appendIndividual(&payload, member);
        appendSamplerConfig(&payload, island.rates);
        appendSamplerConfig(&payload, island.candidateRates);
        payload.push_back(island.ratePending ? 1 : 0);
        appendDouble(&payload, island.rateLastBest);
        appendRecord(&out, payload);
    }

    for (const auto& log : state.history) {
        payload.clear();
        appendLog(&payload, log);
        appendRecord(&out, payload);
    }

    payload.clear();
    for (const auto& key : state.quarantine)
        appendString(&payload, key);
    appendRecord(&out, payload);

    payload.clear();
    for (const auto& ind : state.paretoFront)
        appendIndividual(&payload, ind);
    appendRecord(&out, payload);

    return replaceFile(
        path,
        [&](std::ostream& file) {
            file.write(out.data(), static_cast<std::streamsize>(out.size()));
        },
        error);
}

} // namespace gevo::core
