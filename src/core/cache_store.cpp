#include "core/cache_store.h"

#include <cstring>
#include <fstream>
#include <unordered_set>

#include "support/bytes.h"
#include "support/io.h"
#include "support/strings.h"

namespace gevo::core {

namespace {

constexpr char kMagic[8] = {'G', 'E', 'V', 'O', 'C', 'A', 'C', 'H'};
/// magic + u32 version + u64 scope fingerprint.
constexpr std::size_t kHeaderSize = sizeof(kMagic) + 4 + 8;

/// Parse one payload into \p out. False when the payload's internal
/// lengths do not add up (CRC passed but the writer was broken — treat as
/// corruption all the same).
bool
parsePayload(std::string_view payload, CacheStoreRecord* out)
{
    ByteReader in(payload);
    return in.u8(&out->level) && in.str(&out->key) &&
           decodeFitness(&in, &out->result) && in.done();
}

void
appendPayload(std::string* out, const CacheStoreRecord& rec)
{
    out->push_back(static_cast<char>(rec.level));
    appendString(out, rec.key);
    encodeFitness(out, rec.result);
}

} // namespace

CacheLoadResult
loadCacheStore(const std::string& path, std::uint64_t expectedScope)
{
    CacheLoadResult res;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        res.status = CacheLoadResult::Status::Missing;
        return res;
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad()) {
        res.status = CacheLoadResult::Status::BadHeader;
        res.message = "read error";
        return res;
    }

    if (bytes.size() < kHeaderSize ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        res.status = CacheLoadResult::Status::BadHeader;
        res.message = "not a gevo cache file";
        return res;
    }
    const std::uint32_t version = readLeU32(bytes.data() + sizeof(kMagic));
    if (version != kCacheStoreVersion) {
        res.status = CacheLoadResult::Status::VersionMismatch;
        res.message = strformat("format version %u, expected %u", version,
                                kCacheStoreVersion);
        return res;
    }
    const std::uint64_t scope = readLeU64(bytes.data() + sizeof(kMagic) + 4);
    if (expectedScope != 0 && scope != expectedScope) {
        res.status = CacheLoadResult::Status::ScopeMismatch;
        res.message = "saved for a different workload/scale/device";
        return res;
    }
    res.status = CacheLoadResult::Status::Ok;

    std::size_t pos = kHeaderSize;
    std::string_view payload;
    CacheStoreRecord rec;
    // Any malformed record ends the usable stream: everything from here
    // on is a damaged tail we skip (a crash mid-append or a flipped byte
    // cannot damage records before it).
    while (pos < bytes.size()) {
        std::size_t next = pos;
        if (readRecord(bytes, &next, &payload) != RecordStatus::Ok ||
            !parsePayload(payload, &rec))
            break;
        res.records.push_back(std::move(rec));
        pos = next;
    }
    if (pos < bytes.size()) {
        res.truncated = true;
        res.skippedBytes = bytes.size() - pos;
        res.message = strformat("damaged tail: skipped %zu trailing bytes "
                                "after %zu good records",
                                res.skippedBytes, res.records.size());
    }
    return res;
}

bool
saveCacheStore(const std::string& path, std::uint64_t scope,
               const std::vector<CacheStoreRecord>& records,
               std::string* error)
{
    // Streamed record by record: a store holds every cache entry, so a
    // whole-file buffer would add its size to peak memory.
    return replaceFile(
        path,
        [&](std::ostream& file) {
            std::string chunk(kMagic, sizeof(kMagic));
            appendLeU32(&chunk, kCacheStoreVersion);
            appendLeU64(&chunk, scope);
            file.write(chunk.data(),
                       static_cast<std::streamsize>(chunk.size()));
            std::string payload;
            for (const auto& rec : records) {
                payload.clear();
                appendPayload(&payload, rec);
                chunk.clear();
                appendRecord(&chunk, payload);
                file.write(chunk.data(),
                           static_cast<std::streamsize>(chunk.size()));
            }
        },
        error);
}

bool
mergeSaveCacheStore(const std::string& path, std::uint64_t scope,
                    const std::vector<CacheStoreRecord>& records,
                    std::string* error)
{
    // Read-merge-write is not atomic as a whole — a save landing between
    // our load and our rename wins the rename race and its entries are
    // picked up by OUR next merge instead. Every published file is still
    // complete and self-consistent; interleaving only delays union, it
    // never corrupts.
    const CacheLoadResult existing = loadCacheStore(path, scope);
    if (!existing.usable() || existing.records.empty())
        return saveCacheStore(path, scope, records, error);

    std::unordered_set<std::string> fresh;
    fresh.reserve(records.size());
    for (const auto& rec : records)
        fresh.insert(static_cast<char>(rec.level) + rec.key);

    std::vector<CacheStoreRecord> merged;
    merged.reserve(existing.records.size() + records.size());
    for (const auto& rec : existing.records) {
        if (!fresh.count(static_cast<char>(rec.level) + rec.key))
            merged.push_back(rec);
    }
    merged.insert(merged.end(), records.begin(), records.end());
    return saveCacheStore(path, scope, merged, error);
}

} // namespace gevo::core
