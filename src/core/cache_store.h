/// \file
/// On-disk persistence for the variant caches: a versioned,
/// content-addressed record store that survives process boundaries.
///
/// The two cache levels key on content, not on process state — the
/// canonical edit-list encoding and `sim::ProgramSet::contentKey` are
/// byte-identical across runs — so compile/score work done by one search
/// is directly reusable by the next (and by islands running in separate
/// processes against the same workload). GEVO-scale campaigns (256 x 300
/// evaluations, repeated across seeds and restarts) only amortize their
/// evaluation cost if it survives restarts; this store is that boundary.
///
/// File format (all integers little-endian):
///
///   header   "GEVOCACH" magic (8 bytes) + u32 format version
///            + u64 scope fingerprint
///   record*  u32 payloadLen | u32 crc32(payload) | payload
///   payload  u8 level | u32 keyLen | key bytes | FitnessResult
///            (core::encodeFitness)
///
/// The record framing and the FitnessResult encoding are the shared
/// codec (support/bytes.h, core/fitness.h) the checkpoint and the farm
/// protocol use too.
///
/// The scope fingerprint binds a file to the search it can accelerate.
/// Level-0 keys encode only the edit list — two different workloads
/// produce colliding keys (the empty list, for one) with entirely
/// different fitness values — so the engine derives the fingerprint from
/// the compiled baseline program content plus the fitness function's
/// description (which names the app, dataset scale and device) and the
/// loader rejects files saved under any other scope, exactly like a
/// version mismatch: a clean, warned-about cold start.
///
/// The record stream is append-friendly and self-checking: every record
/// carries its own CRC, so a partially written tail (crash mid-save, disk
/// full, concurrent copy) or a flipped byte is detected at the damaged
/// record and the loader keeps everything before it. Loading NEVER aborts
/// the search — a missing, unreadable, version-mismatched or corrupted
/// file degrades to a cold start (the cache is an accelerator, not a
/// source of truth: every entry is deterministically recomputable).
///
/// Saving writes the whole snapshot to `path + ".tmp"` and renames it
/// over the target, so readers only ever observe a complete old file or a
/// complete new file. Records are emitted in the caches' deterministic
/// snapshot order (least-recently-used first — see
/// `VariantCache::snapshot`), which makes a load/save cycle reproduce LRU
/// eviction order exactly.

#ifndef GEVO_CORE_CACHE_STORE_H
#define GEVO_CORE_CACHE_STORE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/fitness.h"
#include "support/bytes.h" // crc32, for tests that craft damaged files.

namespace gevo::core {

/// Current file-format version. Bump on any layout change: the loader
/// rejects other versions wholesale (a half-understood cache is worse
/// than a cold start). v2 replaced the single fitness scalar with the
/// objective vector.
inline constexpr std::uint32_t kCacheStoreVersion = 2;

/// One persisted cache entry. `level` says which cache the key belongs
/// to: 0 = canonical edit-list key, 1 = compiled-program content key.
/// Unknown levels are preserved by load/save but ignored by the engine
/// (room for future cache levels without a version bump).
struct CacheStoreRecord {
    std::uint8_t level = 0;
    std::string key;
    FitnessResult result;
};

/// Outcome of reading a cache file.
struct CacheLoadResult {
    enum class Status {
        Ok,              ///< Header valid; `records` holds the good prefix.
        Missing,         ///< No file at the path (normal first run).
        BadHeader,       ///< Too short / wrong magic — not a cache file.
        VersionMismatch, ///< A cache file, but another format version.
        ScopeMismatch,   ///< Saved for a different workload/scale/device.
    };

    Status status = Status::Missing;
    std::vector<CacheStoreRecord> records;
    /// True when a damaged or incomplete tail was dropped (the records
    /// before it are still good and returned).
    bool truncated = false;
    /// Bytes of damaged tail that were skipped.
    std::size_t skippedBytes = 0;
    /// Human-readable detail for warnings (empty when clean).
    std::string message;

    /// File contributed usable records (possibly zero on an empty store).
    bool usable() const { return status == Status::Ok; }
};

/// Read a cache file. \p expectedScope must match the fingerprint the
/// file was saved with (see the header comment); 0 skips the check
/// (diagnostic tooling). Never throws and never terminates: every
/// failure mode maps to a CacheLoadResult the caller can warn about and
/// ignore.
CacheLoadResult loadCacheStore(const std::string& path,
                               std::uint64_t expectedScope = 0);

/// Atomically replace \p path with a store holding \p records under
/// \p scope (write to a process-unique `path + ".tmp.<id>"`, then
/// rename — concurrent savers cannot tear each other's temp files, and
/// readers only ever see a complete old or complete new file). Returns
/// false with \p error set when the file cannot be written; the previous
/// file, if any, is left intact in that case.
bool saveCacheStore(const std::string& path, std::uint64_t scope,
                    const std::vector<CacheStoreRecord>& records,
                    std::string* error = nullptr);

/// saveCacheStore, but first union \p records with whatever a same-scope
/// file at \p path already holds ((level, key) identity; \p records win
/// on collision — harmless, since both sides of a collision are values of
/// the same deterministic function). Two searches sharing a cache path
/// interleave their saves without clobbering each other's entries: each
/// save preserves everything the other has published so far, instead of
/// last-writer-wins discarding it. Disk-only entries are emitted first,
/// in file order, so they re-enter LRU older than this process's own
/// (fresher) snapshot. A missing, mismatched or damaged existing file
/// contributes nothing (its good prefix still merges when only the tail
/// is damaged). Returns false with \p error set only when the final
/// write fails.
bool mergeSaveCacheStore(const std::string& path, std::uint64_t scope,
                         const std::vector<CacheStoreRecord>& records,
                         std::string* error = nullptr);

} // namespace gevo::core

#endif // GEVO_CORE_CACHE_STORE_H
