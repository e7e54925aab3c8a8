/// \file
/// The byte codec every binary encoding in the repository shares: the
/// canonical content keys (core::VariantCache edit-list keys,
/// sim::ProgramSet::contentKey), the checkpoint and cache-store files
/// (core/checkpoint.h, core/cache_store.h) and the farm wire protocol
/// (farm/protocol.h).
///
/// Integers are little-endian, doubles travel as their exact IEEE-754
/// bit pattern, strings are u32-length-prefixed. A CRC record is
/// `u32 payloadLen | u32 crc32(payload) | payload`; the two files are
/// sequences of them and a farm frame is one behind a magic word.
/// ByteReader is the one bounds-checked decoder: every read reports
/// overrun instead of reading past the end, and element counts are
/// checked against the bytes that remain before anything is allocated
/// for them, so a hostile or damaged input can fail a decode but never
/// crash or balloon the process.

#ifndef GEVO_SUPPORT_BYTES_H
#define GEVO_SUPPORT_BYTES_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gevo {

inline void
appendLeU32(std::string* out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void
appendLeU64(std::string* out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void
appendLeI64(std::string* out, std::int64_t v)
{
    appendLeU64(out, static_cast<std::uint64_t>(v));
}

/// Exact bits: a decoded double compares equal to the encoded one.
inline void
appendDouble(std::string* out, double v)
{
    appendLeU64(out, std::bit_cast<std::uint64_t>(v));
}

/// u32 length prefix, then the bytes.
inline void
appendString(std::string* out, std::string_view s)
{
    appendLeU32(out, static_cast<std::uint32_t>(s.size()));
    out->append(s);
}

/// Decoders mirroring the appenders above. \pre at least 4/8 readable
/// bytes at \p p.
inline std::uint32_t
readLeU32(const char* p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | static_cast<std::uint8_t>(p[i]);
    return v;
}

inline std::uint64_t
readLeU64(const char* p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<std::uint8_t>(p[i]);
    return v;
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of \p size bytes.
std::uint32_t crc32(const char* data, std::size_t size);

/// True when \p count elements of at least \p minElemBytes encoded bytes
/// each can fit in \p bytesLeft (overflow-safe).
inline bool
countFits(std::uint64_t count, std::size_t minElemBytes,
          std::size_t bytesLeft)
{
    return minElemBytes == 0 || count <= bytesLeft / minElemBytes;
}

/// Bounds-checked sequential reader over one payload. Every method
/// returns false on overrun (leaving the output unspecified); callers
/// chain them with && and map any failure to their own "corrupt" verdict.
/// Inline: the cache-store loader runs it over every record of a file.
class ByteReader {
  public:
    explicit ByteReader(std::string_view bytes = {})
        : p_(bytes.data()), left_(bytes.size())
    {
    }

    bool
    u8(std::uint8_t* out)
    {
        const char* at = nullptr;
        if (!take(1, &at))
            return false;
        *out = static_cast<std::uint8_t>(*at);
        return true;
    }

    /// One byte, nonzero = true.
    bool
    flag(bool* out)
    {
        std::uint8_t v = 0;
        if (!u8(&v))
            return false;
        *out = v != 0;
        return true;
    }

    bool
    u32(std::uint32_t* out)
    {
        const char* at = nullptr;
        if (!take(4, &at))
            return false;
        *out = readLeU32(at);
        return true;
    }

    bool
    u64(std::uint64_t* out)
    {
        const char* at = nullptr;
        if (!take(8, &at))
            return false;
        *out = readLeU64(at);
        return true;
    }

    /// A u64 narrowed to size_t.
    bool
    size(std::size_t* out)
    {
        std::uint64_t v = 0;
        if (!u64(&v))
            return false;
        *out = static_cast<std::size_t>(v);
        return true;
    }

    bool
    f64(double* out)
    {
        std::uint64_t bits = 0;
        if (!u64(&bits))
            return false;
        *out = std::bit_cast<double>(bits);
        return true;
    }

    bool
    str(std::string* out)
    {
        std::uint32_t n = 0;
        const char* at = nullptr;
        if (!u32(&n) || !take(n, &at))
            return false;
        out->assign(at, n);
        return true;
    }

    /// Element counts: read a u32 (count32) or u64 (count64) count and
    /// reject it unless that many elements of at least \p minElemBytes
    /// each fit in the bytes left — the check that keeps a corrupted
    /// count from driving a huge allocation.
    bool
    count32(std::size_t* out, std::size_t minElemBytes)
    {
        std::uint32_t n = 0;
        if (!u32(&n) || !countFits(n, minElemBytes, left_))
            return false;
        *out = n;
        return true;
    }

    bool
    count64(std::size_t* out, std::size_t minElemBytes)
    {
        std::uint64_t n = 0;
        if (!u64(&n) || !countFits(n, minElemBytes, left_))
            return false;
        *out = static_cast<std::size_t>(n);
        return true;
    }

    std::size_t left() const { return left_; }
    bool done() const { return left_ == 0; }

  private:
    bool
    take(std::size_t n, const char** at)
    {
        if (left_ < n)
            return false;
        *at = p_;
        p_ += n;
        left_ -= n;
        return true;
    }

    const char* p_;
    std::size_t left_;
};

/// CRC record header: u32 payloadLen | u32 crc32(payload).
inline constexpr std::size_t kRecordHeader = 8;
/// Sanity bound on one record payload (the largest real ones — a
/// checkpointed island, an edit list — are a few MB); anything larger
/// is corruption.
inline constexpr std::size_t kMaxRecordPayload = std::size_t{1} << 26;

/// Append one CRC record holding \p payload to \p out.
void appendRecord(std::string* out, std::string_view payload);

enum class RecordStatus {
    Ok,        ///< *payload views the record; *pos moved past it.
    Truncated, ///< The record does not end within \p bytes (yet).
    Corrupt,   ///< Oversized length or CRC mismatch.
};

/// Read the CRC record starting at \p bytes[*pos]. Files treat both
/// failures as damage; a stream reader waits for more bytes on
/// Truncated.
RecordStatus readRecord(std::string_view bytes, std::size_t* pos,
                        std::string_view* payload);

} // namespace gevo

#endif // GEVO_SUPPORT_BYTES_H
