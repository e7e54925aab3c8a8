#include "support/bytes.h"

#include <array>

namespace gevo {

std::uint32_t
crc32(const char* data, std::size_t size)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ static_cast<std::uint8_t>(data[i])) & 0xff] ^
              (crc >> 8);
    return crc ^ 0xffffffffu;
}

void
appendRecord(std::string* out, std::string_view payload)
{
    appendLeU32(out, static_cast<std::uint32_t>(payload.size()));
    appendLeU32(out, crc32(payload.data(), payload.size()));
    out->append(payload);
}

RecordStatus
readRecord(std::string_view bytes, std::size_t* pos,
           std::string_view* payload)
{
    if (bytes.size() - *pos < kRecordHeader)
        return RecordStatus::Truncated;
    const std::uint32_t len = readLeU32(bytes.data() + *pos);
    const std::uint32_t crc = readLeU32(bytes.data() + *pos + 4);
    if (len > kMaxRecordPayload)
        return RecordStatus::Corrupt;
    if (bytes.size() - *pos - kRecordHeader < len)
        return RecordStatus::Truncated;
    const char* body = bytes.data() + *pos + kRecordHeader;
    if (crc32(body, len) != crc)
        return RecordStatus::Corrupt;
    *payload = std::string_view(body, len);
    *pos += kRecordHeader + len;
    return RecordStatus::Ok;
}

} // namespace gevo
