/// The shared byte codec: the bounds-checked reader refuses overruns and
/// element counts that cannot fit in the bytes left, and the CRC record
/// reader tells a record still arriving from a damaged one.

#include "support/bytes.h"

#include <gtest/gtest.h>

namespace gevo {
namespace {

TEST(ByteReader, RoundTripsEveryFieldKind)
{
    std::string bytes;
    bytes.push_back(1);
    appendLeU32(&bytes, 0xdeadbeefu);
    appendLeU64(&bytes, 0x0123456789abcdefull);
    appendDouble(&bytes, -0.1);
    appendString(&bytes, std::string("a\0b", 3));

    ByteReader in(bytes);
    bool flag = false;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    double f64 = 0.0;
    std::string str;
    ASSERT_TRUE(in.flag(&flag) && in.u32(&u32) && in.u64(&u64) &&
                in.f64(&f64) && in.str(&str));
    EXPECT_TRUE(flag);
    EXPECT_EQ(u32, 0xdeadbeefu);
    EXPECT_EQ(u64, 0x0123456789abcdefull);
    EXPECT_EQ(f64, -0.1);
    EXPECT_EQ(str, std::string("a\0b", 3));
    EXPECT_TRUE(in.done());
    std::uint8_t extra = 0;
    EXPECT_FALSE(in.u8(&extra));
}

TEST(ByteReader, StringLongerThanThePayloadIsRejected)
{
    std::string bytes;
    appendLeU32(&bytes, 5);
    bytes += "abcd";
    ByteReader in(bytes);
    std::string str;
    EXPECT_FALSE(in.str(&str));
}

TEST(ByteReader, CountsMustFitInTheBytesLeft)
{
    std::string bytes;
    appendLeU32(&bytes, 3);
    bytes.append(24, '\0'); // Exactly three 8-byte elements.
    std::size_t n = 0;
    EXPECT_TRUE(ByteReader(bytes).count32(&n, 8));
    EXPECT_EQ(n, 3u);
    EXPECT_FALSE(ByteReader(bytes).count32(&n, 9));

    std::string huge;
    appendLeU64(&huge, ~0ull);
    EXPECT_FALSE(ByteReader(huge).count64(&n, 1));
    EXPECT_TRUE(countFits(~0ull, 0, 0)); // Zero-size elements always fit.
}

TEST(Record, ReadsBackWhatWasAppended)
{
    std::string bytes;
    appendRecord(&bytes, "first");
    appendRecord(&bytes, "");
    std::size_t pos = 0;
    std::string_view payload;
    ASSERT_EQ(readRecord(bytes, &pos, &payload), RecordStatus::Ok);
    EXPECT_EQ(payload, "first");
    ASSERT_EQ(readRecord(bytes, &pos, &payload), RecordStatus::Ok);
    EXPECT_EQ(payload, "");
    EXPECT_EQ(pos, bytes.size());
}

TEST(Record, ShortInputIsTruncatedAndDamageIsCorrupt)
{
    std::string bytes;
    appendRecord(&bytes, "payload");
    std::string_view payload;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::size_t pos = 0;
        EXPECT_EQ(readRecord(std::string_view(bytes).substr(0, cut), &pos,
                             &payload),
                  RecordStatus::Truncated)
            << "cut " << cut;
        EXPECT_EQ(pos, 0u);
    }
    auto flipped = bytes;
    flipped.back() ^= 1;
    std::size_t pos = 0;
    EXPECT_EQ(readRecord(flipped, &pos, &payload), RecordStatus::Corrupt);

    std::string oversized;
    appendLeU32(&oversized, kMaxRecordPayload + 1);
    appendLeU32(&oversized, 0);
    pos = 0;
    EXPECT_EQ(readRecord(oversized, &pos, &payload), RecordStatus::Corrupt);
}

} // namespace
} // namespace gevo
