#include "sim/device_memory.h"

#include <gtest/gtest.h>

#include <limits>

namespace gevo::sim {
namespace {

TEST(DeviceMemory, AllocationsAreAlignedAndDisjoint)
{
    DeviceMemory mem(1 << 20);
    const auto a = mem.alloc(100);
    const auto b = mem.alloc(100);
    EXPECT_EQ(a % DeviceMemory::kAlign, 0);
    EXPECT_EQ(b % DeviceMemory::kAlign, 0);
    EXPECT_GE(b, a + 100);
}

TEST(DeviceMemory, TypedHostAccessRoundTrips)
{
    DeviceMemory mem(1 << 16);
    const auto p = mem.alloc(64);
    mem.write<float>(p, 2.5f);
    mem.write<std::int32_t>(p + 4, -7);
    EXPECT_FLOAT_EQ(mem.read<float>(p), 2.5f);
    EXPECT_EQ(mem.read<std::int32_t>(p + 4), -7);
}

TEST(DeviceMemory, MappedEndIsPageRounded)
{
    DeviceMemory mem(1 << 20);
    mem.alloc(100); // used = 256 after alignment
    EXPECT_EQ(mem.mappedEnd(), DeviceMemory::kPage);
    mem.alloc(DeviceMemory::kPage);
    EXPECT_EQ(mem.mappedEnd(), 2 * DeviceMemory::kPage);
}

TEST(DeviceMemory, SmallOverrunPastLastAllocationIsMapped)
{
    // The Sec VI-D mechanism: a boundary-check-free stencil reads a few
    // hundred bytes past its grid. Within the page slack that is mapped...
    DeviceMemory mem(1 << 20);
    const auto grid = mem.alloc(100 * 4);
    EXPECT_TRUE(mem.mapped(grid + 100 * 4 + 128, 4));
}

TEST(DeviceMemory, LargeOverrunFaults)
{
    // ...but past the page-rounded extent it is not (the "large grid
    // segfault").
    DeviceMemory mem(1 << 20);
    const auto grid = mem.alloc(100 * 4);
    EXPECT_FALSE(mem.mapped(grid + DeviceMemory::kPage + 8, 4));
}

TEST(DeviceMemory, NegativeAddressesNeverMapped)
{
    DeviceMemory mem(1 << 16);
    EXPECT_FALSE(mem.mapped(-4, 4));
    EXPECT_FALSE(mem.mapped(-1, 1));
}

TEST(DeviceMemory, AddressesNearInt64MaxNeverMapped)
{
    // addr + size would wrap negative: the check must not compute it.
    DeviceMemory mem(1 << 16);
    mem.alloc(64);
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    EXPECT_FALSE(mem.mapped(kMax - 1, 4));
    EXPECT_FALSE(mem.mapped(kMax, 1));
    EXPECT_FALSE(mem.mapped(0, kMax));
    EXPECT_TRUE(mem.mapped(mem.mappedEnd() - 4, 4));
    EXPECT_FALSE(mem.mapped(mem.mappedEnd() - 3, 4));
}

TEST(DeviceMemory, ResetZeroesAndReclaims)
{
    DeviceMemory mem(1 << 16);
    const auto p = mem.alloc(16);
    mem.write<std::int32_t>(p, 42);
    mem.reset();
    EXPECT_EQ(mem.used(), 0);
    const auto q = mem.alloc(16);
    EXPECT_EQ(q, p);
    EXPECT_EQ(mem.read<std::int32_t>(q), 0);
}

TEST(DeviceMemory, ArenaStartsZeroed)
{
    DeviceMemory mem(4096);
    const auto p = mem.alloc(64);
    for (int i = 0; i < 64; i += 4)
        EXPECT_EQ(mem.read<std::int32_t>(p + i), 0);
}

} // namespace
} // namespace gevo::sim
