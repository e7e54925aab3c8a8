#include <gtest/gtest.h>

#include <string>

#include "sim_test_util.h"

namespace gevo::sim {
namespace {

using testutil::compile;
using testutil::runExpectFault;

TEST(Faults, GlobalOobPastMappedEnd)
{
    constexpr const char* text = R"(
kernel @oob params 1 regs 8 shared 0 local 0 {
entry:
    r1 = ld.i32.global r0
    st.i32.global r0, r1
    ret
}
)";
    DeviceMemory mem(1 << 20);
    mem.alloc(256);
    const auto prog = compile(text);
    // Address far past the mapped page.
    runExpectFault(prog, mem, {1, 1}, FaultKind::MemOobGlobal,
                   {1u << 19});
}

TEST(Faults, GlobalNegativeAddressFaults)
{
    constexpr const char* text = R"(
kernel @neg params 1 regs 8 shared 0 local 0 {
entry:
    r1 = ld.i32.global -8
    st.i32.global r0, r1
    ret
}
)";
    DeviceMemory mem(1 << 20);
    const auto out = mem.alloc(64);
    const auto prog = compile(text);
    runExpectFault(prog, mem, {1, 1}, FaultKind::MemOobGlobal,
                   {static_cast<std::uint64_t>(out)});
}

TEST(Faults, GlobalReadWithinPageSlackIsAllowed)
{
    // Reads a little past the allocation but inside the mapped page:
    // garbage, not a fault (Sec VI-D small-grid behaviour).
    constexpr const char* text = R"(
kernel @slack params 1 regs 8 shared 0 local 0 {
entry:
    r1 = add.i64 r0, 400
    r2 = ld.i32.global r1
    st.i32.global r0, r2
    ret
}
)";
    DeviceMemory mem(1 << 20);
    const auto grid = mem.alloc(100 * 4); // page-rounded to 4096
    const auto prog = compile(text);
    const auto res = launchKernel(p100(), mem, prog, {1, 1},
                                  {static_cast<std::uint64_t>(grid)});
    EXPECT_TRUE(res.ok()) << res.fault.detail;
}

TEST(Faults, SharedOob)
{
    constexpr const char* text = R"(
kernel @soob params 1 regs 8 shared 64 local 0 {
entry:
    r1 = ld.i32.shared 128
    st.i32.global r0, r1
    ret
}
)";
    DeviceMemory mem(1 << 16);
    const auto out = mem.alloc(64);
    const auto prog = compile(text);
    runExpectFault(prog, mem, {1, 1}, FaultKind::MemOobShared,
                   {static_cast<std::uint64_t>(out)});
}

TEST(Faults, SharedNegativeIndexFaults)
{
    // The "tid-1 at tid==0" mutant shape from ADEPT.
    constexpr const char* text = R"(
kernel @sneg params 1 regs 8 shared 64 local 0 {
entry:
    r1 = tid
    r2 = sub.i32 r1, 1
    r3 = mul.i32 r2, 4
    r4 = cvt.i32.i64 r3
    r5 = ld.i32.shared r4
    st.i32.global r0, r5
    ret
}
)";
    DeviceMemory mem(1 << 16);
    const auto out = mem.alloc(64);
    const auto prog = compile(text);
    runExpectFault(prog, mem, {1, 8}, FaultKind::MemOobShared,
                   {static_cast<std::uint64_t>(out)});
}

TEST(Faults, LocalOob)
{
    constexpr const char* text = R"(
kernel @loob params 1 regs 8 shared 0 local 8 {
entry:
    r1 = ld.i32.local 12
    st.i32.global r0, r1
    ret
}
)";
    DeviceMemory mem(1 << 16);
    const auto out = mem.alloc(64);
    const auto prog = compile(text);
    runExpectFault(prog, mem, {1, 1}, FaultKind::MemOobLocal,
                   {static_cast<std::uint64_t>(out)});
}

TEST(Faults, AddressNearInt64MaxFaultsInEverySpace)
{
    // addr + size wraps negative for addresses within `size` bytes of
    // INT64_MAX; a naive `addr + size <= limit` check lets them through
    // and the access lands outside the arena. Every space, every access
    // kind and both interpreters must report a clean OOB fault with the
    // same detail text.
    struct Space {
        const char* name;
        FaultKind kind;
    };
    const Space spaces[] = {{"global", FaultKind::MemOobGlobal},
                            {"shared", FaultKind::MemOobShared},
                            {"local", FaultKind::MemOobLocal}};
    struct Access {
        const char* head;
        const char* tail;
    };
    const Access accesses[] = {{"r4 = ld.i32.", " r3"},
                               {"st.i32.", " r3, r1"},
                               {"r4 = atom.add.i32.", " r3, 1"}};
    const LaunchDims shapes[] = {{1, 32}, {1, 3}}; // full and dense mask
    for (const Space& space : spaces) {
        for (const Access& access : accesses) {
            const std::string body =
                std::string(access.head) + space.name + access.tail;
            const std::string text =
                "kernel @hostile params 1 regs 8 shared 64 local 8 {\n"
                "entry:\n"
                "    r1 = tid\n"
                "    r2 = cvt.i32.i64 r1\n"
                "    r3 = add.i64 r2, 9223372036854775806\n"
                "    " + body + "\n"
                "    ret\n"
                "}\n";
            const auto prog = compile(text.c_str());
            for (const LaunchDims dims : shapes) {
                SCOPED_TRACE(body + " blockDim " +
                             std::to_string(dims.blockDim));
                LaunchResult trace;
                LaunchResult ref;
                {
                    testutil::InterpModeGuard g(InterpMode::Trace);
                    DeviceMemory mem(1 << 16);
                    mem.alloc(64);
                    trace = runExpectFault(prog, mem, dims, space.kind, {0});
                }
                {
                    testutil::InterpModeGuard g(InterpMode::Reference);
                    DeviceMemory mem(1 << 16);
                    mem.alloc(64);
                    ref = runExpectFault(prog, mem, dims, space.kind, {0});
                }
                EXPECT_EQ(trace.fault.detail, ref.fault.detail);
                EXPECT_NE(trace.fault.detail.find("9223372036854775806"),
                          std::string::npos)
                    << trace.fault.detail;
            }
        }
    }
}

TEST(Faults, BarrierUnderDivergence)
{
    constexpr const char* text = R"(
kernel @bdiv params 1 regs 8 shared 0 local 0 {
entry:
    r1 = laneid
    r2 = cmp.lt.i32 r1, 16
    brc r2, low, join
low:
    bar.sync
    br join
join:
    ret
}
)";
    DeviceMemory mem(1 << 16);
    const auto prog = compile(text);
    runExpectFault(prog, mem, {1, 32}, FaultKind::BarrierDivergence, {0});
}

TEST(Faults, InfiniteLoopTimesOut)
{
    constexpr const char* text = R"(
kernel @spin params 1 regs 8 shared 0 local 0 {
entry:
    br spin
spin:
    r1 = add.i32 r1, 1
    br spin
}
)";
    DeviceMemory mem(1 << 16);
    const auto prog = compile(text);
    auto dev = p100();
    dev.maxInstrPerThread = 10000; // keep the test quick
    auto result = launchKernel(dev, mem, prog, {1, 32}, {0});
    EXPECT_EQ(result.fault.kind, FaultKind::Timeout);
}

TEST(Faults, MissingArgumentsRejected)
{
    constexpr const char* text = R"(
kernel @args params 2 regs 8 shared 0 local 0 {
entry:
    ret
}
)";
    DeviceMemory mem(1 << 16);
    const auto prog = compile(text);
    auto result = launchKernel(p100(), mem, prog, {1, 1}, {0});
    EXPECT_EQ(result.fault.kind, FaultKind::InvalidProgram);
}

TEST(Faults, BadLaunchDimsRejected)
{
    constexpr const char* text = R"(
kernel @dims params 0 regs 8 shared 0 local 0 {
entry:
    ret
}
)";
    DeviceMemory mem(1 << 16);
    const auto prog = compile(text);
    EXPECT_EQ(launchKernel(p100(), mem, prog, {1, 0}, {}).fault.kind,
              FaultKind::InvalidProgram);
    EXPECT_EQ(launchKernel(p100(), mem, prog, {0, 32}, {}).fault.kind,
              FaultKind::InvalidProgram);
    EXPECT_EQ(launchKernel(p100(), mem, prog, {1, 2048}, {}).fault.kind,
              FaultKind::InvalidProgram);
}

TEST(Faults, FaultDetailNamesKernelAndKind)
{
    constexpr const char* text = R"(
kernel @detail params 1 regs 8 shared 0 local 0 {
entry:
    r1 = ld.i32.global -4
    st.i32.global r0, r1
    ret
}
)";
    DeviceMemory mem(1 << 16);
    const auto out = mem.alloc(64);
    const auto prog = compile(text);
    const auto res = launchKernel(p100(), mem, prog, {1, 1},
                                  {static_cast<std::uint64_t>(out)});
    ASSERT_EQ(res.fault.kind, FaultKind::MemOobGlobal);
    EXPECT_NE(res.fault.detail.find("detail"), std::string::npos);
    EXPECT_NE(res.fault.detail.find("global-oob"), std::string::npos);
}

} // namespace
} // namespace gevo::sim
