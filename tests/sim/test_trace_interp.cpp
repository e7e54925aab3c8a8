/// Differential testing of the trace interpreter against the reference
/// per-instruction interpreter (GEVO_SIM_REFPATH): both paths must
/// produce bit-identical LaunchStats, memory contents, and fault
/// kind/detail on every kernel shape — uniform ALU chains (the
/// scalarization fast path), divergence, partial warps, shared/global/
/// local memory, atomics, warp intrinsics, faults, profiling, and
/// block-parallel launches — plus the real application kernels and the
/// whole-search trajectory at threads 1/4.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "apps/adept/driver.h"
#include "apps/adept/fitness.h"
#include "apps/adept/kernels.h"
#include "apps/simcov/config.h"
#include "apps/simcov/driver.h"
#include "apps/simcov/kernels.h"
#include "core/engine.h"
#include "ir/eval.h"
#include "mutation/edit.h"
#include "sim/lane_alu.h"
#include "sim_test_util.h"

namespace gevo::sim {
namespace {

using ModeGuard = testutil::InterpModeGuard;
using testutil::compile;
using testutil::expectStatsEqual;

/// Run \p prog under both interpreters on identically-prepared memory and
/// assert bit-identical results, stats, faults, and final memory images.
void
expectIdentical(const Program& prog, LaunchDims dims,
                const std::vector<std::uint64_t>& args,
                const DeviceConfig& dev = p100(), bool profile = false,
                std::int64_t arenaBytes = 1 << 18,
                std::int64_t allocBytes = 1 << 16)
{
    DeviceMemory memT(arenaBytes);
    DeviceMemory memR(arenaBytes);
    memT.alloc(allocBytes);
    memR.alloc(allocBytes);

    LaunchResult trace;
    LaunchResult ref;
    {
        ModeGuard g(InterpMode::Trace);
        trace = launchKernel(dev, memT, prog, dims, args, profile);
    }
    {
        ModeGuard g(InterpMode::Reference);
        ref = launchKernel(dev, memR, prog, dims, args, profile);
    }
    EXPECT_EQ(trace.fault.kind, ref.fault.kind)
        << trace.fault.detail << " vs " << ref.fault.detail;
    EXPECT_EQ(trace.fault.detail, ref.fault.detail);
    expectStatsEqual(trace.stats, ref.stats);
    EXPECT_EQ(0, std::memcmp(memT.raw(), memR.raw(),
                             static_cast<std::size_t>(memT.capacity())));
}

// ---- scalarization fast path: uniform loop counters and addresses ----

TEST(TraceInterp, UniformAluChainAndLoopCounter)
{
    // Everything except the final store address is warp-uniform: the
    // counter, the comparisons, the accumulator. The scalarized path must
    // still time and count identically.
    constexpr const char* text = R"(
kernel @uni params 1 regs 16 shared 0 local 0 {
entry:
    r1 = mov 0
    r2 = mov 0
    br loop
loop:
    r2 = add.i32 r2, 3
    r3 = mul.i32 r2, 5
    r4 = sub.i32 r3, r2
    r1 = add.i32 r1, 1
    r5 = cmp.lt.i32 r1, 50
    brc r5, loop, done
done:
    r6 = tid
    r7 = cvt.i32.i64 r6
    r8 = mul.i64 r7, 4
    r9 = add.i64 r0, r8
    st.i32.global r9, r4
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {4, 64}, {0});
    expectIdentical(prog, {4, 64}, {0}, v100());
}

TEST(TraceInterp, MixedUniformAndLaneOperands)
{
    // Uniform x lane-varying products: the per-lane fallback with hoisted
    // scalar views.
    constexpr const char* text = R"(
kernel @mixed params 2 regs 16 shared 0 local 0 {
entry:
    r2 = tid
    r3 = ntid
    r4 = bid
    r5 = mul.i32 r4, r3
    r6 = add.i32 r5, r2
    r7 = mul.i32 r6, 7
    r8 = add.i32 r7, r5
    r9 = cvt.i32.i64 r8
    r10 = and r9, 255
    r11 = mul.i64 r10, 4
    r12 = add.i64 r0, r11
    st.i32.global r12, r8
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {8, 128}, {0, 9});
}

TEST(TraceInterp, PartialWarpsNeverClaimFullUniformity)
{
    // blockDim 48: one full warp plus a 16-lane warp; blockDim 1: the
    // degenerate single-lane warp. Both must match the reference exactly.
    constexpr const char* text = R"(
kernel @partial params 1 regs 16 shared 0 local 0 {
entry:
    r1 = tid
    r2 = mov 11
    r3 = add.i32 r2, 4
    r4 = add.i32 r1, r3
    r5 = cvt.i32.i64 r1
    r6 = mul.i64 r5, 4
    r7 = add.i64 r0, r6
    st.i32.global r7, r4
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {2, 48}, {0});
    expectIdentical(prog, {2, 1}, {0});
    expectIdentical(prog, {3, 33}, {0});
}

// ---- divergence and reconvergence ----

TEST(TraceInterp, DivergentLoopTrips)
{
    constexpr const char* text = R"(
kernel @divloop params 1 regs 24 shared 0 local 0 {
entry:
    r1 = tid
    r2 = rem.i32 r1, 5
    r3 = mov 0
    r4 = mov 0
    br header
header:
    r4 = add.i32 r4, r1
    r3 = add.i32 r3, 1
    r5 = cmp.le.i32 r3, r2
    brc r5, header, exit
exit:
    r6 = cvt.i32.i64 r1
    r7 = mul.i64 r6, 4
    r8 = add.i64 r0, r7
    st.i32.global r8, r4
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {2, 64}, {0});
}

TEST(TraceInterp, NestedDivergenceWithUniformInnerBranch)
{
    // The outer branch diverges; the inner branch is uniform *within*
    // each side — exercising the uniform-CondBr shortcut under a partial
    // active mask.
    constexpr const char* text = R"(
kernel @nested params 1 regs 24 shared 0 local 0 {
entry:
    r1 = tid
    r2 = rem.i32 r1, 2
    r3 = cmp.eq.i32 r2, 0
    r10 = mov 0
    brc r3, evens, odds
evens:
    r4 = mov 1
    r5 = cmp.gt.i32 r4, 0
    brc r5, etrue, efalse
etrue:
    r10 = mov 100
    br join
efalse:
    r10 = mov 200
    br join
odds:
    r10 = mov 300
    br join
join:
    r6 = cvt.i32.i64 r1
    r7 = mul.i64 r6, 4
    r8 = add.i64 r0, r7
    st.i32.global r8, r10
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {1, 64}, {0});
}

// ---- memory: shared, local, atomics, coalescing ----

TEST(TraceInterp, SharedMemoryConflictsAndBarrier)
{
    constexpr const char* text = R"(
kernel @smem params 1 regs 24 shared 4096 local 0 {
entry:
    r1 = tid
    r2 = mul.i32 r1, 128
    r3 = cvt.i32.i64 r2
    st.i32.shared r3, r1
    bar.sync
    r4 = mul.i32 r1, 4
    r5 = cvt.i32.i64 r4
    r6 = ld.i32.shared r5
    r7 = cvt.i32.i64 r1
    r8 = mul.i64 r7, 4
    r9 = add.i64 r0, r8
    st.i32.global r9, r6
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {2, 32}, {0});
}

TEST(TraceInterp, UniformAddressLoadAndStoreBroadcast)
{
    // Same shared/global address for every lane: load broadcasts, the
    // same-address store serializes in the timing model. The uniform
    // shortcut must preserve both the stats and the memory image.
    constexpr const char* text = R"(
kernel @sameaddr params 1 regs 16 shared 256 local 0 {
entry:
    r1 = mov 3
    st.i32.shared 16, r1
    r2 = ld.i32.shared 16
    st.i32.global r0, r2
    r3 = ld.i32.global r0
    r4 = tid
    r5 = add.i32 r3, r4
    r6 = cvt.i32.i64 r5
    st.i32.shared 32, r6
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {2, 64}, {256});
}

TEST(TraceInterp, LocalMemoryIsPerThreadDespiteUniformAddress)
{
    // A uniform local address still touches 32 distinct backing slots —
    // the uniform load/store shortcut must not fire for Local space.
    constexpr const char* text = R"(
kernel @localmem params 1 regs 16 shared 0 local 64 {
entry:
    r1 = tid
    st.i32.local 8, r1
    r2 = ld.i32.local 8
    r3 = cvt.i32.i64 r2
    r4 = mul.i64 r3, 4
    r5 = add.i64 r0, r4
    st.i32.global r5, r2
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {2, 64}, {0});
}

TEST(TraceInterp, AtomicsSharedAndGlobal)
{
    constexpr const char* text = R"(
kernel @atomics params 1 regs 24 shared 256 local 0 {
entry:
    r1 = tid
    r2 = atom.add.i32.shared 0, 1
    r3 = atom.max.i32.shared 8, r1
    r4 = atom.add.i32.global r0, r2
    r5 = rem.i32 r1, 2
    r6 = atom.cas.i32.shared 16, r5, r1
    r7 = cvt.i32.i64 r1
    r8 = mul.i64 r7, 4
    r9 = add.i64 r0, r8
    st.i32.global r9, r6
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {2, 64}, {4096});
}

// ---- warp intrinsics ----

TEST(TraceInterp, BallotShflActiveMaskBothArchs)
{
    constexpr const char* text = R"(
kernel @warpops params 1 regs 24 shared 0 local 0 {
entry:
    r1 = laneid
    r2 = activemask
    r3 = rem.i32 r1, 2
    r4 = ballot r2, r3
    r5 = shfl.idx r2, r1, 0
    r6 = shfl.up r2, r4, 1
    r7 = add.i32 r5, r6
    r8 = cvt.i32.i64 r1
    r9 = mul.i64 r8, 4
    r10 = add.i64 r0, r9
    st.i32.global r10, r7
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {1, 32}, {0}, p100());
    expectIdentical(prog, {1, 32}, {0}, v100());
}

TEST(TraceInterp, LaneVaryingShflMaskUsesEachLanesOwnValue)
{
    // The shfl mask register differs per lane (only lane 31 names any
    // source lanes): each lane's source-validity test must use its own
    // mask value — lanes 0-30 fall back to their own value, lane 31
    // shuffles in lane 0's. The fault check still sees the highest
    // active lane's mask, exactly like the reference loop.
    constexpr const char* text = R"(
kernel @lanemask params 1 regs 16 shared 0 local 0 {
entry:
    r1 = laneid
    r2 = cmp.eq.i32 r1, 31
    r3 = select r2, -1, 0
    r4 = shfl.idx r3, r1, 0
    r5 = cvt.i32.i64 r1
    r6 = mul.i64 r5, 4
    r7 = add.i64 r0, r6
    st.i32.global r7, r4
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {1, 32}, {0}, p100());
    expectIdentical(prog, {1, 32}, {0}, v100());
}

TEST(TraceInterp, UniformShflValueStillChecksSyncMask)
{
    // shfl of a warp-invariant value under a stale mask: Pascal
    // tolerates it, Volta faults — identically on both interpreters.
    constexpr const char* text = R"(
kernel @staleshfl params 1 regs 16 shared 0 local 0 {
entry:
    r1 = laneid
    r2 = cmp.lt.i32 r1, 16
    r3 = mov 7
    brc r2, low, high
low:
    r4 = shfl.idx -1, r3, 0
    st.i32.global r0, r4
    br join
high:
    br join
join:
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {1, 32}, {0}, p100());
    expectIdentical(prog, {1, 32}, {0}, v100());
}

// ---- dense active-lane packing (sparse masks) ----

/// Run \p prog three ways — dense-packed trace, legacy (full-width)
/// trace, and the reference interpreter — and assert all three produce
/// bit-identical stats, faults, and memory images. This is the oracle
/// for the sparse-mask gather: packing may only change how the lane loop
/// iterates, never what it computes or counts. \p seed, when set, fills
/// each arena identically after the allocation and before the launch.
void
expectDenseIdentical(const Program& prog, LaunchDims dims,
                     const std::vector<std::uint64_t>& args,
                     const DeviceConfig& dev = p100(), bool profile = false,
                     const std::function<void(DeviceMemory&)>& seed = {})
{
    DeviceMemory memD(1 << 18);
    DeviceMemory memL(1 << 18);
    DeviceMemory memR(1 << 18);
    for (DeviceMemory* mem : {&memD, &memL, &memR}) {
        mem->alloc(1 << 16);
        if (seed)
            seed(*mem);
    }

    LaunchResult dense;
    LaunchResult legacy;
    LaunchResult ref;
    {
        ModeGuard g(InterpMode::Trace);
        {
            testutil::DenseLaneGuard d(true);
            dense = launchKernel(dev, memD, prog, dims, args, profile);
        }
        {
            testutil::DenseLaneGuard d(false);
            legacy = launchKernel(dev, memL, prog, dims, args, profile);
        }
    }
    {
        ModeGuard g(InterpMode::Reference);
        ref = launchKernel(dev, memR, prog, dims, args, profile);
    }
    EXPECT_EQ(dense.fault.kind, legacy.fault.kind)
        << dense.fault.detail << " vs " << legacy.fault.detail;
    EXPECT_EQ(dense.fault.detail, legacy.fault.detail);
    EXPECT_EQ(dense.fault.kind, ref.fault.kind)
        << dense.fault.detail << " vs " << ref.fault.detail;
    expectStatsEqual(dense.stats, legacy.stats);
    expectStatsEqual(dense.stats, ref.stats);
    EXPECT_EQ(0, std::memcmp(memD.raw(), memL.raw(),
                             static_cast<std::size_t>(memD.capacity())));
    EXPECT_EQ(0, std::memcmp(memD.raw(), memR.raw(),
                             static_cast<std::size_t>(memD.capacity())));
}

/// Kernel where only lanes passing a laneid guard run a per-lane loop;
/// \p guard is the comparison line deciding who stays active. Inactive
/// lanes' registers (r5/r6/r7 stay 0) must survive untouched — the final
/// store writes them back so any clobber shows in the memory diff.
Program
sparseGuardKernel(const std::string& guard)
{
    const std::string text = R"(
kernel @sparse params 1 regs 24 shared 0 local 0 {
entry:
    r1 = laneid
    r2 = tid
)" + guard + R"(
    r4 = mov 0
    r5 = mov 0
    brc r3, header, exit
header:
    r5 = add.i32 r5, r2
    r6 = mul.i32 r5, 3
    r7 = add.i32 r6, r1
    r4 = add.i32 r4, 1
    r8 = cmp.lt.i32 r4, 17
    brc r8, header, exit
exit:
    r9 = cvt.i32.i64 r2
    r10 = mul.i64 r9, 4
    r11 = add.i64 r0, r10
    st.i32.global r11, r7
    ret
}
)";
    return testutil::compile(text.c_str());
}

TEST(DenseLanes, SparseMasksOfOneThreeAnd31Lanes)
{
    // 1 active lane (the degenerate case), 3 scattered lanes, and 31
    // lanes (one hole — nearly full but still off the full-mask legacy
    // shortcut).
    expectDenseIdentical(sparseGuardKernel("    r3 = cmp.eq.i32 r1, 5"),
                         {2, 64}, {0});
    expectDenseIdentical(
        sparseGuardKernel("    r12 = rem.i32 r1, 11\n"
                          "    r3 = cmp.eq.i32 r12, 0"),
        {2, 64}, {0});
    expectDenseIdentical(sparseGuardKernel("    r3 = cmp.ne.i32 r1, 17"),
                         {2, 64}, {0});
}

TEST(DenseLanes, MaskChangesMidLoop)
{
    // Lanes drop out of the loop at different trip counts, so the span
    // mask shrinks as the loop runs: the ActiveSet must be re-gathered
    // per span, never cached across a mask change.
    constexpr const char* text = R"(
kernel @shrink params 1 regs 24 shared 0 local 0 {
entry:
    r1 = tid
    r2 = rem.i32 r1, 9
    r3 = mov 0
    r4 = mov 0
    br header
header:
    r4 = add.i32 r4, r1
    r5 = mul.i32 r4, 3
    r3 = add.i32 r3, 1
    r6 = cmp.le.i32 r3, r2
    brc r6, header, exit
exit:
    r7 = cvt.i32.i64 r1
    r8 = mul.i64 r7, 4
    r9 = add.i64 r0, r8
    st.i32.global r9, r5
    ret
}
)";
    expectDenseIdentical(testutil::compile(text), {2, 64}, {0});
}

TEST(DenseLanes, AtomicsUnderDensePacking)
{
    // Atomic application order is lane order; the packed ActiveSet walks
    // lanes ascending, so results must match the full-width loop exactly
    // (including the CAS winner and the returned old values).
    constexpr const char* text = R"(
kernel @spatom params 1 regs 24 shared 256 local 0 {
entry:
    r1 = laneid
    r2 = rem.i32 r1, 5
    r3 = cmp.eq.i32 r2, 1
    brc r3, active, join
active:
    r4 = atom.add.i32.shared 0, 1
    r5 = atom.max.i32.shared 8, r1
    r6 = atom.add.i32.global r0, r4
    r7 = atom.cas.i32.shared 16, 0, r1
    br join
join:
    r8 = cvt.i32.i64 r1
    r9 = mul.i64 r8, 4
    r10 = add.i64 r0, r9
    st.i32.global r10, r7
    ret
}
)";
    expectDenseIdentical(testutil::compile(text), {2, 64}, {4096});
}

TEST(DenseLanes, BallotShflUnderDensePacking)
{
    // ballot must report the sparse mask itself; shfl reads source values
    // from *inactive* lanes (lane 0 is masked off but named as a source),
    // so the 32-wide source gather must survive dense packing.
    constexpr const char* text = R"(
kernel @spwarp params 1 regs 24 shared 0 local 0 {
entry:
    r1 = laneid
    r2 = rem.i32 r1, 3
    r3 = cmp.eq.i32 r2, 2
    brc r3, active, join
active:
    r4 = activemask
    r5 = rem.i32 r1, 2
    r6 = ballot r4, r5
    r7 = shfl.idx r4, r1, 0
    r8 = shfl.up r4, r6, 1
    r9 = add.i32 r7, r8
    br join
join:
    r10 = cvt.i32.i64 r1
    r11 = mul.i64 r10, 4
    r12 = add.i64 r0, r11
    st.i32.global r12, r9
    ret
}
)";
    expectDenseIdentical(testutil::compile(text), {1, 32}, {0}, p100());
    expectDenseIdentical(testutil::compile(text), {1, 32}, {0}, v100());
}

TEST(DenseLanes, SparseMemoryTimingAndProfiledLocs)
{
    // Sparse-mask loads/stores: globalSectors, sharedConflictWays and
    // locIssues are computed by the shared memTiming helper over a
    // zero-initialised addrs[] — inactive lanes must contribute nothing,
    // dense or not. Profiling on, so locIssues is exercised too.
    constexpr const char* text = R"(
kernel @spmem params 1 regs 24 shared 1024 local 0 {
entry:
    r1 = laneid
    r2 = rem.i32 r1, 4
    r3 = cmp.eq.i32 r2, 3
    brc r3, active, join
active:
    r4 = mul.i32 r1, 128 @"sp.cu:12"
    r5 = cvt.i32.i64 r4 @"sp.cu:12"
    st.i32.shared r5, r1 @"sp.cu:13"
    r6 = mul.i32 r1, 4 @"sp.cu:14"
    r7 = cvt.i32.i64 r6
    r8 = ld.i32.shared r7 @"sp.cu:15"
    r9 = cvt.i32.i64 r1
    r10 = mul.i64 r9, 64
    r11 = add.i64 r0, r10
    st.i32.global r11, r8 @"sp.cu:16"
    br join
join:
    ret
}
)";
    expectDenseIdentical(testutil::compile(text), {2, 64}, {0}, p100(),
                         true);
}

// ---- per-opcode lane loops: every scalar opcode, bit for bit ----

// One lane loop per opcode, indexed by the opcode, in both packing modes.
static_assert(kAluLanes<false>.size() == ir::kNumOpcodes);
static_assert(kAluLanes<true>.size() == ir::kNumOpcodes);

/// Threads of the sweep kernel (one full warp plus a partial one).
constexpr int kSweepThreads = 40;

/// Per-thread (a, b, c) inputs of the opcode sweep: the edge cases first,
/// then a deterministic mix of full-width, i32, f32 and shift-sized
/// values.
std::vector<std::array<std::uint64_t, 3>>
sweepRows()
{
    using I64 = std::numeric_limits<std::int64_t>;
    const auto f = [](float v) { return ir::fromF32(v); };
    const auto i = [](std::int64_t v) {
        return static_cast<std::uint64_t>(v);
    };
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::array<std::uint64_t, 3>> rows = {
        {ir::fromI32(std::numeric_limits<std::int32_t>::min()), i(-1), 0},
        {i(I64::min()), i(-1), 1},
        {0, 0x0123456789abcdefull, 0xfedcba9876543210ull}, // select's c
        {7, 0, 0},                                // division by zero
        {i(-7), 0, 5},
        {f(nan), f(1.0f), 0},
        {f(inf), f(-inf), 1},
        {f(-inf), f(nan), 2},
        {1, 64, 0},                               // shifts >= 64
        {0x8000000000000001ull, 65, 1},
        {i(-1), 127, 0},
        {f(3e9f), f(-3e9f), 1},                   // f32->i32 saturation
        {f(-3e9f), f(2147483520.0f), 0},
        {f(2147483648.0f), f(-0.0f), 1},
        {f(-0.0f), f(0.0f), 0},
        {0x7fffffff, 1, 1},                       // i32 overflow
        {0xffffffffull, 0x100000000ull, 0},       // garbage upper bits
    };
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    const auto next = [&state]() {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    while (rows.size() < static_cast<std::size_t>(kSweepThreads)) {
        std::array<std::uint64_t, 3> row{};
        for (auto& v : row) {
            const std::uint64_t r = next();
            switch (r % 4) {
              case 0: v = next(); break;
              case 1:
                v = ir::fromI32(static_cast<std::int32_t>(next()));
                break;
              case 2:
                v = f(static_cast<float>(static_cast<std::int32_t>(next()) %
                                         2000000) /
                      997.0f);
                break;
              default: v = next() % 75; break;
            }
        }
        rows.push_back(row);
    }
    return rows;
}

/// Sweep kernel: thread t loads rows[t] into r9/r10/r11 (lane-varying),
/// lanes whose bit is set in the r2 mask run `r<dest> = <op> <ops>`, and
/// after reconvergence every lane stores r<dest> to out[t] (r1), so a
/// clobbered inactive lane shows up too. r3 is a uniform parameter.
std::string
sweepKernel(ir::Opcode op, const std::string* ops, int numOps, int dest)
{
    std::string operands;
    for (int k = 0; k < numOps; ++k) {
        operands += k == 0 ? " " : ", ";
        operands += ops[k];
    }
    const std::string d = "r" + std::to_string(dest);
    return "kernel @sweep params 4 regs 24 shared 0 local 0 {\n"
           "entry:\n"
           "    r4 = tid\n"
           "    r5 = cvt.i32.i64 r4\n"
           "    r6 = mul.i64 r5, 8\n"
           "    r7 = add.i64 r0, r6\n"
           "    r9 = ld.i64.global r7\n"
           "    r8 = add.i64 r7, 320\n"
           "    r10 = ld.i64.global r8\n"
           "    r8 = add.i64 r7, 640\n"
           "    r11 = ld.i64.global r8\n"
           "    r12 = add.i64 r1, r6\n"
           "    r13 = laneid\n"
           "    r14 = shr r2, r13\n"
           "    r14 = and r14, 1\n"
           "    brc r14, body, exit\n"
           "body:\n"
           "    " + d + " = " + std::string(ir::opMnemonic(op)) + operands +
           "\n"
           "    br exit\n"
           "exit:\n"
           "    st.i64.global r12, " + d + "\n"
           "    ret\n"
           "}\n";
}

TEST(DenseLanes, EveryScalarOpcodeMatchesReferenceBitForBit)
{
    // Each opcode's lane loop is its own instantiation of evalScalar, so
    // each one is checked against the reference interpreter: all operand
    // views (lane-varying, one uniform, one immediate, in place), under a
    // full warp, a partial last warp and a 3-lane dense mask.
    const auto rows = sweepRows();
    const auto seedRows = [&rows](DeviceMemory& mem) {
        for (int t = 0; t < kSweepThreads; ++t)
            for (int k = 0; k < 3; ++k)
                mem.write<std::uint64_t>((k * kSweepThreads + t) * 8,
                                         rows[t][k]);
    };
    const std::uint64_t in = 0;  // the seeded rows, operand-major
    const std::uint64_t out = 3 * kSweepThreads * 8;
    struct LaneConfig {
        const char* name;
        LaunchDims dims;
        std::uint32_t mask;
    };
    const LaneConfig laneConfigs[] = {
        {"full warp", {1, 32}, 0xffffffffu},
        {"partial last warp", {1, kSweepThreads}, 0xffffffffu},
        {"3-lane dense mask", {1, 32}, (1u << 2) | (1u << 11) | (1u << 31)},
    };
    const std::uint64_t scalars[] = {
        ir::fromI32(std::numeric_limits<std::int32_t>::min()),
        ~std::uint64_t{0},
        0,
        64,
        ir::fromF32(std::numeric_limits<float>::quiet_NaN()),
        ir::fromF32(std::numeric_limits<float>::infinity()),
        ir::fromF32(-3e9f),
    };
    struct Variant {
        std::string what;
        std::string ops[3];
        int dest;
        std::uint64_t uniform;
    };
    int swept = 0;
    for (std::size_t o = 0; o < ir::kNumOpcodes; ++o) {
        const auto op = static_cast<ir::Opcode>(o);
        if (!ir::isScalarEvaluable(op))
            continue;
        ++swept;
        const int numOps = ir::opInfo(op).numOps;
        std::vector<Variant> variants = {
            {"all lane-varying", {"r9", "r10", "r11"}, 15, 0},
            {"lane-varying, in place", {"r9", "r10", "r11"}, 9, 0},
        };
        for (int pos = 0; pos < numOps; ++pos) {
            for (const std::uint64_t v : scalars) {
                Variant uni{"uniform operand " + std::to_string(pos),
                            {"r9", "r10", "r11"}, 15, v};
                uni.ops[pos] = "r3";
                variants.push_back(uni);
                Variant imm{"immediate operand " + std::to_string(pos),
                            {"r9", "r10", "r11"}, 15, 0};
                imm.ops[pos] = std::to_string(static_cast<std::int64_t>(v));
                variants.push_back(imm);
            }
        }
        for (const Variant& var : variants) {
            const Program prog = testutil::compile(
                sweepKernel(op, var.ops, numOps, var.dest).c_str());
            for (const LaneConfig& lc : laneConfigs) {
                SCOPED_TRACE(std::string(ir::opMnemonic(op)) + ", " +
                             var.what + " (uniform " +
                             std::to_string(var.uniform) + "), " + lc.name);
                expectDenseIdentical(prog, lc.dims,
                                     {in, out, lc.mask, var.uniform}, p100(),
                                     false, seedRows);
                if (HasFailure())
                    return; // one diagnosis, not thousands
            }
        }
    }
    EXPECT_GT(swept, 0);
}

// ---- faults ----

TEST(TraceInterp, FaultsMatchBitForBit)
{
    // Global OOB via a uniform address, shared OOB via lane addresses,
    // barrier under divergence, and the instruction-budget timeout.
    constexpr const char* globalOob = R"(
kernel @goob params 1 regs 16 shared 0 local 0 {
entry:
    r1 = ld.i32.global 99999999
    st.i32.global r0, r1
    ret
}
)";
    expectIdentical(compile(globalOob), {2, 64}, {0});

    constexpr const char* sharedOob = R"(
kernel @soob params 1 regs 16 shared 64 local 0 {
entry:
    r1 = tid
    r2 = mul.i32 r1, 8
    r3 = cvt.i32.i64 r2
    st.i32.shared r3, r1
    ret
}
)";
    expectIdentical(compile(sharedOob), {1, 64}, {0});

    constexpr const char* barDiv = R"(
kernel @bdiv params 1 regs 16 shared 0 local 0 {
entry:
    r1 = laneid
    r2 = cmp.lt.i32 r1, 7
    brc r2, a, b
a:
    bar.sync
    br join
b:
    br join
join:
    ret
}
)";
    expectIdentical(compile(barDiv), {1, 32}, {0});

    constexpr const char* spin = R"(
kernel @spin params 1 regs 16 shared 0 local 0 {
entry:
    r1 = mov 0
    br loop
loop:
    r1 = add.i32 r1, 1
    r2 = cmp.ge.i32 r1, 0
    brc r2, loop, done
done:
    ret
}
)";
    auto tiny = p100();
    tiny.maxInstrPerThread = 1000;
    expectIdentical(compile(spin), {1, 32}, {0}, tiny);
}

// ---- profiling and block-parallel launches ----

TEST(TraceInterp, ProfiledLocIssuesIdentical)
{
    constexpr const char* text = R"(
kernel @prof params 1 regs 16 shared 0 local 0 {
entry:
    r1 = tid @"k.cu:10"
    r2 = mov 5 @"k.cu:10"
    r3 = add.i32 r1, r2 @"k.cu:20"
    r4 = cvt.i32.i64 r3 @"k.cu:20"
    st.i32.global r0, r4
    ret
}
)";
    const auto prog = compile(text);
    expectIdentical(prog, {4, 64}, {0}, p100(), true);
}

TEST(TraceInterp, BlockParallelLaunchesIdentical)
{
    constexpr const char* text = R"(
kernel @bp params 1 regs 24 shared 512 local 0 {
entry:
    r1 = tid
    r2 = bid
    r3 = mov 0
    br loop
loop:
    r3 = add.i32 r3, r2
    r4 = add.i32 r3, 1
    r5 = cmp.lt.i32 r3, 40
    brc r5, loop, done
done:
    r6 = mul.i32 r1, 4
    r7 = cvt.i32.i64 r6
    st.i32.shared r7, r4
    bar.sync
    r8 = ld.i32.shared r7
    r9 = ntid
    r10 = mul.i32 r2, r9
    r11 = add.i32 r10, r1
    r12 = cvt.i32.i64 r11
    r13 = mul.i64 r12, 4
    r14 = add.i64 r0, r13
    st.i32.global r14, r8
    ret
}
)";
    const auto prog = compile(text);
    for (std::uint32_t bt : {1u, 4u})
        expectIdentical(prog, {8, 64, 1, bt}, {0});
}

// ---- application kernels ----

TEST(TraceInterp, AdeptDriversIdenticalBothVersions)
{
    adept::SequenceSetConfig cfg;
    cfg.numPairs = 4;
    cfg.minLen = 24;
    cfg.maxLen = 48;
    cfg.seed = 9;
    const auto pairs = adept::generatePairs(cfg);
    for (int version : {0, 1}) {
        const auto built =
            version == 0 ? adept::buildAdeptV0(adept::ScoringParams{}, 64)
                         : adept::buildAdeptV1(adept::ScoringParams{}, 64);
        const adept::AdeptDriver driver(pairs, adept::ScoringParams{},
                                        version, 64);
        adept::AdeptRunOutput trace;
        adept::AdeptRunOutput ref;
        {
            ModeGuard g(InterpMode::Trace);
            trace = driver.run(built.module, p100(), true);
        }
        {
            ModeGuard g(InterpMode::Reference);
            ref = driver.run(built.module, p100(), true);
        }
        ASSERT_EQ(trace.ok(), ref.ok()) << "version " << version;
        EXPECT_EQ(trace.totalMs, ref.totalMs);
        expectStatsEqual(trace.fwdStats, ref.fwdStats);
        expectStatsEqual(trace.revStats, ref.revStats);
        ASSERT_EQ(trace.results.size(), ref.results.size());
        for (std::size_t i = 0; i < trace.results.size(); ++i)
            EXPECT_TRUE(trace.results[i] == ref.results[i]);
    }
}

TEST(TraceInterp, SimcovDriverIdentical)
{
    simcov::SimcovConfig cfg;
    cfg.gridW = 16;
    cfg.steps = 5;
    const simcov::SimcovDriver driver(cfg);
    const auto built = simcov::buildSimcov(cfg);
    simcov::SimcovRunOutput trace;
    simcov::SimcovRunOutput ref;
    {
        ModeGuard g(InterpMode::Trace);
        trace = driver.run(built.module, p100(), true);
    }
    {
        ModeGuard g(InterpMode::Reference);
        ref = driver.run(built.module, p100(), true);
    }
    ASSERT_EQ(trace.ok(), ref.ok());
    EXPECT_EQ(trace.totalMs, ref.totalMs);
    expectStatsEqual(trace.aggregate, ref.aggregate);
    ASSERT_EQ(trace.series.size(), ref.series.size());
    for (std::size_t i = 0; i < trace.series.size(); ++i) {
        EXPECT_EQ(trace.series[i].totalVirions,
                  ref.series[i].totalVirions);
        EXPECT_EQ(trace.series[i].tcells, ref.series[i].tcells);
        EXPECT_EQ(trace.series[i].infected, ref.series[i].infected);
        EXPECT_EQ(trace.series[i].dead, ref.series[i].dead);
    }
}

TEST(TraceInterp, AdeptAndSimcovDensePackingPreservesProfiledCounters)
{
    // Per-family dense regression for the two app drivers: profiled
    // locIssues and memory-timing counters must be identical with dense
    // packing on and off (adept's anti-diagonal wavefront and simcov's
    // grid guards both leave partial masks).
    ModeGuard m(InterpMode::Trace);
    {
        adept::SequenceSetConfig cfg;
        cfg.numPairs = 3;
        cfg.minLen = 24;
        cfg.maxLen = 40;
        cfg.seed = 7;
        const auto pairs = adept::generatePairs(cfg);
        const auto built = adept::buildAdeptV1(adept::ScoringParams{}, 64);
        const adept::AdeptDriver driver(pairs, adept::ScoringParams{}, 1,
                                        64);
        adept::AdeptRunOutput dense;
        adept::AdeptRunOutput legacy;
        {
            testutil::DenseLaneGuard g(true);
            dense = driver.run(built.module, p100(), true);
        }
        {
            testutil::DenseLaneGuard g(false);
            legacy = driver.run(built.module, p100(), true);
        }
        ASSERT_EQ(dense.ok(), legacy.ok());
        EXPECT_EQ(dense.totalMs, legacy.totalMs);
        expectStatsEqual(dense.fwdStats, legacy.fwdStats);
        expectStatsEqual(dense.revStats, legacy.revStats);
        ASSERT_EQ(dense.results.size(), legacy.results.size());
        for (std::size_t i = 0; i < dense.results.size(); ++i)
            EXPECT_TRUE(dense.results[i] == legacy.results[i]);
    }
    {
        simcov::SimcovConfig cfg;
        cfg.gridW = 16;
        cfg.steps = 4;
        const simcov::SimcovDriver driver(cfg);
        const auto built = simcov::buildSimcov(cfg);
        simcov::SimcovRunOutput dense;
        simcov::SimcovRunOutput legacy;
        {
            testutil::DenseLaneGuard g(true);
            dense = driver.run(built.module, p100(), true);
        }
        {
            testutil::DenseLaneGuard g(false);
            legacy = driver.run(built.module, p100(), true);
        }
        ASSERT_EQ(dense.ok(), legacy.ok());
        EXPECT_EQ(dense.totalMs, legacy.totalMs);
        expectStatsEqual(dense.aggregate, legacy.aggregate);
    }
}

// ---- whole-search trajectory ----

TEST(TraceInterp, SearchTrajectoryIdenticalThreads1And4)
{
    adept::SequenceSetConfig cfg;
    cfg.numPairs = 3;
    cfg.minLen = 24;
    cfg.maxLen = 40;
    cfg.seed = 4;
    const auto pairs = adept::generatePairs(cfg);
    const auto built = adept::buildAdeptV0(adept::ScoringParams{}, 64);
    const adept::AdeptDriver driver(pairs, adept::ScoringParams{}, 0, 64);
    adept::AdeptFitness fitness(driver, sim::p100());

    auto search = [&](InterpMode mode, std::uint32_t threads) {
        ModeGuard g(mode);
        core::EvolutionParams params;
        params.populationSize = 8;
        params.generations = 2;
        params.seed = 123;
        params.threads = threads;
        core::EvolutionEngine engine(built.module, fitness, params);
        return engine.run();
    };
    const auto base = search(InterpMode::Trace, 1);
    for (std::uint32_t threads : {1u, 4u}) {
        const auto ref = search(InterpMode::Reference, threads);
        EXPECT_EQ(mut::serializeEdits(base.best.edits),
                  mut::serializeEdits(ref.best.edits))
            << "threads " << threads;
        ASSERT_EQ(base.history.size(), ref.history.size());
        for (std::size_t g = 0; g < base.history.size(); ++g)
            EXPECT_EQ(base.history[g].bestMs, ref.history[g].bestMs);
    }
    const auto trace4 = search(InterpMode::Trace, 4);
    EXPECT_EQ(mut::serializeEdits(base.best.edits),
              mut::serializeEdits(trace4.best.edits));
}

} // namespace
} // namespace gevo::sim
