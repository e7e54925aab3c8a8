#include "sim/executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "ir/eval.h"
#include "sim/lane_alu.h"
#include "support/strings.h"

namespace gevo::sim {

std::string_view
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::MemOobGlobal: return "global-oob";
      case FaultKind::MemOobShared: return "shared-oob";
      case FaultKind::MemOobLocal: return "local-oob";
      case FaultKind::BarrierDivergence: return "barrier-divergence";
      case FaultKind::IllegalWarpSync: return "illegal-warp-sync";
      case FaultKind::Timeout: return "timeout";
      case FaultKind::InvalidProgram: return "invalid-program";
    }
    return "?";
}

namespace {

/// Resolved interpreter mode: -1 until first query, then the InterpMode
/// value. setInterpreterMode() stores directly; otherwise the
/// GEVO_SIM_REFPATH environment variable decides on first use.
std::atomic<int> gInterpMode{-1};

} // namespace

InterpMode
interpreterMode()
{
    int mode = gInterpMode.load(std::memory_order_relaxed);
    if (mode < 0) {
        const char* env = std::getenv("GEVO_SIM_REFPATH");
        const bool ref = env != nullptr && env[0] != '\0' &&
                         !(env[0] == '0' && env[1] == '\0');
        mode = static_cast<int>(ref ? InterpMode::Reference
                                    : InterpMode::Trace);
        gInterpMode.store(mode, std::memory_order_relaxed);
    }
    return static_cast<InterpMode>(mode);
}

void
setInterpreterMode(InterpMode mode)
{
    gInterpMode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

namespace {

/// Dense-lane packing: -1 until first query, then 0/1. GEVO_SIM_DENSE=0
/// disables; the default is on.
std::atomic<int> gDenseMode{-1};

} // namespace

bool
denseLaneMode()
{
    int mode = gDenseMode.load(std::memory_order_relaxed);
    if (mode < 0) {
        const char* env = std::getenv("GEVO_SIM_DENSE");
        const bool off = env != nullptr && env[0] == '0' && env[1] == '\0';
        mode = off ? 0 : 1;
        gDenseMode.store(mode, std::memory_order_relaxed);
    }
    return mode != 0;
}

void
setDenseLaneMode(bool on)
{
    gDenseMode.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace {

constexpr std::uint32_t kFullMask = 0xffffffffu;

using ir::MemSpace;
using ir::MemWidth;
using ir::Opcode;
using ir::Operand;

/// One SIMT reconvergence-stack entry.
struct StackEntry {
    std::int32_t pc;
    std::int32_t reconvPc;
    std::uint32_t mask;
};

/// Outcome of running a warp until it can no longer proceed.
enum class WarpStop : std::uint8_t {
    Done,
    AtBarrier,
    Faulted,
};

struct WarpState {
    std::uint32_t aliveMask = 0;
    std::vector<StackEntry> stack;
    bool done = false;
    bool atBarrier = false;
    std::uint64_t cycle = 0;
    std::uint64_t issueCycles = 0;
    std::uint64_t issuedInstrs = 0;
    std::vector<std::uint64_t> regs;  ///< lane-major: [lane*numRegs + r].
    std::vector<std::uint64_t> ready; ///< per-register ready cycle.
    /// Warp-uniform register tracking (trace path only). Bit r of
    /// uniBits set means every one of the 32 lanes holds uniVal[r] in
    /// register r — the lane-major array may then be stale and is
    /// materialized (all 32 lanes rewritten) before the bit is cleared.
    /// Uniformity is defined over all 32 lanes, not just live ones,
    /// because shuffles read source values from inactive lanes too.
    std::vector<std::uint64_t> uniBits;
    std::vector<std::uint64_t> uniVal;
    int index = 0;
};

/// Per-thread reusable launch scratch: the shared/local arenas and warp
/// contexts (register files, scoreboards, reconvergence stacks) survive
/// across launchKernel calls, so a workload issuing many tiny launches —
/// bfs runs one kernel per BFS level — stops paying allocation cost per
/// launch. Safe because BlockRunner::resetBlock re-initializes every
/// per-block observable before use: arenas are refilled, scoreboards and
/// masks reset, and registers are either zero-filled (reference path) or
/// covered by the uniform bits until materialized (trace path), so stale
/// bytes from a previous launch are never read. One runner exists per
/// thread at a time (launchKernel's parallel path gives each spawned
/// thread its own thread_local copy).
struct ExecScratch {
    std::vector<std::uint8_t> shared;
    std::vector<std::uint8_t> local;
    std::vector<WarpState> warps;
};

ExecScratch&
execScratch()
{
    thread_local ExecScratch scratch;
    return scratch;
}

/// Reusable execution context: binds the thread's scratch state once per
/// launch and replays it for every block. Blocks of one launch are
/// identical in shape (same program, same blockDim), so per-block
/// construction only needs to reset state — re-allocating register files
/// and reconvergence stacks per block (and, before the scratch reuse,
/// per launch) dominated launch cost for small kernels.
class BlockRunner {
  public:
    BlockRunner(const DeviceConfig& dev, DeviceMemory& mem,
                const Program& prog, LaunchDims dims,
                const std::vector<std::uint64_t>& args, LaunchStats* stats,
                bool profileLocs, bool trace, bool dense)
        : dev_(dev), mem_(mem), prog_(prog), dims_(dims), args_(args),
          stats_(stats), profileLocs_(profileLocs), trace_(trace),
          dense_(dense), shared_(execScratch().shared),
          local_(execScratch().local), warps_(execScratch().warps)
    {
        shared_.resize(prog.sharedBytes);
        local_.resize(static_cast<std::size_t>(prog.localBytes) *
                      dims.blockDim);
        const std::uint32_t numWarps =
            (dims.blockDim + kWarpSize - 1) / kWarpSize;
        warps_.resize(numWarps);
        for (std::uint32_t w = 0; w < numWarps; ++w) {
            WarpState& warp = warps_[w];
            warp.index = static_cast<int>(w);
            warp.regs.resize(
                static_cast<std::size_t>(kWarpSize) * prog.numRegs);
            warp.ready.resize(prog.numRegs);
            warp.uniBits.resize((prog.numRegs + 63) / 64);
            warp.uniVal.resize(prog.numRegs);
            warp.stack.reserve(8);
        }
    }

    /// Reset all mutable per-block state for \p blockIdx.
    void
    resetBlock(std::uint32_t blockIdx)
    {
        blockIdx_ = blockIdx;
        fault_ = Fault{};
        std::fill(shared_.begin(), shared_.end(), 0);
        std::fill(local_.begin(), local_.end(), 0);
        for (auto& warp : warps_) {
            const auto w = static_cast<std::uint32_t>(warp.index);
            const std::uint32_t lanes =
                std::min<std::uint32_t>(kWarpSize,
                                        dims_.blockDim - w * kWarpSize);
            warp.aliveMask = lanes == kWarpSize ? kFullMask
                                                : ((1u << lanes) - 1);
            warp.stack.clear();
            warp.stack.push_back({0, kExitPc, warp.aliveMask});
            warp.done = false;
            warp.atBarrier = false;
            warp.cycle = 0;
            warp.issueCycles = 0;
            warp.issuedInstrs = 0;
            std::fill(warp.ready.begin(), warp.ready.end(), 0);
            if (trace_) {
                // Every register starts uniform (zero, or the broadcast
                // kernel argument), so the lane-major array need not be
                // touched at all: a uniform register is materialized
                // before its first per-lane use.
                std::fill(warp.uniBits.begin(), warp.uniBits.end(),
                          ~std::uint64_t{0});
                std::fill(warp.uniVal.begin(), warp.uniVal.end(), 0);
                for (std::uint32_t p = 0;
                     p < prog_.numParams && p < args_.size(); ++p)
                    warp.uniVal[p] = args_[p];
                continue;
            }
            std::fill(warp.regs.begin(), warp.regs.end(), 0);
            for (std::uint32_t lane = 0; lane < kWarpSize; ++lane) {
                for (std::uint32_t p = 0;
                     p < prog_.numParams && p < args_.size(); ++p) {
                    warp.regs[lane * prog_.numRegs + p] = args_[p];
                }
            }
        }
    }

    /// Run one block to completion. Returns the fault (None on success)
    /// and per-block timing via issueSum/latMax.
    Fault
    runBlock(std::uint32_t blockIdx, std::uint64_t* issueSum,
             std::uint64_t* latMax)
    {
        resetBlock(blockIdx);
        while (true) {
            bool allDone = true;
            for (auto& warp : warps_) {
                if (warp.done || warp.atBarrier)
                    continue;
                const WarpStop stop =
                    trace_ ? runWarpTrace(warp) : runWarpRef(warp);
                if (stop == WarpStop::Faulted)
                    return fault_;
                allDone = false;
            }
            // Every warp is now done or waiting at a barrier.
            bool anyWaiting = false;
            for (auto& warp : warps_)
                anyWaiting = anyWaiting || warp.atBarrier;
            if (!anyWaiting) {
                if (allDone || warpsAllDone())
                    break;
                continue;
            }
            releaseBarrier();
        }
        std::uint64_t issue = 0;
        std::uint64_t lat = 0;
        for (const auto& warp : warps_) {
            issue += warp.issueCycles;
            lat = std::max(lat, warp.cycle);
        }
        *issueSum = issue;
        *latMax = lat;
        return fault_;
    }

  private:
    bool
    warpsAllDone() const
    {
        for (const auto& warp : warps_) {
            if (!warp.done)
                return false;
        }
        return true;
    }

    void
    releaseBarrier()
    {
        std::uint64_t t = 0;
        for (const auto& warp : warps_)
            t = std::max(t, warp.cycle);
        t += dev_.barrierBase +
             static_cast<std::uint64_t>(dev_.barrierPerWarp) * warps_.size();
        for (auto& warp : warps_) {
            if (!warp.done) {
                warp.cycle = t;
                warp.atBarrier = false;
            }
        }
        ++stats_->barriers;
    }

    // ---- fault helpers ----

    WarpStop
    memFault(FaultKind kind, std::int64_t addr)
    {
        fault_.kind = kind;
        fault_.detail = strformat(
            "%s at address %lld (kernel %s, block %u)",
            std::string(faultKindName(kind)).c_str(),
            static_cast<long long>(addr), prog_.name.c_str(), blockIdx_);
        return WarpStop::Faulted;
    }

    WarpStop
    plainFault(FaultKind kind, const std::string& what)
    {
        fault_.kind = kind;
        fault_.detail = strformat("%s: %s (kernel %s, block %u)",
                                  std::string(faultKindName(kind)).c_str(),
                                  what.c_str(), prog_.name.c_str(),
                                  blockIdx_);
        return WarpStop::Faulted;
    }

    // ---- functional memory ----

    bool
    loadValue(MemSpace space, MemWidth width, std::int64_t addr,
              std::uint32_t thread, std::uint64_t* out, FaultKind* fk)
    {
        const std::int64_t size = ir::memWidthBytes(width);
        const std::uint8_t* base = nullptr;
        switch (space) {
          case MemSpace::Global:
            if (!mem_.mapped(addr, size)) {
                *fk = FaultKind::MemOobGlobal;
                return false;
            }
            base = mem_.raw();
            break;
          case MemSpace::Shared:
            if (!inBounds(addr, size,
                          static_cast<std::int64_t>(shared_.size()))) {
                *fk = FaultKind::MemOobShared;
                return false;
            }
            base = shared_.data();
            break;
          case MemSpace::Local:
            if (!inBounds(addr, size,
                          static_cast<std::int64_t>(prog_.localBytes))) {
                *fk = FaultKind::MemOobLocal;
                return false;
            }
            base = local_.data() +
                   static_cast<std::size_t>(thread) * prog_.localBytes;
            break;
          default:
            *fk = FaultKind::InvalidProgram;
            return false;
        }
        std::uint64_t raw = 0;
        std::memcpy(&raw, base + addr, static_cast<std::size_t>(size));
        switch (width) {
          case MemWidth::I8:
            raw = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int8_t>(raw)));
            break;
          case MemWidth::I16:
            raw = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int16_t>(raw)));
            break;
          case MemWidth::I32:
            raw = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int32_t>(raw)));
            break;
          default:
            break; // U8/U16/U32/F32/I64: zero-extended raw bits.
        }
        *out = raw;
        return true;
    }

    bool
    storeValue(MemSpace space, MemWidth width, std::int64_t addr,
               std::uint32_t thread, std::uint64_t value, FaultKind* fk)
    {
        const std::int64_t size = ir::memWidthBytes(width);
        std::uint8_t* base = nullptr;
        switch (space) {
          case MemSpace::Global:
            if (!mem_.mapped(addr, size)) {
                *fk = FaultKind::MemOobGlobal;
                return false;
            }
            base = mem_.raw();
            break;
          case MemSpace::Shared:
            if (!inBounds(addr, size,
                          static_cast<std::int64_t>(shared_.size()))) {
                *fk = FaultKind::MemOobShared;
                return false;
            }
            base = shared_.data();
            break;
          case MemSpace::Local:
            if (!inBounds(addr, size,
                          static_cast<std::int64_t>(prog_.localBytes))) {
                *fk = FaultKind::MemOobLocal;
                return false;
            }
            base = local_.data() +
                   static_cast<std::size_t>(thread) * prog_.localBytes;
            break;
          default:
            *fk = FaultKind::InvalidProgram;
            return false;
        }
        std::memcpy(base + addr, &value, static_cast<std::size_t>(size));
        return true;
    }

    // ---- timing helpers ----

    /// Shared-memory conflict ways: max accesses per 4B bank among the
    /// active lanes; identical addresses broadcast on loads but serialize
    /// on stores.
    std::uint32_t
    sharedConflictWays(const std::int64_t* addrs, std::uint32_t mask,
                       bool isStore)
    {
        std::uint32_t perBank[32] = {};
        std::int64_t firstAddr[32];
        bool seen[32] = {};
        std::uint32_t ways = 1;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            const std::int64_t a = addrs[lane];
            const auto bank = static_cast<std::uint32_t>((a >> 2) & 31);
            if (!seen[bank]) {
                seen[bank] = true;
                firstAddr[bank] = a;
                perBank[bank] = 1;
            } else if (isStore || firstAddr[bank] != a) {
                // Loads of the same address broadcast (1 way);
                // anything else serializes.
                ++perBank[bank];
            }
            ways = std::max(ways, perBank[bank]);
        }
        return ways;
    }

    /// Global coalescing: distinct 32B sectors touched by active lanes
    /// (sort the <=32 sector ids, count runs — the duplicate scan used to
    /// be quadratic in the active-lane count). Coalesced accesses gather
    /// already non-decreasing ids, so the sort is skipped for them.
    std::uint32_t
    globalSectors(const std::int64_t* addrs, std::uint32_t mask)
    {
        std::int64_t sectors[kWarpSize];
        int n = 0;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (mask & (1u << lane))
                sectors[n++] = addrs[lane] >> 5;
        }
        if (!std::is_sorted(sectors, sectors + n))
            std::sort(sectors, sectors + n);
        int distinct = 0;
        for (int i = 0; i < n; ++i) {
            if (i == 0 || sectors[i] != sectors[i - 1])
                ++distinct;
        }
        return static_cast<std::uint32_t>(std::max(1, distinct));
    }

    /// Issue slots and result latency of one memory instruction, shared
    /// verbatim by the reference and trace interpreters (including the
    /// bank-conflict / sector-coalescing stats side effects).
    void
    memTiming(const DecodedInstr& in, const std::int64_t* addrs,
              std::uint32_t mask, std::uint64_t* slots, std::uint64_t* lat)
    {
        *slots = 1;
        *lat = dev_.aluLat;
        if (in.space == MemSpace::Shared) {
            const bool isStore = in.op == Opcode::Store;
            std::uint32_t ways =
                in.op == Opcode::AtomicRMW
                    ? std::popcount(mask)
                    : sharedConflictWays(addrs, mask, isStore);
            if (isStore)
                ways = std::min(ways, dev_.storeWaysCap);
            stats_->sharedConflictWays += ways - 1;
            *slots = static_cast<std::uint64_t>(dev_.sharedIssue) * ways;
            *lat = dev_.sharedLat;
            if (isStore) {
                // Store-completion skew: the store retires with its last
                // participating sub-warp transaction, so a lone store from
                // a high lane pays almost a full warp's scheduling slots
                // while a full-warp store amortizes them (this models the
                // effect behind paper edit 5, Sec VI-A).
                const int hi = 31 - std::countl_zero(mask);
                *slots += static_cast<std::uint64_t>(
                    dev_.storeLaneSkew * (hi + 1) /
                    std::popcount(mask));
            }
        } else if (in.space == MemSpace::Global) {
            const std::uint32_t sectors = globalSectors(addrs, mask);
            stats_->globalSectors += sectors;
            if (in.op == Opcode::AtomicRMW) {
                *slots = static_cast<std::uint64_t>(dev_.atomicIssue) *
                         std::popcount(mask);
                *lat = dev_.atomicLat;
            } else {
                *slots = static_cast<std::uint64_t>(dev_.globalSectorIssue) *
                         sectors;
                *lat = dev_.globalLat;
            }
        } else { // Local
            *slots = dev_.sharedIssue;
            *lat = dev_.sharedLat;
        }
    }

    /// Stall until source registers are ready, then consume issue slots.
    /// The stall set is the decode-time srcRegs list — identical to
    /// re-testing Operand::kind per slot, without the per-step branches.
    void
    issue(WarpState& warp, const DecodedInstr& in, std::uint64_t slots)
    {
        for (int i = 0; i < in.numSrcRegs; ++i)
            warp.cycle = std::max(
                warp.cycle,
                warp.ready[static_cast<std::size_t>(in.srcRegs[i])]);
        warp.cycle += slots;
        warp.issueCycles += slots;
        ++warp.issuedInstrs;
        ++stats_->warpInstrs;
        // locIssues is preallocated to maxLoc + 1 slots when profiling, so
        // this is a plain indexed increment (slot 0 catches no-loc code).
        if (profileLocs_)
            ++stats_->locIssues[in.loc];
    }

    void
    setReady(WarpState& warp, std::int32_t dest, std::uint64_t lat)
    {
        if (dest >= 0)
            warp.ready[static_cast<std::size_t>(dest)] = warp.cycle + lat;
    }

    // ---- warp-uniform register tracking (trace path) ----

    static bool
    uniTest(const WarpState& warp, std::size_t r)
    {
        return (warp.uniBits[r >> 6] >> (r & 63)) & 1u;
    }

    static void
    uniSet(WarpState& warp, std::size_t r)
    {
        warp.uniBits[r >> 6] |= std::uint64_t{1} << (r & 63);
    }

    static void
    uniClear(WarpState& warp, std::size_t r)
    {
        warp.uniBits[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
    }

    SrcView
    viewOf(const WarpState& warp, const Operand& op) const
    {
        if (!op.isReg())
            return {nullptr, static_cast<std::uint64_t>(op.value)};
        const auto r = static_cast<std::size_t>(op.value);
        if (uniTest(warp, r))
            return {nullptr, warp.uniVal[r]};
        return {warp.regs.data() + r, 0};
    }

    /// Rewrite all 32 lanes of a uniform register from uniVal and drop
    /// the uniform bit — called before any per-lane write of that
    /// register so lanes outside the active mask keep the right value.
    void
    materializeReg(WarpState& warp, std::int32_t dest)
    {
        const auto r = static_cast<std::size_t>(dest);
        if (!uniTest(warp, r))
            return;
        const std::uint64_t w = warp.uniVal[r];
        std::uint64_t* p = warp.regs.data() + r;
        for (int lane = 0; lane < kWarpSize; ++lane, p += prog_.numRegs)
            *p = w;
        uniClear(warp, r);
    }

    /// Commit a warp-invariant result \p v to \p dest under \p mask,
    /// preserving the uniformity invariant. The common cases (value
    /// unchanged, or a full-warp overwrite) touch no lane storage at all.
    void
    writeScalarResult(WarpState& warp, std::int32_t dest,
                      std::uint32_t mask, std::uint64_t v)
    {
        const auto r = static_cast<std::size_t>(dest);
        if (uniTest(warp, r)) {
            const std::uint64_t w = warp.uniVal[r];
            if (w == v)
                return;
            if (mask == kFullMask) {
                warp.uniVal[r] = v;
                return;
            }
            std::uint64_t* p = warp.regs.data() + r;
            for (int lane = 0; lane < kWarpSize; ++lane,
                     p += prog_.numRegs)
                *p = (mask >> lane) & 1u ? v : w;
            uniClear(warp, r);
            return;
        }
        if (mask == kFullMask) {
            warp.uniVal[r] = v;
            uniSet(warp, r);
            return;
        }
        std::uint64_t* p = warp.regs.data() + r;
        for (int lane = 0; lane < kWarpSize; ++lane, p += prog_.numRegs) {
            if ((mask >> lane) & 1u)
                *p = v;
        }
    }

    // ---- the interpreters ----

    /// Pop dead/reconverged stack entries and retire implicit exits.
    /// Returns false when the warp is done (stack empty or no lanes
    /// alive) — shared bookkeeping of both interpreters, so the
    /// retirement rules can never diverge between them.
    static bool
    resolveStack(WarpState& warp)
    {
        while (!warp.stack.empty()) {
            StackEntry& top = warp.stack.back();
            if ((top.mask & warp.aliveMask) == 0) {
                warp.stack.pop_back();
                continue;
            }
            if (top.pc == kExitPc) {
                // Implicit exit: retire these lanes.
                warp.aliveMask &= ~top.mask;
                warp.stack.pop_back();
                continue;
            }
            if (top.pc == top.reconvPc) {
                warp.stack.pop_back();
                continue;
            }
            break;
        }
        if (warp.stack.empty() || warp.aliveMask == 0) {
            warp.done = true;
            return false;
        }
        return true;
    }

    WarpStop runWarpRef(WarpState& warp);
    WarpStop stepRef(WarpState& warp);
    WarpStop runWarpTrace(WarpState& warp);
    // Templated on the packing mode so the full-width instantiation keeps
    // the original straight masked loops (no per-lane indirection) while
    // the dense one iterates the gathered slots; \p act is only read when
    // kDense.
    template <bool kDense>
    WarpStop execInstr(WarpState& warp, const DecodedInstr& in,
                       std::uint32_t mask, const ActiveSet* act);

    const DeviceConfig& dev_;
    DeviceMemory& mem_;
    const Program& prog_;
    LaunchDims dims_;
    const std::vector<std::uint64_t>& args_;
    std::uint32_t blockIdx_ = 0;
    LaunchStats* stats_;
    bool profileLocs_;
    bool trace_;
    bool dense_;

    std::vector<std::uint8_t>& shared_;
    std::vector<std::uint8_t>& local_;
    std::vector<WarpState>& warps_;
    Fault fault_;
};

/// Reference interpreter: the original per-instruction loop. Kept alive
/// behind GEVO_SIM_REFPATH as the differential-testing oracle for the
/// trace interpreter — it re-resolves the reconvergence stack and
/// re-dispatches per instruction, with no span or uniformity machinery.
WarpStop
BlockRunner::runWarpRef(WarpState& warp)
{
    while (true) {
        const WarpStop result = stepRef(warp);
        if (result == WarpStop::Faulted || result == WarpStop::AtBarrier)
            return result;
        if (warp.done)
            return WarpStop::Done;
    }
}

/// Executes exactly one warp instruction (or resolves stack bookkeeping).
WarpStop
BlockRunner::stepRef(WarpState& warp)
{
    // Resolve reconvergence and dead entries before fetching.
    if (!resolveStack(warp))
        return WarpStop::Done;

    if (warp.issuedInstrs > dev_.maxInstrPerThread)
        return plainFault(FaultKind::Timeout, "instruction budget exceeded");

    StackEntry& top = warp.stack.back();
    const std::uint32_t mask = top.mask & warp.aliveMask;
    const auto pc = static_cast<std::size_t>(top.pc);
    if (pc >= prog_.code.size())
        return plainFault(FaultKind::InvalidProgram, "pc out of range");
    const DecodedInstr& in = prog_.code[pc];

    stats_->laneInstrs += std::popcount(mask);

    const std::uint32_t numRegs = prog_.numRegs;
    std::uint64_t* const regs0 = warp.regs.data();
    auto laneRegs = [regs0, numRegs](int lane) {
        return regs0 + static_cast<std::size_t>(lane) * numRegs;
    };
    auto readOp = [&](const Operand& op, int lane) -> std::uint64_t {
        return op.isReg()
                   ? laneRegs(lane)[static_cast<std::size_t>(op.value)]
                   : static_cast<std::uint64_t>(op.value);
    };

    const ir::OpKind kind = ir::opInfo(in.op).kind;

    switch (kind) {
      case ir::OpKind::Alu:
      case ir::OpKind::Cmp: {
        issue(warp, in, 1);
        // Unused operand slots hold Kind::None with value 0, so reading
        // them unconditionally yields the 0 the evaluator expects — no
        // per-lane nops branching.
        const Operand op0 = in.ops[0];
        const Operand op1 = in.ops[1];
        const Operand op2 = in.ops[2];
        const auto dest = static_cast<std::size_t>(in.dest);
        std::uint64_t* lr = regs0;
        for (int lane = 0; lane < kWarpSize; ++lane, lr += numRegs) {
            if (!(mask & (1u << lane)))
                continue;
            const std::uint64_t a =
                op0.isReg() ? lr[static_cast<std::size_t>(op0.value)]
                            : static_cast<std::uint64_t>(op0.value);
            const std::uint64_t b =
                op1.isReg() ? lr[static_cast<std::size_t>(op1.value)]
                            : static_cast<std::uint64_t>(op1.value);
            const std::uint64_t c =
                op2.isReg() ? lr[static_cast<std::size_t>(op2.value)]
                            : static_cast<std::uint64_t>(op2.value);
            lr[dest] = ir::evalScalar(in.op, a, b, c);
        }
        setReady(warp, in.dest, dev_.aluLat);
        ++top.pc;
        return WarpStop::Done; // caller loops; "Done" here means progress
      }

      case ir::OpKind::Sreg: {
        issue(warp, in, 1);
        // Lane-invariant base computed once outside the lane loop; only
        // Tid/LaneId add the per-lane term.
        std::uint64_t base = 0;
        bool addLane = false;
        switch (in.op) {
          case Opcode::Tid:
            base = static_cast<std::uint64_t>(warp.index) * kWarpSize;
            addLane = true;
            break;
          case Opcode::Bid: base = blockIdx_; break;
          case Opcode::BlockDim: base = dims_.blockDim; break;
          case Opcode::GridDim: base = dims_.gridDim; break;
          case Opcode::LaneId: addLane = true; break;
          case Opcode::WarpId:
            base = static_cast<std::uint64_t>(warp.index);
            break;
          default: break;
        }
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            laneRegs(lane)[static_cast<std::size_t>(in.dest)] =
                base + (addLane ? static_cast<std::uint64_t>(lane) : 0);
        }
        setReady(warp, in.dest, 1);
        ++top.pc;
        return WarpStop::Done;
      }

      case ir::OpKind::Mem: {
        // Gather per-lane addresses first.
        std::int64_t addrs[kWarpSize] = {};
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (mask & (1u << lane))
                addrs[lane] =
                    static_cast<std::int64_t>(readOp(in.ops[0], lane));
        }

        std::uint64_t slots = 1;
        std::uint64_t lat = dev_.aluLat;
        memTiming(in, addrs, mask, &slots, &lat);
        issue(warp, in, slots);

        FaultKind fk = FaultKind::None;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            const auto thread =
                static_cast<std::uint32_t>(warp.index) * kWarpSize +
                static_cast<std::uint32_t>(lane);
            const std::int64_t addr = addrs[lane];
            if (in.op == Opcode::Load) {
                std::uint64_t v = 0;
                if (!loadValue(in.space, in.width, addr, thread, &v, &fk))
                    return memFault(fk, addr);
                laneRegs(lane)[static_cast<std::size_t>(in.dest)] = v;
            } else if (in.op == Opcode::Store) {
                const std::uint64_t v = readOp(in.ops[1], lane);
                if (!storeValue(in.space, in.width, addr, thread, v, &fk))
                    return memFault(fk, addr);
            } else { // AtomicRMW, lane order = deterministic resolution
                std::uint64_t old = 0;
                if (!loadValue(in.space,
                               in.atom == ir::AtomicOp::AddF32
                                   ? MemWidth::U32
                                   : MemWidth::I32,
                               addr, thread, &old, &fk))
                    return memFault(fk, addr);
                const std::uint64_t b = readOp(in.ops[1], lane);
                std::uint64_t next = old;
                bool doStore = true;
                switch (in.atom) {
                  case ir::AtomicOp::AddI32:
                    next = ir::evalScalar(Opcode::AddI32, old, b);
                    break;
                  case ir::AtomicOp::AddF32:
                    next = ir::evalScalar(Opcode::AddF32, old, b);
                    break;
                  case ir::AtomicOp::MaxI32:
                    next = ir::evalScalar(Opcode::MaxI32, old, b);
                    break;
                  case ir::AtomicOp::MinI32:
                    next = ir::evalScalar(Opcode::MinI32, old, b);
                    break;
                  case ir::AtomicOp::Exch:
                    next = b;
                    break;
                  case ir::AtomicOp::Cas: {
                    const std::uint64_t newv = readOp(in.ops[2], lane);
                    if (ir::asI32(old) == ir::asI32(b)) {
                        next = newv;
                    } else {
                        doStore = false;
                    }
                    break;
                  }
                  default:
                    doStore = false;
                    break;
                }
                if (doStore &&
                    !storeValue(in.space, MemWidth::I32, addr, thread, next,
                                &fk))
                    return memFault(fk, addr);
                laneRegs(lane)[static_cast<std::size_t>(in.dest)] = old;
            }
        }
        if (in.op != Opcode::Store)
            setReady(warp, in.dest, lat);
        ++top.pc;
        return WarpStop::Done;
      }

      case ir::OpKind::Sync: {
        if (in.op == Opcode::Barrier) {
            if (mask != warp.aliveMask)
                return plainFault(FaultKind::BarrierDivergence,
                                  "bar.sync under divergence");
            issue(warp, in, 1 + dev_.barrierIssue);
            ++top.pc;
            warp.atBarrier = true;
            return WarpStop::AtBarrier;
        }
        if (in.op == Opcode::ActiveMask) {
            issue(warp, in, 1);
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (mask & (1u << lane))
                    laneRegs(lane)[static_cast<std::size_t>(in.dest)] = mask;
            }
            setReady(warp, in.dest, 1);
            ++top.pc;
            return WarpStop::Done;
        }
        if (in.op == Opcode::Ballot) {
            issue(warp, in, dev_.ballotIssue + dev_.ballotResync);
            // Per-lane sync mask must cover only active lanes on Volta.
            std::uint32_t result = 0;
            std::uint32_t syncMask = 0;
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (!(mask & (1u << lane)))
                    continue;
                syncMask = static_cast<std::uint32_t>(
                    readOp(in.ops[0], lane));
                if (readOp(in.ops[1], lane) != 0)
                    result |= 1u << lane;
            }
            if (dev_.independentThreadScheduling() &&
                (syncMask & ~mask) != 0)
                return plainFault(FaultKind::IllegalWarpSync,
                                  "ballot mask names inactive lanes");
            result &= syncMask;
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (mask & (1u << lane))
                    laneRegs(lane)[static_cast<std::size_t>(in.dest)] =
                        result;
            }
            setReady(warp, in.dest, dev_.shflLat);
            ++top.pc;
            return WarpStop::Done;
        }
        // ShflUp / ShflIdx.
        issue(warp, in, dev_.shflIssue);
        std::uint64_t srcVals[kWarpSize];
        for (int lane = 0; lane < kWarpSize; ++lane)
            srcVals[lane] = readOp(in.ops[1], lane);
        std::uint64_t results[kWarpSize] = {};
        std::uint32_t syncMask = 0;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            syncMask =
                static_cast<std::uint32_t>(readOp(in.ops[0], lane));
            const auto arg =
                static_cast<std::int64_t>(readOp(in.ops[2], lane));
            int src = lane;
            if (in.op == Opcode::ShflUp) {
                src = lane - static_cast<int>(arg);
            } else {
                src = static_cast<int>(arg);
            }
            if (src >= 0 && src < kWarpSize &&
                (syncMask & (1u << src)) != 0) {
                results[lane] = srcVals[src];
            } else {
                results[lane] = srcVals[lane];
            }
        }
        if (dev_.independentThreadScheduling() && (syncMask & ~mask) != 0)
            return plainFault(FaultKind::IllegalWarpSync,
                              "shfl mask names inactive lanes");
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (mask & (1u << lane))
                laneRegs(lane)[static_cast<std::size_t>(in.dest)] =
                    results[lane];
        }
        setReady(warp, in.dest, dev_.shflLat);
        ++top.pc;
        return WarpStop::Done;
      }

      case ir::OpKind::Ctrl: {
        if (in.op == Opcode::Ret) {
            issue(warp, in, 1);
            warp.aliveMask &= ~mask;
            warp.stack.pop_back();
            return WarpStop::Done;
        }
        if (in.op == Opcode::Br) {
            issue(warp, in, 1);
            top.pc = in.target0;
            return WarpStop::Done;
        }
        // CondBr.
        std::uint32_t takenMask = 0;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if ((mask & (1u << lane)) && readOp(in.ops[0], lane) != 0)
                takenMask |= 1u << lane;
        }
        const std::uint32_t fallMask = mask & ~takenMask;
        if (in.target0 == in.target1 || fallMask == 0) {
            issue(warp, in, 1);
            top.pc = in.target0;
            return WarpStop::Done;
        }
        if (takenMask == 0) {
            issue(warp, in, 1);
            top.pc = in.target1;
            return WarpStop::Done;
        }
        // Divergence: the reconvergence-stack management occupies issue
        // slots (both sides will each issue their path on top of this).
        ++stats_->divergences;
        issue(warp, in, 1 + dev_.divergeOverhead);
        const std::int32_t reconv = in.reconvPc;
        top.pc = reconv;
        warp.stack.push_back({in.target1, reconv, fallMask});
        warp.stack.push_back({in.target0, reconv, takenMask});
        return WarpStop::Done;
      }

      case ir::OpKind::Misc: {
        issue(warp, in, 1);
        ++top.pc;
        return WarpStop::Done;
      }
    }
    return plainFault(FaultKind::InvalidProgram, "unhandled opcode");
}

/// Trace interpreter: resolves the reconvergence stack once per span,
/// then executes the whole straight-line span in a tight loop before
/// handling the boundary instruction (branch/barrier) with full stack
/// bookkeeping. Mid-span PCs are never block starts, so no stack entry
/// can die or reconverge inside a span, and the active mask is constant
/// over it. Produces bit-identical results and stats to runWarpRef.
WarpStop
BlockRunner::runWarpTrace(WarpState& warp)
{
    while (true) {
        // Resolve reconvergence and dead entries (needed at span
        // boundaries only: mid-span PCs are never block starts, so no
        // entry can die or reconverge inside a span).
        if (!resolveStack(warp))
            return WarpStop::Done;

        StackEntry& top = warp.stack.back();
        const std::uint32_t mask = top.mask & warp.aliveMask;
        std::int32_t pc = top.pc;
        if (static_cast<std::size_t>(pc) >= prog_.code.size())
            return plainFault(FaultKind::InvalidProgram, "pc out of range");
        const auto popMask =
            static_cast<std::uint32_t>(std::popcount(mask));
        const std::int32_t spanEnd =
            prog_.code[static_cast<std::size_t>(pc)].spanEnd;

        // Dense-lane packing: the mask is constant over the span, so the
        // active lane list is gathered once and every per-lane loop in
        // execInstr runs over just those slots. A full mask stays on the
        // legacy all-lanes loops (no indirection on the uniform path).
        ActiveSet activeSet;
        const ActiveSet* act = nullptr;
        if (dense_ && mask != kFullMask) {
            activeSet.gather(mask);
            act = &activeSet;
        }

        // ---- straight-line span: no stack or PC bookkeeping ----
        // The packing mode is span-constant, so each span commits to one
        // execInstr instantiation up front.
        if (act != nullptr) {
            for (; pc < spanEnd; ++pc) {
                if (warp.issuedInstrs > dev_.maxInstrPerThread)
                    return plainFault(FaultKind::Timeout,
                                      "instruction budget exceeded");
                const DecodedInstr& in =
                    prog_.code[static_cast<std::size_t>(pc)];
                stats_->laneInstrs += popMask;
                if (execInstr<true>(warp, in, mask, act) ==
                    WarpStop::Faulted)
                    return WarpStop::Faulted;
            }
        } else {
            for (; pc < spanEnd; ++pc) {
                if (warp.issuedInstrs > dev_.maxInstrPerThread)
                    return plainFault(FaultKind::Timeout,
                                      "instruction budget exceeded");
                const DecodedInstr& in =
                    prog_.code[static_cast<std::size_t>(pc)];
                stats_->laneInstrs += popMask;
                if (execInstr<false>(warp, in, mask, nullptr) ==
                    WarpStop::Faulted)
                    return WarpStop::Faulted;
            }
        }

        // ---- boundary instruction: control flow or barrier ----
        if (warp.issuedInstrs > dev_.maxInstrPerThread)
            return plainFault(FaultKind::Timeout,
                              "instruction budget exceeded");
        const DecodedInstr& in = prog_.code[static_cast<std::size_t>(pc)];
        stats_->laneInstrs += popMask;

        if (in.op == Opcode::Barrier) {
            if (mask != warp.aliveMask)
                return plainFault(FaultKind::BarrierDivergence,
                                  "bar.sync under divergence");
            issue(warp, in, 1 + dev_.barrierIssue);
            top.pc = pc + 1;
            warp.atBarrier = true;
            return WarpStop::AtBarrier;
        }
        if (in.op == Opcode::Ret) {
            issue(warp, in, 1);
            warp.aliveMask &= ~mask;
            warp.stack.pop_back();
            continue;
        }
        if (in.op == Opcode::Br) {
            issue(warp, in, 1);
            top.pc = in.target0;
            continue;
        }
        // CondBr. A uniform condition register decides the whole warp in
        // one scalar test — the dominant case for loop back-edges.
        const SrcView cond = viewOf(warp, in.ops[0]);
        std::uint32_t takenMask = 0;
        if (cond.base == nullptr) {
            takenMask = cond.scalar != 0 ? mask : 0;
        } else if (act != nullptr) {
            // The boundary executes under the span's mask, so the span's
            // active set is still exact here.
            for (int k = 0; k < act->n; ++k) {
                const int lane = act->lanes[k];
                if (cond.base[static_cast<std::size_t>(lane) *
                              prog_.numRegs] != 0)
                    takenMask |= 1u << lane;
            }
        } else {
            const std::uint64_t* p = cond.base;
            for (int lane = 0; lane < kWarpSize;
                 ++lane, p += prog_.numRegs) {
                if ((mask & (1u << lane)) && *p != 0)
                    takenMask |= 1u << lane;
            }
        }
        const std::uint32_t fallMask = mask & ~takenMask;
        if (in.target0 == in.target1 || fallMask == 0) {
            issue(warp, in, 1);
            top.pc = in.target0;
            continue;
        }
        if (takenMask == 0) {
            issue(warp, in, 1);
            top.pc = in.target1;
            continue;
        }
        // Divergence: the reconvergence-stack management occupies issue
        // slots (both sides will each issue their path on top of this).
        ++stats_->divergences;
        issue(warp, in, 1 + dev_.divergeOverhead);
        const std::int32_t reconv = in.reconvPc;
        top.pc = reconv;
        warp.stack.push_back({in.target1, reconv, fallMask});
        warp.stack.push_back({in.target0, reconv, takenMask});
    }
}

/// One non-boundary instruction under the trace interpreter: ALU/Cmp with
/// warp-uniform scalarization, Sreg broadcast, memory, and the
/// non-barrier warp intrinsics. Never touches the reconvergence stack.
///
/// When \p kDense, \p act is the span's gathered active-lane list (the
/// dense-lane fast path); every per-lane loop below iterates either the
/// dense slots or all 32 lanes with a mask test, through one shared body,
/// in the same ascending lane order — so values, stats and fault order
/// are bit-identical in both modes. kDense is a template parameter so
/// the full-width instantiation compiles to the original masked loops
/// with no per-lane indirection.
template <bool kDense>
WarpStop
BlockRunner::execInstr(WarpState& warp, const DecodedInstr& in,
                       std::uint32_t mask, const ActiveSet* act)
{
    const std::uint32_t numRegs = prog_.numRegs;
    std::uint64_t* const regs0 = warp.regs.data();
    const int laneLimit = kDense ? act->n : kWarpSize;
    // One shared iteration header for every per-lane loop: slot k maps to
    // a dense lane (active by construction) or to lane k (masked test).
    const auto laneAt = [act](int k) {
        return kDense ? static_cast<int>(act->lanes[k]) : k;
    };

    switch (in.kind) {
      case ir::OpKind::Alu:
      case ir::OpKind::Cmp: {
        issue(warp, in, 1);
        // Unused operand slots hold Kind::None with value 0, so viewing
        // them unconditionally yields the scalar 0 the evaluator expects.
        const SrcView a = viewOf(warp, in.ops[0]);
        const SrcView b = viewOf(warp, in.ops[1]);
        const SrcView c = viewOf(warp, in.ops[2]);
        if (a.base == nullptr && b.base == nullptr && c.base == nullptr) {
            // All operands warp-invariant: evaluate once, broadcast.
            writeScalarResult(
                warp, in.dest, mask,
                ir::evalScalar(in.op, a.scalar, b.scalar, c.scalar));
        } else {
            // Lane-varying: one dispatch on the opcode, then the
            // opcode's own straight-line lane loop (sim/lane_alu.h).
            materializeReg(warp, in.dest);
            kAluLanes<kDense>[static_cast<std::size_t>(in.op)](
                {regs0, numRegs, static_cast<std::size_t>(in.dest), a, b, c,
                 mask, act});
        }
        setReady(warp, in.dest, dev_.aluLat);
        return WarpStop::Done;
      }

      case ir::OpKind::Sreg: {
        issue(warp, in, 1);
        switch (in.op) {
          case Opcode::Tid:
          case Opcode::LaneId: {
            materializeReg(warp, in.dest);
            const std::uint64_t base =
                in.op == Opcode::Tid
                    ? static_cast<std::uint64_t>(warp.index) * kWarpSize
                    : 0;
            const auto dest = static_cast<std::size_t>(in.dest);
            for (int k = 0; k < laneLimit; ++k) {
                const int lane = laneAt(k);
                if (!kDense && !(mask & (1u << lane)))
                    continue;
                regs0[static_cast<std::size_t>(lane) * numRegs + dest] =
                    base + static_cast<std::uint64_t>(lane);
            }
            break;
          }
          default: { // Bid / BlockDim / GridDim / WarpId: warp-invariant.
            std::uint64_t v = 0;
            switch (in.op) {
              case Opcode::Bid: v = blockIdx_; break;
              case Opcode::BlockDim: v = dims_.blockDim; break;
              case Opcode::GridDim: v = dims_.gridDim; break;
              case Opcode::WarpId:
                v = static_cast<std::uint64_t>(warp.index);
                break;
              default: break;
            }
            writeScalarResult(warp, in.dest, mask, v);
            break;
          }
        }
        setReady(warp, in.dest, 1);
        return WarpStop::Done;
      }

      case ir::OpKind::Mem: {
        const SrcView av = viewOf(warp, in.ops[0]);
        std::int64_t addrs[kWarpSize] = {};
        if (av.base == nullptr) {
            const auto addr = static_cast<std::int64_t>(av.scalar);
            for (int k = 0; k < laneLimit; ++k) {
                const int lane = laneAt(k);
                if (!kDense && !(mask & (1u << lane)))
                    continue;
                addrs[lane] = addr;
            }
        } else {
            for (int k = 0; k < laneLimit; ++k) {
                const int lane = laneAt(k);
                if (!kDense && !(mask & (1u << lane)))
                    continue;
                addrs[lane] = static_cast<std::int64_t>(
                    av.base[static_cast<std::size_t>(lane) * numRegs]);
            }
        }
        std::uint64_t slots = 1;
        std::uint64_t lat = dev_.aluLat;
        memTiming(in, addrs, mask, &slots, &lat);
        issue(warp, in, slots);

        FaultKind fk = FaultKind::None;
        if (in.op == Opcode::Load) {
            if (av.base == nullptr && in.space != MemSpace::Local) {
                // Uniform address, shared backing store: one access
                // serves the whole warp (a broadcast on real hardware).
                const auto addr = static_cast<std::int64_t>(av.scalar);
                std::uint64_t v = 0;
                if (!loadValue(in.space, in.width, addr, 0, &v, &fk))
                    return memFault(fk, addr);
                writeScalarResult(warp, in.dest, mask, v);
            } else {
                materializeReg(warp, in.dest);
                const auto dest = static_cast<std::size_t>(in.dest);
                for (int k = 0; k < laneLimit; ++k) {
                    const int lane = laneAt(k);
                    if (!kDense && !(mask & (1u << lane)))
                        continue;
                    const auto thread =
                        static_cast<std::uint32_t>(warp.index) *
                            kWarpSize +
                        static_cast<std::uint32_t>(lane);
                    std::uint64_t v = 0;
                    if (!loadValue(in.space, in.width, addrs[lane],
                                   thread, &v, &fk))
                        return memFault(fk, addrs[lane]);
                    regs0[static_cast<std::size_t>(lane) * numRegs +
                          dest] = v;
                }
            }
            setReady(warp, in.dest, lat);
            return WarpStop::Done;
        }
        if (in.op == Opcode::Store) {
            const SrcView sv = viewOf(warp, in.ops[1]);
            if (av.base == nullptr && sv.base == nullptr &&
                in.space != MemSpace::Local) {
                // Uniform address and value: the lanes' stores are
                // byte-identical, one commit suffices.
                const auto addr = static_cast<std::int64_t>(av.scalar);
                if (!storeValue(in.space, in.width, addr, 0, sv.scalar,
                                &fk))
                    return memFault(fk, addr);
                return WarpStop::Done;
            }
            for (int k = 0; k < laneLimit; ++k) {
                const int lane = laneAt(k);
                if (!kDense && !(mask & (1u << lane)))
                    continue;
                const auto thread =
                    static_cast<std::uint32_t>(warp.index) * kWarpSize +
                    static_cast<std::uint32_t>(lane);
                const std::uint64_t v =
                    sv.base ? sv.base[static_cast<std::size_t>(lane) *
                                      numRegs]
                            : sv.scalar;
                if (!storeValue(in.space, in.width, addrs[lane], thread,
                                v, &fk))
                    return memFault(fk, addrs[lane]);
            }
            return WarpStop::Done;
        }
        // AtomicRMW: lane order is the deterministic resolution order, so
        // this path stays per-lane (dense slots preserve ascending lane
        // order); operand reads still use the views.
        const SrcView bv = viewOf(warp, in.ops[1]);
        const SrcView cv = viewOf(warp, in.ops[2]);
        materializeReg(warp, in.dest);
        const auto dest = static_cast<std::size_t>(in.dest);
        for (int k = 0; k < laneLimit; ++k) {
            const int lane = laneAt(k);
            if (!kDense && !(mask & (1u << lane)))
                continue;
            const auto thread =
                static_cast<std::uint32_t>(warp.index) * kWarpSize +
                static_cast<std::uint32_t>(lane);
            const std::int64_t addr = addrs[lane];
            std::uint64_t old = 0;
            if (!loadValue(in.space,
                           in.atom == ir::AtomicOp::AddF32 ? MemWidth::U32
                                                           : MemWidth::I32,
                           addr, thread, &old, &fk))
                return memFault(fk, addr);
            const std::uint64_t b =
                bv.base
                    ? bv.base[static_cast<std::size_t>(lane) * numRegs]
                    : bv.scalar;
            std::uint64_t next = old;
            bool doStore = true;
            switch (in.atom) {
              case ir::AtomicOp::AddI32:
                next = ir::evalScalar(Opcode::AddI32, old, b);
                break;
              case ir::AtomicOp::AddF32:
                next = ir::evalScalar(Opcode::AddF32, old, b);
                break;
              case ir::AtomicOp::MaxI32:
                next = ir::evalScalar(Opcode::MaxI32, old, b);
                break;
              case ir::AtomicOp::MinI32:
                next = ir::evalScalar(Opcode::MinI32, old, b);
                break;
              case ir::AtomicOp::Exch:
                next = b;
                break;
              case ir::AtomicOp::Cas: {
                const std::uint64_t newv =
                    cv.base ? cv.base[static_cast<std::size_t>(lane) *
                                      numRegs]
                            : cv.scalar;
                if (ir::asI32(old) == ir::asI32(b)) {
                    next = newv;
                } else {
                    doStore = false;
                }
                break;
              }
              default:
                doStore = false;
                break;
            }
            if (doStore &&
                !storeValue(in.space, MemWidth::I32, addr, thread, next,
                            &fk))
                return memFault(fk, addr);
            regs0[static_cast<std::size_t>(lane) * numRegs + dest] = old;
        }
        setReady(warp, in.dest, lat);
        return WarpStop::Done;
      }

      case ir::OpKind::Sync: {
        if (in.op == Opcode::ActiveMask) {
            issue(warp, in, 1);
            writeScalarResult(warp, in.dest, mask, mask);
            setReady(warp, in.dest, 1);
            return WarpStop::Done;
        }
        if (in.op == Opcode::Ballot) {
            issue(warp, in, dev_.ballotIssue + dev_.ballotResync);
            const SrcView mv = viewOf(warp, in.ops[0]);
            const SrcView pv = viewOf(warp, in.ops[1]);
            std::uint32_t result = 0;
            std::uint32_t syncMask = 0;
            if (mv.base == nullptr && pv.base == nullptr) {
                syncMask = static_cast<std::uint32_t>(mv.scalar);
                result = pv.scalar != 0 ? mask : 0;
            } else {
                // Ascending order matters: the fault check below reads
                // the last active lane's mask value.
                for (int k = 0; k < laneLimit; ++k) {
                    const int lane = laneAt(k);
                    if (!kDense && !(mask & (1u << lane)))
                        continue;
                    const std::size_t off =
                        static_cast<std::size_t>(lane) * numRegs;
                    syncMask = static_cast<std::uint32_t>(
                        mv.base ? mv.base[off] : mv.scalar);
                    const std::uint64_t pred =
                        pv.base ? pv.base[off] : pv.scalar;
                    if (pred != 0)
                        result |= 1u << lane;
                }
            }
            if (dev_.independentThreadScheduling() &&
                (syncMask & ~mask) != 0)
                return plainFault(FaultKind::IllegalWarpSync,
                                  "ballot mask names inactive lanes");
            result &= syncMask;
            writeScalarResult(warp, in.dest, mask, result);
            setReady(warp, in.dest, dev_.shflLat);
            return WarpStop::Done;
        }
        // ShflUp / ShflIdx.
        issue(warp, in, dev_.shflIssue);
        const SrcView mv = viewOf(warp, in.ops[0]);
        const SrcView vv = viewOf(warp, in.ops[1]);
        const SrcView iv = viewOf(warp, in.ops[2]);
        if (vv.base == nullptr) {
            // Uniform source value: every lane shuffles in the same
            // value whatever the source-lane indices and per-lane masks
            // resolve to. The fault check sees the last active lane's
            // mask read, exactly as the reference loop leaves it.
            std::uint32_t syncMask = 0;
            if (mv.base == nullptr) {
                syncMask = static_cast<std::uint32_t>(mv.scalar);
            } else {
                const int hi = 31 - std::countl_zero(mask);
                syncMask = static_cast<std::uint32_t>(
                    mv.base[static_cast<std::size_t>(hi) * numRegs]);
            }
            if (dev_.independentThreadScheduling() &&
                (syncMask & ~mask) != 0)
                return plainFault(FaultKind::IllegalWarpSync,
                                  "shfl mask names inactive lanes");
            writeScalarResult(warp, in.dest, mask, vv.scalar);
            setReady(warp, in.dest, dev_.shflLat);
            return WarpStop::Done;
        }
        // Source values are gathered from ALL 32 lanes — inactive lanes
        // are legal shuffle sources — so this gather stays full-width
        // even under dense packing.
        std::uint64_t srcVals[kWarpSize];
        for (int lane = 0; lane < kWarpSize; ++lane)
            srcVals[lane] =
                vv.base[static_cast<std::size_t>(lane) * numRegs];
        std::uint64_t results[kWarpSize] = {};
        // Each lane's source-validity test uses that lane's own mask
        // read; the post-loop fault check then sees the last active
        // lane's value — both exactly as in the reference loop.
        std::uint32_t syncMask = 0;
        for (int k = 0; k < laneLimit; ++k) {
            const int lane = laneAt(k);
            if (!kDense && !(mask & (1u << lane)))
                continue;
            const std::size_t off =
                static_cast<std::size_t>(lane) * numRegs;
            syncMask = static_cast<std::uint32_t>(
                mv.base ? mv.base[off] : mv.scalar);
            const auto arg = static_cast<std::int64_t>(
                iv.base ? iv.base[off] : iv.scalar);
            int src = lane;
            if (in.op == Opcode::ShflUp) {
                src = lane - static_cast<int>(arg);
            } else {
                src = static_cast<int>(arg);
            }
            if (src >= 0 && src < kWarpSize &&
                (syncMask & (1u << src)) != 0) {
                results[lane] = srcVals[src];
            } else {
                results[lane] = srcVals[lane];
            }
        }
        if (dev_.independentThreadScheduling() && (syncMask & ~mask) != 0)
            return plainFault(FaultKind::IllegalWarpSync,
                              "shfl mask names inactive lanes");
        materializeReg(warp, in.dest);
        {
            const auto dest = static_cast<std::size_t>(in.dest);
            for (int k = 0; k < laneLimit; ++k) {
                const int lane = laneAt(k);
                if (!kDense && !(mask & (1u << lane)))
                    continue;
                regs0[static_cast<std::size_t>(lane) * numRegs + dest] =
                    results[lane];
            }
        }
        setReady(warp, in.dest, dev_.shflLat);
        return WarpStop::Done;
      }

      case ir::OpKind::Misc: {
        issue(warp, in, 1);
        return WarpStop::Done;
      }

      case ir::OpKind::Ctrl:
        break; // Boundary instructions never reach execInstr.
    }
    return plainFault(FaultKind::InvalidProgram, "unhandled opcode");
}

} // namespace

LaunchResult
launchKernel(const DeviceConfig& dev, DeviceMemory& mem, const Program& prog,
             LaunchDims dims, const std::vector<std::uint64_t>& args,
             bool profileLocs)
{
    LaunchResult result;
    if (dims.blockDim == 0 || dims.blockDim > 1024 || dims.gridDim == 0) {
        result.fault.kind = FaultKind::InvalidProgram;
        result.fault.detail = "bad launch dimensions";
        return result;
    }
    if (args.size() < prog.numParams) {
        result.fault.kind = FaultKind::InvalidProgram;
        result.fault.detail = "missing kernel arguments";
        return result;
    }

    if (profileLocs)
        result.stats.locIssues.assign(prog.maxLoc + 1, 0);

    // Sampled once per launch so every block (and every worker thread of
    // a parallel launch) runs the same interpreter.
    const bool trace = interpreterMode() == InterpMode::Trace;
    const bool dense = trace && denseLaneMode();

    std::uint64_t sumIssue = 0;
    std::uint64_t sumLat = 0;
    const std::uint32_t blockThreads =
        std::min(std::max(1u, dims.blockThreads), dims.gridDim);
    if (blockThreads <= 1) {
        BlockRunner runner(dev, mem, prog, dims, args, &result.stats,
                           profileLocs, trace, dense);
        for (std::uint32_t b = 0; b < dims.gridDim; ++b) {
            std::uint64_t issue = 0;
            std::uint64_t lat = 0;
            const Fault fault = runner.runBlock(b, &issue, &lat);
            if (!fault.ok()) {
                result.fault = fault;
                return result;
            }
            sumIssue += issue;
            sumLat += lat;
        }
    } else {
        // Opt-in block-level parallelism: contiguous block ranges per
        // host thread, each with a private BlockRunner and stats
        // accumulator (see LaunchDims::blockThreads for the contract).
        struct Part {
            LaunchStats stats;
            std::uint64_t sumIssue = 0;
            std::uint64_t sumLat = 0;
            Fault fault;
            std::uint32_t faultBlock = 0;
        };
        std::vector<Part> parts(blockThreads);
        // Lowest faulting block seen so far: threads skip blocks at or
        // beyond it (any block below it still runs, so the minimum
        // faulting block — the one a serial launch would report — is
        // always executed and recorded).
        std::atomic<std::uint32_t> stopAt{dims.gridDim};
        const std::uint32_t chunk =
            (dims.gridDim + blockThreads - 1) / blockThreads;
        std::vector<std::thread> threads;
        threads.reserve(blockThreads);
        for (std::uint32_t t = 0; t < blockThreads; ++t) {
            threads.emplace_back([&, t]() {
                Part& part = parts[t];
                if (profileLocs)
                    part.stats.locIssues.assign(prog.maxLoc + 1, 0);
                BlockRunner runner(dev, mem, prog, dims, args, &part.stats,
                                   profileLocs, trace, dense);
                const std::uint32_t begin = t * chunk;
                const std::uint32_t end =
                    std::min(dims.gridDim, begin + chunk);
                for (std::uint32_t b = begin; b < end; ++b) {
                    if (b >= stopAt.load(std::memory_order_relaxed))
                        break;
                    std::uint64_t issue = 0;
                    std::uint64_t lat = 0;
                    const Fault fault = runner.runBlock(b, &issue, &lat);
                    if (!fault.ok()) {
                        part.fault = fault;
                        part.faultBlock = b;
                        std::uint32_t cur =
                            stopAt.load(std::memory_order_relaxed);
                        while (b < cur &&
                               !stopAt.compare_exchange_weak(
                                   cur, b, std::memory_order_relaxed))
                            ;
                        break;
                    }
                    part.sumIssue += issue;
                    part.sumLat += lat;
                }
            });
        }
        for (auto& th : threads)
            th.join();

        // Deterministic reduction: thread-index order, all counters
        // integral. Pick the fault from the lowest faulting block.
        const Part* faulted = nullptr;
        for (const Part& part : parts) {
            if (!part.fault.ok() &&
                (faulted == nullptr ||
                 part.faultBlock < faulted->faultBlock))
                faulted = &part;
            sumIssue += part.sumIssue;
            sumLat += part.sumLat;
            result.stats.warpInstrs += part.stats.warpInstrs;
            result.stats.laneInstrs += part.stats.laneInstrs;
            result.stats.divergences += part.stats.divergences;
            result.stats.barriers += part.stats.barriers;
            result.stats.sharedConflictWays +=
                part.stats.sharedConflictWays;
            result.stats.globalSectors += part.stats.globalSectors;
            for (std::size_t loc = 0; loc < part.stats.locIssues.size();
                 ++loc)
                result.stats.locIssues[loc] += part.stats.locIssues[loc];
        }
        if (faulted != nullptr) {
            result.fault = faulted->fault;
            return result;
        }
    }
    result.stats.issueCycles = sumIssue;

    // ---- occupancy wave model ----
    const std::uint32_t warpsPerBlock =
        (dims.blockDim + 31) / 32;
    std::uint32_t resident = dev.maxBlocksPerSm;
    resident = std::min(resident,
                        std::max(1u, dev.maxWarpsPerSm / warpsPerBlock));
    if (prog.sharedBytes > 0) {
        resident = std::min(
            resident,
            std::max(1u, dev.sharedPerSmBytes / prog.sharedBytes));
    }
    const std::uint64_t effectiveGrid =
        static_cast<std::uint64_t>(dims.gridDim) *
        std::max(1u, dims.oversubscribe);
    const std::uint32_t blocksPerSm = static_cast<std::uint32_t>(
        (effectiveGrid + dev.smCount - 1) / dev.smCount);
    resident = std::max(1u, std::min(resident, blocksPerSm));
    const std::uint32_t waves = (blocksPerSm + resident - 1) / resident;

    const double avgIssue =
        static_cast<double>(sumIssue) / dims.gridDim;
    const double avgLat = static_cast<double>(sumLat) / dims.gridDim;
    const double waveCycles =
        std::max(resident * avgIssue / dev.issueWidth, avgLat);
    const double cycles = static_cast<double>(waves) * waveCycles;

    result.stats.occupancyBlocks = resident;
    result.stats.cycles = static_cast<std::uint64_t>(cycles);
    result.stats.ms = cycles / (static_cast<double>(dev.clockMhz) * 1e3);
    return result;
}

} // namespace gevo::sim
