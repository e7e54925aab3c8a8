/// \file
/// Opcode-specialized lane loops for the trace interpreter's lane-varying
/// ALU/Cmp instructions.
///
/// `ir::evalScalar` is one switch over every pure opcode. Called per lane,
/// it costs a call and a jump-table dispatch for each active lane. Here
/// each opcode gets its own lane loop, instantiated from `ir::evalScalar`
/// with the opcode fixed at compile time and flattened, so the switch
/// folds to its one live case. The interpreter resolves the opcode once
/// per instruction (one indexed call through `kAluLanes`) and every lane
/// runs straight-line code. The semantics stay defined once, in
/// ir/eval.h.

#ifndef GEVO_SIM_LANE_ALU_H
#define GEVO_SIM_LANE_ALU_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "ir/eval.h"

namespace gevo::sim {

/// Lanes per warp.
constexpr int kWarpSize = 32;

/// Resolved read view of one operand: either a lane-major base pointer
/// (stride numRegs) or a scalar (immediate / uniform value).
struct SrcView {
    const std::uint64_t* base = nullptr;
    std::uint64_t scalar = 0;
};

/// Active lanes of a span's (constant) mask, gathered once per span in
/// ascending lane order. Per-lane loops iterate these slots instead of
/// testing all 32 mask bits — the dense-lane fast path for sparse
/// divergent regions. nullptr (legacy mode, or a full mask) means "loop
/// over all 32 lanes with a mask test". Ascending order keeps every
/// order-sensitive site (atomic resolution, ballot/shfl last-active-lane
/// mask reads) identical to the 32-slot loops.
struct ActiveSet {
    int n = 0;
    std::uint8_t lanes[kWarpSize];

    void
    gather(std::uint32_t mask)
    {
        n = 0;
        while (mask != 0) {
            lanes[n++] = static_cast<std::uint8_t>(std::countr_zero(mask));
            mask &= mask - 1;
        }
    }
};

/// One lane-varying ALU/Cmp instruction, resolved by the interpreter.
struct AluLaneOp {
    std::uint64_t* regs;   ///< Lane-major register file.
    std::uint32_t numRegs; ///< Lane stride of regs.
    std::size_t dest;      ///< Destination register (already materialized).
    SrcView a, b, c;       ///< Operand views; unused slots are scalar 0.
    std::uint32_t mask;    ///< Active mask (full-width loops test it).
    const ActiveSet* act;  ///< Gathered active lanes (dense loops only).
};

/// Lane loop of opcode \p kOp: ascending lane order, inactive lanes
/// untouched. Full-width (kDense false) tests each of the 32 mask bits;
/// dense walks the gathered slots. `gnu::flatten` inlines evalScalar, so
/// no call and no opcode dispatch remain inside the loop.
template <ir::Opcode kOp, bool kDense>
[[gnu::flatten]] void
aluLanes(const AluLaneOp& op)
{
    // Locals, not reads through `op`: a store into the register file may
    // alias a uint64_t field of it, which would force reloads per lane.
    std::uint64_t* const regs = op.regs;
    const std::size_t stride = op.numRegs;
    const std::size_t dest = op.dest;
    const SrcView a = op.a;
    const SrcView b = op.b;
    const SrcView c = op.c;
    const std::uint32_t mask = op.mask;
    const int limit = kDense ? op.act->n : kWarpSize;
    for (int k = 0; k < limit; ++k) {
        const int lane = kDense ? static_cast<int>(op.act->lanes[k]) : k;
        if (!kDense && !(mask & (1u << lane)))
            continue;
        const std::size_t off = static_cast<std::size_t>(lane) * stride;
        const std::uint64_t av = a.base ? a.base[off] : a.scalar;
        const std::uint64_t bv = b.base ? b.base[off] : b.scalar;
        const std::uint64_t cv = c.base ? c.base[off] : c.scalar;
        regs[off + dest] = ir::evalScalar(kOp, av, bv, cv);
    }
}

using AluLaneFn = void (*)(const AluLaneOp&);

template <bool kDense, std::size_t... kOps>
constexpr std::array<AluLaneFn, sizeof...(kOps)>
makeAluLaneTable(std::index_sequence<kOps...>)
{
    return {&aluLanes<static_cast<ir::Opcode>(kOps), kDense>...};
}

/// Lane loop per opcode, indexed by `ir::Opcode`. Only scalar-evaluable
/// opcodes are dispatched here; the other entries exist so the index is
/// the opcode itself (their loops would write evalScalar's default 0).
template <bool kDense>
inline constexpr auto kAluLanes = makeAluLaneTable<kDense>(
    std::make_index_sequence<ir::kNumOpcodes>{});

} // namespace gevo::sim

#endif // GEVO_SIM_LANE_ALU_H
