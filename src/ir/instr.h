/// \file
/// Operands, memory attributes and the Instr value type.
///
/// The IR is a register machine: a function declares `numRegs` mutable
/// 64-bit virtual registers (the first `numParams` are preloaded with kernel
/// arguments). This deliberately relaxes LLVM's SSA discipline — the paper
/// notes SSA "complicates [mutation operator] implementation considerably";
/// GEVO works around that with repair machinery, we adopt the unconstrained
/// form directly so the same edit taxonomy applies (see DESIGN.md §2).

#ifndef GEVO_IR_INSTR_H
#define GEVO_IR_INSTR_H

#include <cstdint>

#include "ir/opcode.h"

namespace gevo::ir {

/// Address space of a memory access.
enum class MemSpace : std::uint8_t {
    None,
    Global, ///< Device memory, visible to the whole grid.
    Shared, ///< Per-block scratchpad (32 banks x 4B in the timing model).
    Local,  ///< Per-thread scratch array.
};

/// Access width / extension rule of a load or store.
enum class MemWidth : std::uint8_t {
    None,
    I8,  ///< 1 byte, sign-extended on load.
    U8,  ///< 1 byte, zero-extended on load.
    I16, ///< 2 bytes, sign-extended.
    U16, ///< 2 bytes, zero-extended.
    I32, ///< 4 bytes, sign-extended.
    U32, ///< 4 bytes, zero-extended.
    I64, ///< 8 bytes.
    F32, ///< 4 bytes, float bit pattern (zero-extended raw).
};

/// Read-modify-write operation of an AtomicRMW (all on 32-bit cells).
enum class AtomicOp : std::uint8_t {
    None,
    AddI32,
    AddF32,
    MaxI32,
    MinI32,
    Exch,
    Cas, ///< ops = [addr, compare, new]; dest = old value.
};

/// Byte size of \p width accesses (inline: the interpreter calls it per
/// lane on every memory access).
inline std::uint32_t
memWidthBytes(MemWidth width)
{
    switch (width) {
      case MemWidth::None: return 0;
      case MemWidth::I8:
      case MemWidth::U8: return 1;
      case MemWidth::I16:
      case MemWidth::U16: return 2;
      case MemWidth::I32:
      case MemWidth::U32:
      case MemWidth::F32: return 4;
      case MemWidth::I64: return 8;
    }
    return 0;
}
/// Textual name of a MemSpace ("global"/"shared"/"local").
std::string_view memSpaceName(MemSpace space);
/// Textual name of a MemWidth ("i32", "f32", ...).
std::string_view memWidthName(MemWidth width);
/// Textual name of an AtomicOp ("add.i32", "cas.i32", ...).
std::string_view atomicOpName(AtomicOp op);

/// One instruction operand: a register, an immediate, or a block label.
struct Operand {
    /// Operand kinds.
    enum class Kind : std::uint8_t {
        None,
        Reg,   ///< value = register index.
        Imm,   ///< value = raw 64-bit immediate bits.
        Label, ///< value = basic-block index within the function.
    };

    Kind kind = Kind::None;
    std::int64_t value = 0;

    /// Register operand.
    static Operand reg(std::int64_t index) { return {Kind::Reg, index}; }
    /// Integer immediate (raw bits; i32 semantics applied by the opcode).
    static Operand imm(std::int64_t bits) { return {Kind::Imm, bits}; }
    /// Float immediate stored as f32 bits in the low word.
    static Operand immF32(float f);
    /// Block-label operand.
    static Operand label(std::int64_t blockIndex)
    {
        return {Kind::Label, blockIndex};
    }

    bool isReg() const { return kind == Kind::Reg; }
    bool isImm() const { return kind == Kind::Imm; }
    bool isLabel() const { return kind == Kind::Label; }

    friend bool
    operator==(const Operand& a, const Operand& b)
    {
        return a.kind == b.kind && a.value == b.value;
    }
};

/// Maximum operand count of any opcode.
constexpr int kMaxOperands = 3;

/// A single IR instruction.
///
/// `uid` is a module-unique, stable identifier assigned at construction.
/// Mutation edits anchor to uids, not positions, so patches compose the way
/// GEVO patches do (dangling references become silent no-ops).
struct Instr {
    Opcode op = Opcode::Nop;
    std::int32_t dest = -1;       ///< Destination register or -1.
    std::uint8_t nops = 0;        ///< Live operand count.
    Operand ops[kMaxOperands];    ///< Operand slots.
    MemSpace space = MemSpace::None;
    MemWidth width = MemWidth::None;
    AtomicOp atom = AtomicOp::None;
    std::uint32_t loc = 0;        ///< Interned source-location id (0 = none).
    std::uint64_t uid = 0;        ///< Stable edit anchor.

    /// True for Br/CondBr/Ret.
    bool isTerminator() const { return ir::isTerminator(op); }

    /// Structural equality ignoring uid/loc (used by edit discovery
    /// matching in the Figure 8 trace).
    bool sameOperation(const Instr& other) const;
};

} // namespace gevo::ir

#endif // GEVO_IR_INSTR_H
