#include "ir/instr.h"

#include <cstring>

namespace gevo::ir {

std::string_view
memSpaceName(MemSpace space)
{
    switch (space) {
      case MemSpace::None: return "none";
      case MemSpace::Global: return "global";
      case MemSpace::Shared: return "shared";
      case MemSpace::Local: return "local";
    }
    return "?";
}

std::string_view
memWidthName(MemWidth width)
{
    switch (width) {
      case MemWidth::None: return "none";
      case MemWidth::I8: return "i8";
      case MemWidth::U8: return "u8";
      case MemWidth::I16: return "i16";
      case MemWidth::U16: return "u16";
      case MemWidth::I32: return "i32";
      case MemWidth::U32: return "u32";
      case MemWidth::I64: return "i64";
      case MemWidth::F32: return "f32";
    }
    return "?";
}

std::string_view
atomicOpName(AtomicOp op)
{
    switch (op) {
      case AtomicOp::None: return "none";
      case AtomicOp::AddI32: return "add.i32";
      case AtomicOp::AddF32: return "add.f32";
      case AtomicOp::MaxI32: return "max.i32";
      case AtomicOp::MinI32: return "min.i32";
      case AtomicOp::Exch: return "exch.i32";
      case AtomicOp::Cas: return "cas.i32";
    }
    return "?";
}

Operand
Operand::immF32(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return {Kind::Imm, static_cast<std::int64_t>(bits)};
}

bool
Instr::sameOperation(const Instr& other) const
{
    if (op != other.op || dest != other.dest || nops != other.nops ||
        space != other.space || width != other.width || atom != other.atom)
        return false;
    for (int i = 0; i < nops; ++i) {
        if (!(ops[i] == other.ops[i]))
            return false;
    }
    return true;
}

} // namespace gevo::ir
