/// \file
/// Scalar evaluation semantics for pure ALU/Cmp/Cvt opcodes.
///
/// Both the SIMT interpreters and the constant-folding pass call into
/// these inline helpers, so "what the optimizer assumes" and "what the
/// machine does" cannot diverge — a property the differential tests assert.
/// The trace interpreter's lane loops (sim/lane_alu.h) instantiate
/// evalScalar once per opcode with the opcode a compile-time constant, so
/// the switch below folds to one case and no lane pays a dispatch; keep
/// it a header-inline function for that reason.

#ifndef GEVO_IR_EVAL_H
#define GEVO_IR_EVAL_H

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "ir/opcode.h"

namespace gevo::ir {

/// Reinterpret the low 32 bits of a register value as float.
inline float
asF32(std::uint64_t raw)
{
    float f;
    const auto lo = static_cast<std::uint32_t>(raw);
    std::memcpy(&f, &lo, sizeof(f));
    return f;
}

/// Pack a float into a register value (upper bits zero).
inline std::uint64_t
fromF32(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/// Signed 32-bit view of a register value.
inline std::int32_t
asI32(std::uint64_t raw)
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(raw));
}

/// Sign-extend a 32-bit result into a register value.
inline std::uint64_t
fromI32(std::int32_t v)
{
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}

/// Quiet bit of an f32 NaN.
constexpr std::uint32_t kF32QuietBit = 0x00400000u;

/// Register value of an f32 arithmetic result \p r computed from the
/// operands \p first and \p second, with the NaN payload fixed by rule.
///
/// IEEE 754 leaves the payload of a NaN result open, and x86 returns the
/// NaN of whichever operand the compiler placed first, an order it may
/// swap for add and mul — so two inlined copies of evalScalar could
/// disagree. The rule makes every copy agree: the first NaN among
/// (first, second), quieted; the x86 default NaN when an invalid
/// operation (inf - inf, 0 * inf, 0 / 0) made a NaN from non-NaNs.
inline std::uint64_t
f32Result(float r, std::uint64_t first, std::uint64_t second)
{
    if (!std::isnan(r))
        return fromF32(r);
    if (std::isnan(asF32(first)))
        return static_cast<std::uint32_t>(first) | kF32QuietBit;
    if (std::isnan(asF32(second)))
        return static_cast<std::uint32_t>(second) | kF32QuietBit;
    return 0xffc00000u;
}

/// Register value of fmin (\p max false) or fmax of the f32 operands \p a
/// and \p b, spelled out rather than left to the C library: compilers
/// treat fmin/fmax as commutative and may swap the operands, which
/// changes the result for two NaNs and for zeros of opposite sign. The
/// rule is what x86-64 glibc's fminf/fmaxf return for (a, b): a quiet NaN
/// operand yields the other operand, a signaling one (or two NaNs)
/// yields the first NaN quieted, and ordered operands compare with
/// minss/maxss semantics (`a < b ? a : b`, so min(-0, +0) is +0).
inline std::uint64_t
f32MinMax(bool max, std::uint64_t a, std::uint64_t b)
{
    const float x = asF32(a);
    const float y = asF32(b);
    if (!std::isnan(x) && !std::isnan(y))
        return fromF32(max ? (x > y ? x : y) : (x < y ? x : y));
    const auto quietNaN = [](std::uint64_t v) {
        return std::isnan(asF32(v)) &&
               (static_cast<std::uint32_t>(v) & kF32QuietBit) != 0;
    };
    if (!std::isnan(x) && quietNaN(b))
        return fromF32(x);
    if (!std::isnan(y) && quietNaN(a))
        return fromF32(y);
    return f32Result(x + y, a, b);
}

/// True when an opcode is evaluable by evalScalar (pure ALU/Cmp/Cvt).
bool isScalarEvaluable(Opcode op);

/// Evaluate a pure scalar opcode on raw register values.
///
/// Division/remainder by zero produce 0 (GPU-like non-trapping semantics);
/// INT_MIN / -1 produces INT_MIN; float-to-int saturates and maps NaN to 0.
/// A NaN from add.f32 carries b's payload when b is a NaN, and one from
/// sub/mul/div.f32 a's (see f32Result); that order reproduces the
/// results of GCC x86-64 builds, where it was left to the compiler.
inline std::uint64_t
evalScalar(Opcode op, std::uint64_t a, std::uint64_t b = 0,
           std::uint64_t c = 0)
{
    using U = std::uint64_t;
    const auto i32 = [](std::uint64_t x) { return asI32(x); };
    const auto i64 = [](std::uint64_t x) {
        return static_cast<std::int64_t>(x);
    };

    switch (op) {
      // ---- i32 ----
      case Opcode::AddI32:
        return fromI32(static_cast<std::int32_t>(
            static_cast<std::uint32_t>(i32(a)) +
            static_cast<std::uint32_t>(i32(b))));
      case Opcode::SubI32:
        return fromI32(static_cast<std::int32_t>(
            static_cast<std::uint32_t>(i32(a)) -
            static_cast<std::uint32_t>(i32(b))));
      case Opcode::MulI32:
        return fromI32(static_cast<std::int32_t>(
            static_cast<std::uint32_t>(i32(a)) *
            static_cast<std::uint32_t>(i32(b))));
      case Opcode::DivI32: {
        const std::int32_t x = i32(a);
        const std::int32_t y = i32(b);
        if (y == 0)
            return 0;
        if (x == std::numeric_limits<std::int32_t>::min() && y == -1)
            return fromI32(x);
        return fromI32(x / y);
      }
      case Opcode::RemI32: {
        const std::int32_t x = i32(a);
        const std::int32_t y = i32(b);
        if (y == 0)
            return 0;
        if (x == std::numeric_limits<std::int32_t>::min() && y == -1)
            return 0;
        return fromI32(x % y);
      }
      case Opcode::MinI32:
        return fromI32(i32(a) < i32(b) ? i32(a) : i32(b));
      case Opcode::MaxI32:
        return fromI32(i32(a) > i32(b) ? i32(a) : i32(b));

      // ---- i64 ----
      case Opcode::AddI64: return a + b;
      case Opcode::SubI64: return a - b;
      case Opcode::MulI64: return a * b;
      case Opcode::DivI64: {
        const std::int64_t x = i64(a);
        const std::int64_t y = i64(b);
        if (y == 0)
            return 0;
        if (x == std::numeric_limits<std::int64_t>::min() && y == -1)
            return a;
        return static_cast<U>(x / y);
      }
      case Opcode::MinI64:
        return i64(a) < i64(b) ? a : b;
      case Opcode::MaxI64:
        return i64(a) > i64(b) ? a : b;

      // ---- f32 ----
      case Opcode::AddF32: return f32Result(asF32(a) + asF32(b), b, a);
      case Opcode::SubF32: return f32Result(asF32(a) - asF32(b), a, b);
      case Opcode::MulF32: return f32Result(asF32(a) * asF32(b), a, b);
      case Opcode::DivF32: return f32Result(asF32(a) / asF32(b), a, b);
      case Opcode::MinF32: return f32MinMax(false, a, b);
      case Opcode::MaxF32: return f32MinMax(true, a, b);

      // ---- bitwise ----
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: return a << (b & 63);
      case Opcode::ShrL: return a >> (b & 63);
      case Opcode::ShrA:
        return static_cast<U>(i64(a) >> (b & 63));
      case Opcode::NotI1: return a == 0 ? 1 : 0;
      case Opcode::Mov: return a;
      case Opcode::Select: return a != 0 ? b : c;

      // ---- conversions ----
      case Opcode::CvtI32ToF32:
        return fromF32(static_cast<float>(i32(a)));
      case Opcode::CvtF32ToI32: {
        const float f = asF32(a);
        if (std::isnan(f))
            return 0;
        if (f >= 2147483647.0f)
            return fromI32(std::numeric_limits<std::int32_t>::max());
        if (f <= -2147483648.0f)
            return fromI32(std::numeric_limits<std::int32_t>::min());
        return fromI32(static_cast<std::int32_t>(f));
      }
      case Opcode::CvtI32ToI64:
        return fromI32(i32(a));
      case Opcode::CvtI64ToI32:
        return fromI32(static_cast<std::int32_t>(a));

      // ---- comparisons ----
      case Opcode::CmpEqI32: return i32(a) == i32(b) ? 1 : 0;
      case Opcode::CmpNeI32: return i32(a) != i32(b) ? 1 : 0;
      case Opcode::CmpLtI32: return i32(a) < i32(b) ? 1 : 0;
      case Opcode::CmpLeI32: return i32(a) <= i32(b) ? 1 : 0;
      case Opcode::CmpGtI32: return i32(a) > i32(b) ? 1 : 0;
      case Opcode::CmpGeI32: return i32(a) >= i32(b) ? 1 : 0;
      case Opcode::CmpEqI64: return i64(a) == i64(b) ? 1 : 0;
      case Opcode::CmpNeI64: return i64(a) != i64(b) ? 1 : 0;
      case Opcode::CmpLtI64: return i64(a) < i64(b) ? 1 : 0;
      case Opcode::CmpLeI64: return i64(a) <= i64(b) ? 1 : 0;
      case Opcode::CmpGtI64: return i64(a) > i64(b) ? 1 : 0;
      case Opcode::CmpGeI64: return i64(a) >= i64(b) ? 1 : 0;
      case Opcode::CmpEqF32: return asF32(a) == asF32(b) ? 1 : 0;
      case Opcode::CmpNeF32: return asF32(a) != asF32(b) ? 1 : 0;
      case Opcode::CmpLtF32: return asF32(a) < asF32(b) ? 1 : 0;
      case Opcode::CmpLeF32: return asF32(a) <= asF32(b) ? 1 : 0;
      case Opcode::CmpGtF32: return asF32(a) > asF32(b) ? 1 : 0;
      case Opcode::CmpGeF32: return asF32(a) >= asF32(b) ? 1 : 0;

      default:
        return 0;
    }
}

} // namespace gevo::ir

#endif // GEVO_IR_EVAL_H
