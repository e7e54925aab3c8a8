#include "ir/eval.h"

#include <gtest/gtest.h>

#include <limits>

namespace gevo::ir {
namespace {

TEST(Eval, I32Wraparound)
{
    const auto maxv = fromI32(std::numeric_limits<std::int32_t>::max());
    const auto r = evalScalar(Opcode::AddI32, maxv, 1);
    EXPECT_EQ(asI32(r), std::numeric_limits<std::int32_t>::min());
}

TEST(Eval, I32SignExtensionOfResults)
{
    const auto r = evalScalar(Opcode::SubI32, 0, 1);
    EXPECT_EQ(static_cast<std::int64_t>(r), -1);
}

TEST(Eval, DivisionByZeroIsZeroNotTrap)
{
    EXPECT_EQ(evalScalar(Opcode::DivI32, 5, 0), 0u);
    EXPECT_EQ(evalScalar(Opcode::RemI32, 5, 0), 0u);
    EXPECT_EQ(evalScalar(Opcode::DivI64, 5, 0), 0u);
}

TEST(Eval, DivisionOverflowGuard)
{
    const auto minv = fromI32(std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(asI32(evalScalar(Opcode::DivI32, minv, fromI32(-1))),
              std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(evalScalar(Opcode::RemI32, minv, fromI32(-1)), 0u);
}

TEST(Eval, MinMaxSigned)
{
    EXPECT_EQ(asI32(evalScalar(Opcode::MinI32, fromI32(-5), fromI32(3))),
              -5);
    EXPECT_EQ(asI32(evalScalar(Opcode::MaxI32, fromI32(-5), fromI32(3))),
              3);
}

TEST(Eval, F32RoundTrip)
{
    const auto a = fromF32(1.5f);
    const auto b = fromF32(2.25f);
    EXPECT_FLOAT_EQ(asF32(evalScalar(Opcode::AddF32, a, b)), 3.75f);
    EXPECT_FLOAT_EQ(asF32(evalScalar(Opcode::MulF32, a, b)), 3.375f);
    EXPECT_FLOAT_EQ(asF32(evalScalar(Opcode::DivF32, a, b)),
                    1.5f / 2.25f);
}

TEST(Eval, F32MinMaxIgnoresNanLikeCuda)
{
    const auto nan = fromF32(std::numeric_limits<float>::quiet_NaN());
    const auto one = fromF32(1.0f);
    // fmin/fmax return the non-NaN operand.
    EXPECT_FLOAT_EQ(asF32(evalScalar(Opcode::MinF32, nan, one)), 1.0f);
    EXPECT_FLOAT_EQ(asF32(evalScalar(Opcode::MaxF32, one, nan)), 1.0f);
}

TEST(Eval, F32NanPayloadAndZeroSignFollowOperandOrder)
{
    // Fixed by rule, not by which operand the compiler placed first, so
    // every inlined copy of evalScalar agrees bit for bit.
    const std::uint64_t qa = 0x7fc00000;  // quiet NaN
    const std::uint64_t qb = 0xffffffff;  // quiet NaN, other payload
    const std::uint64_t sn = 0x7f800001;  // signaling NaN
    EXPECT_EQ(evalScalar(Opcode::AddF32, qa, qb), qb);
    EXPECT_EQ(evalScalar(Opcode::AddF32, sn, qa), qa);
    EXPECT_EQ(evalScalar(Opcode::AddF32, qa, sn), 0x7fc00001u);
    EXPECT_EQ(evalScalar(Opcode::SubF32, qa, qb), qa);
    EXPECT_EQ(evalScalar(Opcode::MulF32, qb, qa), qb);
    EXPECT_EQ(evalScalar(Opcode::DivF32, sn, qb), 0x7fc00001u);
    const auto inf = fromF32(std::numeric_limits<float>::infinity());
    EXPECT_EQ(evalScalar(Opcode::SubF32, inf, inf), 0xffc00000u);

    EXPECT_EQ(evalScalar(Opcode::MinF32, qa, qb), qa);
    EXPECT_EQ(evalScalar(Opcode::MaxF32, qb, qa), qb);
    EXPECT_EQ(evalScalar(Opcode::MinF32, sn, fromF32(1.0f)), 0x7fc00001u);
    const auto pz = fromF32(0.0f);
    const auto nz = fromF32(-0.0f);
    EXPECT_EQ(evalScalar(Opcode::MinF32, nz, pz), pz);
    EXPECT_EQ(evalScalar(Opcode::MinF32, pz, nz), nz);
    EXPECT_EQ(evalScalar(Opcode::MaxF32, nz, pz), pz);
    EXPECT_EQ(evalScalar(Opcode::MaxF32, pz, nz), nz);
}

TEST(Eval, ShiftsMaskAmount)
{
    EXPECT_EQ(evalScalar(Opcode::Shl, 1, 64), 1u);
    EXPECT_EQ(evalScalar(Opcode::Shl, 1, 65), 2u);
    EXPECT_EQ(evalScalar(Opcode::ShrL, 0x8000000000000000ull, 63), 1u);
}

TEST(Eval, ArithmeticShiftKeepsSign)
{
    const auto neg = static_cast<std::uint64_t>(-8);
    EXPECT_EQ(static_cast<std::int64_t>(evalScalar(Opcode::ShrA, neg, 1)),
              -4);
    EXPECT_EQ(evalScalar(Opcode::ShrL, neg, 1), neg >> 1);
}

TEST(Eval, NotI1Truthiness)
{
    EXPECT_EQ(evalScalar(Opcode::NotI1, 0), 1u);
    EXPECT_EQ(evalScalar(Opcode::NotI1, 1), 0u);
    EXPECT_EQ(evalScalar(Opcode::NotI1, 42), 0u);
}

TEST(Eval, SelectUsesTruthiness)
{
    EXPECT_EQ(evalScalar(Opcode::Select, 1, 10, 20), 10u);
    EXPECT_EQ(evalScalar(Opcode::Select, 0, 10, 20), 20u);
    EXPECT_EQ(evalScalar(Opcode::Select, 7, 10, 20), 10u);
}

TEST(Eval, ConversionSemantics)
{
    EXPECT_FLOAT_EQ(asF32(evalScalar(Opcode::CvtI32ToF32, fromI32(-3))),
                    -3.0f);
    EXPECT_EQ(asI32(evalScalar(Opcode::CvtF32ToI32, fromF32(-2.9f))), -2);
    EXPECT_EQ(asI32(evalScalar(Opcode::CvtF32ToI32,
                               fromF32(std::numeric_limits<float>::quiet_NaN()))),
              0);
    EXPECT_EQ(asI32(evalScalar(Opcode::CvtF32ToI32, fromF32(1e30f))),
              std::numeric_limits<std::int32_t>::max());
    // Sign extension through the i32<->i64 conversions.
    EXPECT_EQ(static_cast<std::int64_t>(
                  evalScalar(Opcode::CvtI32ToI64, fromI32(-7))),
              -7);
    EXPECT_EQ(asI32(evalScalar(Opcode::CvtI64ToI32,
                               0x1'0000'0005ull)),
              5);
}

TEST(Eval, ComparisonsProduceZeroOne)
{
    EXPECT_EQ(evalScalar(Opcode::CmpLtI32, fromI32(-1), fromI32(0)), 1u);
    EXPECT_EQ(evalScalar(Opcode::CmpGtI32, fromI32(-1), fromI32(0)), 0u);
    EXPECT_EQ(evalScalar(Opcode::CmpEqI64, 5, 5), 1u);
    EXPECT_EQ(evalScalar(Opcode::CmpLeF32, fromF32(1.0f), fromF32(1.0f)),
              1u);
    EXPECT_EQ(evalScalar(Opcode::CmpNeF32, fromF32(1.0f), fromF32(2.0f)),
              1u);
}

TEST(Eval, I64CompareIsSigned)
{
    const auto neg = static_cast<std::uint64_t>(-1);
    EXPECT_EQ(evalScalar(Opcode::CmpLtI64, neg, 0), 1u);
}

TEST(Eval, ScalarEvaluableClassification)
{
    EXPECT_TRUE(isScalarEvaluable(Opcode::AddI32));
    EXPECT_TRUE(isScalarEvaluable(Opcode::CmpLtF32));
    EXPECT_FALSE(isScalarEvaluable(Opcode::Load));
    EXPECT_FALSE(isScalarEvaluable(Opcode::Barrier));
    EXPECT_FALSE(isScalarEvaluable(Opcode::Br));
    EXPECT_FALSE(isScalarEvaluable(Opcode::Tid));
}

} // namespace
} // namespace gevo::ir
