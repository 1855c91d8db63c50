// Death tests for the contract layer in common/check.h: the PW_CHECK
// family must abort with a diagnostic in every build mode, PW_DCHECK_*
// must abort when enabled (this target compiles with
// PW_DCHECK_ENABLED=1, so the debug contracts are live even in a
// Release build), and the shape contracts built on them — mismatched
// view kernels — must fail fast rather than corrupt results.
#include <gtest/gtest.h>

#include "common/check.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/views.h"

namespace phasorwatch {
namespace {

static_assert(PW_DCHECK_IS_ON,
              "check_contracts_test must compile with PW_DCHECK_ENABLED=1 "
              "so the debug-contract death tests are live");

TEST(PwCheckDeathTest, CheckAbortsWithExpression) {
  EXPECT_DEATH(PW_CHECK(1 + 1 == 3), "PW_CHECK failed");
}

TEST(PwCheckDeathTest, CheckMsgIncludesMessage) {
  EXPECT_DEATH(PW_CHECK_MSG(false, "jacobian shape drifted"),
               "jacobian shape drifted");
}

TEST(PwCheckDeathTest, ComparisonFormsAbort) {
  EXPECT_DEATH(PW_CHECK_EQ(2, 3), "PW_CHECK failed");
  EXPECT_DEATH(PW_CHECK_LT(5, 5), "PW_CHECK failed");
  EXPECT_DEATH(PW_CHECK_GE(1, 2), "PW_CHECK failed");
}

TEST(PwCheckTest, PassingChecksAreSilent) {
  PW_CHECK(true);
  PW_CHECK_EQ(4, 4);
  PW_CHECK_MSG(true, "never printed");
}

TEST(PwDcheckDeathTest, DcheckAbortsWhenEnabled) {
  EXPECT_DEATH(PW_DCHECK(false), "PW_CHECK failed");
  EXPECT_DEATH(PW_DCHECK_MSG(false, "debug contract"), "debug contract");
}

TEST(PwDcheckDeathTest, BoundContractAborts) {
  size_t i = 7;
  size_t n = 4;
  EXPECT_DEATH(PW_DCHECK_BOUND(i, n), "PW_CHECK failed");
}

TEST(PwDcheckDeathTest, SizeContractAborts) {
  linalg::Vector v(3);
  EXPECT_DEATH(PW_DCHECK_SIZE(v, 5), "PW_CHECK failed");
}

TEST(PwDcheckDeathTest, ShapeContractAborts) {
  linalg::Matrix m(2, 3);
  EXPECT_DEATH(PW_DCHECK_SHAPE(m, 3, 2), "PW_CHECK failed");
}

TEST(PwDcheckTest, PassingContractsAreSilent) {
  linalg::Matrix m(2, 3);
  linalg::Vector v(3);
  PW_DCHECK_BOUND(1, 2);
  PW_DCHECK_SIZE(v, 3);
  PW_DCHECK_SHAPE(m, 2, 3);
}

TEST(ViewKernelDeathTest, MultiplyShapeMismatchAborts) {
  linalg::Matrix a(2, 3);
  linalg::Matrix b(4, 2);  // inner dims disagree: 3 != 4
  linalg::Matrix out(2, 2);
  EXPECT_DEATH(
      linalg::MultiplyInto(linalg::ConstMatrixView(a),
                           linalg::ConstMatrixView(b),
                           linalg::MutableMatrixView(out)),
      "PW_CHECK failed");
}

TEST(ViewKernelDeathTest, MultiplyAliasedDestinationAborts) {
  linalg::Matrix a(2, 2);
  EXPECT_DEATH(
      linalg::MultiplyInto(linalg::ConstMatrixView(a),
                           linalg::ConstMatrixView(a),
                           linalg::MutableMatrixView(a)),
      "PW_CHECK failed");
}

TEST(ViewKernelDeathTest, MatVecWrongOutputSizeAborts) {
  linalg::Matrix a(3, 2);
  linalg::Vector x(2);
  linalg::Vector out(2);  // should be 3
  EXPECT_DEATH(linalg::MatVecInto(linalg::ConstMatrixView(a),
                                  linalg::ConstVectorView(x),
                                  linalg::VectorView(out)),
               "PW_CHECK failed");
}

TEST(ViewKernelDeathTest, SelectSubmatrixIndexOutOfRangeAborts) {
  linalg::Matrix a(3, 3);
  linalg::Matrix out(1, 1);
  std::vector<size_t> rows = {5};  // out of range
  std::vector<size_t> cols = {0};
  EXPECT_DEATH(
      linalg::SelectSubmatrixInto(linalg::ConstMatrixView(a), rows, cols,
                                  linalg::MutableMatrixView(out)),
      "PW_CHECK failed");
}

TEST(ViewDeathTest, StrideSmallerThanColsAborts) {
  linalg::Matrix a(2, 4);
  EXPECT_DEATH(linalg::ConstMatrixView(a.data(), 2, 4, /*stride=*/2),
               "PW_CHECK failed");
}

// The CSR pattern-immutability contract (docs/SPARSE.md): value
// refreshes must match the frozen pattern exactly, and slot lookups
// outside the pattern are a caller bug, not a zero.
linalg::CsrMatrix TwoByTwoDiagonal() {
  return linalg::CsrMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
}

TEST(CsrContractDeathTest, UpdateValuesSizeMismatchAborts) {
  linalg::CsrMatrix m = TwoByTwoDiagonal();
  linalg::Vector wrong(3);
  EXPECT_DEATH(m.UpdateValues(wrong), "PW_CHECK failed");
}

TEST(CsrContractDeathTest, EntrySlotOutsidePatternAborts) {
  linalg::CsrMatrix m = TwoByTwoDiagonal();
  EXPECT_DEATH(m.EntrySlot(0, 1), "PW_CHECK failed");  // structural zero
  EXPECT_DEATH(m.EntrySlot(2, 0), "PW_CHECK failed");  // out of range
}

TEST(CsrContractDeathTest, SlotAccessOutOfRangeAborts) {
  linalg::CsrMatrix m = TwoByTwoDiagonal();
  EXPECT_DEATH(m.SetValue(2, 1.0), "PW_CHECK failed");
  EXPECT_DEATH(m.ValueAt(2), "PW_CHECK failed");
}

TEST(CsrContractTest, InPatternOperationsAreSilent) {
  linalg::CsrMatrix m = TwoByTwoDiagonal();
  size_t slot = m.EntrySlot(1, 1);
  m.SetValue(slot, 5.0);
  EXPECT_EQ(m.ValueAt(slot), 5.0);
  linalg::Vector fresh({3.0, 4.0});
  m.UpdateValues(fresh);
  EXPECT_EQ(m.ValueAt(m.EntrySlot(0, 0)), 3.0);
}

}  // namespace
}  // namespace phasorwatch
