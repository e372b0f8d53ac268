// Unit tests for the Rothko hot-path containers (flat_rows.h): sorted-row
// invariants of FlatWeightRows (insert/accumulate/erase with the zero
// tolerance, rows moving within the shared arena) and epoch semantics of
// EpochScratch (O(1) reuse, freshness reporting, touched-key ordering).

#include "qsc/coloring/flat_rows.h"

#include <gtest/gtest.h>

#include <vector>

namespace qsc {
namespace {

TEST(FlatWeightRowsTest, AddInsertsSortedAndAccumulates) {
  FlatWeightRows rows;
  rows.Reset(2);
  rows.Add(0, 5, 1.0);
  rows.Add(0, 2, 2.0);
  rows.Add(0, 9, 3.0);
  rows.Add(0, 5, 0.5);  // accumulate onto existing key

  const FlatWeightRows::Row& row = rows.RowOf(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].key, 2);
  EXPECT_EQ(row[1].key, 5);
  EXPECT_EQ(row[2].key, 9);
  EXPECT_DOUBLE_EQ(row[1].weight, 1.5);
  EXPECT_TRUE(rows.RowOf(1).empty());

  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 9), 3.0);
  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 7), 0.0);
  EXPECT_EQ(rows.FindWeight(0, 7), nullptr);
  ASSERT_NE(rows.FindWeight(0, 2), nullptr);
  EXPECT_DOUBLE_EQ(*rows.FindWeight(0, 2), 2.0);
}

TEST(FlatWeightRowsTest, SubtractErasesOnResidue) {
  FlatWeightRows rows;
  rows.Reset(1);
  rows.Add(0, 3, 1.25);
  rows.Add(0, 4, 2.0);
  rows.Subtract(0, 3, 1.25);  // exact cancel -> erased
  EXPECT_EQ(rows.FindWeight(0, 3), nullptr);
  ASSERT_EQ(rows.RowOf(0).size(), 1u);
  EXPECT_EQ(rows.RowOf(0)[0].key, 4);

  rows.Subtract(0, 4, 0.5);
  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 4), 1.5);
}

TEST(FlatWeightRowsTest, SubtractFromAbsentEntryMaterializesNegation) {
  // Entries can legitimately vanish when +w/-w arc weights cancel within
  // the zero tolerance; a later move of one endpoint subtracts from the
  // implicit 0 and must re-create the entry rather than touch a neighbor.
  FlatWeightRows rows;
  rows.Reset(1);
  rows.Add(0, 2, 1.0);
  rows.Add(0, 1, 1.0);
  rows.Add(0, 1, -1.0);  // cancels -> entry for key 1 dropped
  EXPECT_EQ(rows.FindWeight(0, 1), nullptr);

  rows.Subtract(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 2), 1.0);  // neighbor untouched
  rows.Subtract(0, 3, 1e-13);  // within tolerance: stays absent
  EXPECT_EQ(rows.FindWeight(0, 3), nullptr);
}

TEST(FlatWeightRowsTest, AddWithinToleranceDoesNotCreateEntry) {
  FlatWeightRows rows;
  rows.Reset(1);
  rows.Add(0, 1, 1e-13);  // below kZeroWeightTolerance
  EXPECT_TRUE(rows.RowOf(0).empty());
  // Accumulating onto an existing entry down into the tolerance erases it,
  // matching the map-based AddWeight semantics.
  rows.Add(0, 1, 1.0);
  rows.Add(0, 1, -1.0 + 1e-13);
  EXPECT_TRUE(rows.RowOf(0).empty());
}

TEST(FlatWeightRowsTest, ResetClearsAllRows) {
  FlatWeightRows rows;
  rows.Reset(1);
  rows.Add(0, 1, 1.0);
  rows.Reset(3);
  EXPECT_TRUE(rows.RowOf(0).empty());
  EXPECT_TRUE(rows.RowOf(2).empty());
}

TEST(FlatWeightRowsTest, RowsOutgrowingTheirCapacityMoveIntact) {
  // Rows share one arena; a full row moves to its end without disturbing
  // its neighbors' ranges.
  FlatWeightRows rows;
  rows.Reset(3, [](NodeId v) { return v == 1 ? 2 : 1; });
  rows.Add(1, 4, 1.0);
  rows.Add(1, 2, 2.0);  // row 1 is full
  rows.Add(0, 7, 3.0);  // row 0 is full
  rows.Add(2, 1, 5.0);
  rows.Add(1, 3, 4.0);  // row 1 moves
  rows.Add(0, 5, 6.0);  // row 0 moves

  const std::vector<std::vector<RowEntry>> expected = {
      {{5, 6.0}, {7, 3.0}}, {{2, 2.0}, {3, 4.0}, {4, 1.0}}, {{1, 5.0}}};
  for (NodeId v = 0; v < 3; ++v) {
    const FlatWeightRows::Row row = rows.RowOf(v);
    ASSERT_EQ(row.size(), expected[v].size()) << "row " << v;
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].key, expected[v][i].key) << "row " << v;
      EXPECT_EQ(row[i].weight, expected[v][i].weight) << "row " << v;
    }
  }
}

TEST(EpochScratchTest, SlotsResetLogicallyAcrossEpochs) {
  EpochScratch<double> scratch;
  scratch.Grow(4);
  scratch.NewEpoch();
  bool fresh = false;
  scratch.Slot(2, &fresh) = 5.0;
  EXPECT_TRUE(fresh);
  scratch.Slot(2, &fresh) += 1.0;
  EXPECT_FALSE(fresh);
  EXPECT_DOUBLE_EQ(scratch.At(2), 6.0);
  EXPECT_TRUE(scratch.Contains(2));
  EXPECT_FALSE(scratch.Contains(3));

  // Next epoch: same physical slot, logically default again.
  scratch.NewEpoch();
  EXPECT_FALSE(scratch.Contains(2));
  EXPECT_DOUBLE_EQ(scratch.Slot(2, &fresh), 0.0);
  EXPECT_TRUE(fresh);
}

TEST(EpochScratchTest, TouchedListsKeysInFirstTouchOrder) {
  EpochScratch<char> scratch;
  scratch.Grow(10);
  scratch.NewEpoch();
  scratch.Touch(7);
  scratch.Touch(1);
  scratch.Touch(7);  // re-touch must not duplicate
  scratch.Touch(4);
  EXPECT_EQ(scratch.touched(), (std::vector<ColorId>{7, 1, 4}));
  scratch.NewEpoch();
  EXPECT_TRUE(scratch.touched().empty());
}

TEST(EpochScratchTest, GrowPreservesCurrentEpochContents) {
  EpochScratch<int> scratch;
  scratch.Grow(2);
  scratch.NewEpoch();
  bool fresh = false;
  scratch.Slot(1, &fresh) = 42;
  scratch.Grow(8);  // mid-epoch growth (a split created new colors)
  EXPECT_TRUE(scratch.Contains(1));
  EXPECT_EQ(scratch.At(1), 42);
  EXPECT_FALSE(scratch.Contains(5));
}

}  // namespace
}  // namespace qsc
