// Unit + property tests for dataspaces and hyperslab selections.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <set>

#include "common/error.h"
#include "h5/dataspace.h"

namespace apio::h5 {
namespace {

/// Collects (offset, count) runs for inspection.
std::vector<std::pair<std::uint64_t, std::uint64_t>> runs_of(
    const Dims& extent, const Selection& sel) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for_each_run(extent, sel, [&](std::uint64_t off, std::uint64_t n) {
    out.emplace_back(off, n);
  });
  return out;
}

/// Expands runs into the full element-offset list.
std::vector<std::uint64_t> elements_of(const Dims& extent, const Selection& sel) {
  std::vector<std::uint64_t> out;
  for_each_run(extent, sel, [&](std::uint64_t off, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(off + i);
  });
  return out;
}

TEST(DimsTest, NumElements) {
  EXPECT_EQ(num_elements({}), 1u);  // scalar space
  EXPECT_EQ(num_elements({5}), 5u);
  EXPECT_EQ(num_elements({3, 4, 5}), 60u);
  EXPECT_EQ(num_elements({3, 0, 5}), 0u);
}

TEST(DimsTest, RowPitches) {
  const auto p = row_pitches({4, 3, 2});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], 6u);
  EXPECT_EQ(p[1], 2u);
  EXPECT_EQ(p[2], 1u);
}

TEST(SelectionTest, AllSelectsEverything) {
  const Selection all = Selection::all();
  EXPECT_TRUE(all.is_all());
  EXPECT_EQ(all.npoints({4, 5}), 20u);
  const auto runs = runs_of({4, 5}, all);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(std::uint64_t{0}, std::uint64_t{20}));
}

TEST(SelectionTest, OffsetsSelection1D) {
  const auto sel = Selection::offsets({3}, {4});
  EXPECT_EQ(sel.npoints({10}), 4u);
  const auto runs = runs_of({10}, sel);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(std::uint64_t{3}, std::uint64_t{4}));
}

TEST(SelectionTest, Offsets2DProducesOneRunPerRow) {
  // 6x8 extent, select rows 1..3, cols 2..5.
  const auto sel = Selection::offsets({1, 2}, {3, 4});
  const auto runs = runs_of({6, 8}, sel);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], std::make_pair(std::uint64_t{1 * 8 + 2}, std::uint64_t{4}));
  EXPECT_EQ(runs[1], std::make_pair(std::uint64_t{2 * 8 + 2}, std::uint64_t{4}));
  EXPECT_EQ(runs[2], std::make_pair(std::uint64_t{3 * 8 + 2}, std::uint64_t{4}));
}

TEST(SelectionTest, FullAdjacentRowsCoalesceIntoOneRun) {
  // Entire adjacent rows are file-contiguous and must merge into a
  // single transfer (otherwise every row pays a backend round-trip).
  const auto sel = Selection::offsets({2, 0}, {2, 8});
  const auto runs = runs_of({6, 8}, sel);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(std::uint64_t{16}, std::uint64_t{16}));
}

TEST(SelectionTest, FullTrailingDimsCoalesceAcrossOuterDim) {
  // [2, 4, 4] block covering dims 1..2 fully: one run of 32 elements.
  const auto sel = Selection::offsets({1, 0, 0}, {2, 4, 4});
  const auto runs = runs_of({8, 4, 4}, sel);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(std::uint64_t{16}, std::uint64_t{32}));
}

TEST(SelectionTest, StridedSelection) {
  Hyperslab slab;
  slab.start = {1};
  slab.stride = {3};
  slab.count = {4};
  const auto sel = Selection::hyperslab(slab);
  EXPECT_EQ(sel.npoints({20}), 4u);
  const auto elems = elements_of({20}, sel);
  EXPECT_EQ(elems, (std::vector<std::uint64_t>{1, 4, 7, 10}));
}

TEST(SelectionTest, StridedBlockSelection) {
  Hyperslab slab;
  slab.start = {0};
  slab.stride = {4};
  slab.count = {3};
  slab.block = {2};
  const auto sel = Selection::hyperslab(slab);
  EXPECT_EQ(sel.npoints({12}), 6u);
  const auto elems = elements_of({12}, sel);
  EXPECT_EQ(elems, (std::vector<std::uint64_t>{0, 1, 4, 5, 8, 9}));
}

TEST(SelectionTest, StrideEqualsBlockCoalesces) {
  // stride == block means contiguous coverage; one run expected.
  Hyperslab slab;
  slab.start = {2};
  slab.stride = {3};
  slab.count = {4};
  slab.block = {3};
  const auto runs = runs_of({20}, Selection::hyperslab(slab));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(std::uint64_t{2}, std::uint64_t{12}));
}

TEST(SelectionTest, Strided2D) {
  Hyperslab slab;
  slab.start = {0, 1};
  slab.stride = {2, 2};
  slab.count = {2, 3};
  const auto sel = Selection::hyperslab(slab);
  const auto elems = elements_of({4, 8}, sel);
  // rows 0 and 2, cols 1, 3, 5.
  EXPECT_EQ(elems, (std::vector<std::uint64_t>{1, 3, 5, 17, 19, 21}));
}

TEST(SelectionTest, EmptyCountSelectsNothing) {
  const auto sel = Selection::offsets({0, 0}, {0, 5});
  EXPECT_EQ(sel.npoints({4, 8}), 0u);
  EXPECT_TRUE(runs_of({4, 8}, sel).empty());
}

TEST(SelectionTest, ScalarSpace) {
  const auto runs = runs_of({}, Selection::all());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].second, 1u);
}

TEST(SelectionValidationTest, RankMismatchThrows) {
  const auto sel = Selection::offsets({0}, {2});
  EXPECT_THROW(sel.validate({4, 4}), InvalidArgumentError);
}

TEST(SelectionValidationTest, OutOfBoundsThrows) {
  EXPECT_THROW(Selection::offsets({3}, {5}).validate({6}), InvalidArgumentError);
  EXPECT_NO_THROW(Selection::offsets({3}, {3}).validate({6}));
}

TEST(SelectionValidationTest, BlockLargerThanStrideThrows) {
  Hyperslab slab;
  slab.start = {0};
  slab.stride = {2};
  slab.count = {3};
  slab.block = {3};
  EXPECT_THROW(Selection::hyperslab(slab).validate({20}), InvalidArgumentError);
}

TEST(SelectionValidationTest, BlockLargerThanStrideOkWithSingleCount) {
  Hyperslab slab;
  slab.start = {0};
  slab.stride = {1};
  slab.count = {1};
  slab.block = {5};
  EXPECT_NO_THROW(Selection::hyperslab(slab).validate({5}));
}

TEST(SelectionValidationTest, ZeroStrideThrows) {
  Hyperslab slab;
  slab.start = {0};
  slab.stride = {0};
  slab.count = {2};
  EXPECT_THROW(Selection::hyperslab(slab).validate({4}), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Overflow regressions: the bounds arithmetic used to be unchecked
// uint64, so start + (count-1)*stride + block could wrap past 2^64 and
// land back inside the extent, passing validation for a selection that
// is wildly out of bounds.

TEST(SelectionValidationTest, StrideOverflowAtWrapBoundaryThrows) {
  // (count-1)*stride = 2 * 2^63 wraps to 0; last element appeared to be
  // start + block - 1 = 50, inside the {100} extent.
  Hyperslab slab;
  slab.start = {50};
  slab.stride = {1ull << 63};
  slab.count = {3};
  EXPECT_THROW(Selection::hyperslab(slab).validate({100}), InvalidArgumentError);
}

TEST(SelectionValidationTest, StartPlusSpanOverflowThrows) {
  // start + span wraps: start near 2^64, modest strided span.
  Hyperslab slab;
  slab.start = {~0ull - 10};
  slab.stride = {8};
  slab.count = {4};
  EXPECT_THROW(Selection::hyperslab(slab).validate({100}), InvalidArgumentError);
}

TEST(SelectionValidationTest, BlockAdditionOverflowThrows) {
  Hyperslab slab;
  slab.start = {1};
  slab.stride = {1};
  slab.count = {1};
  slab.block = {~0ull};
  EXPECT_THROW(Selection::hyperslab(slab).validate({100}), InvalidArgumentError);
}

TEST(HyperslabNpointsTest, ProductOverflowThrows) {
  // 2^32 * 2^32 = 2^64 wraps to 0 in unchecked arithmetic.
  Hyperslab slab;
  slab.start = {0, 0};
  slab.count = {1ull << 32, 1ull << 32};
  EXPECT_THROW(slab.npoints(), InvalidArgumentError);
}

TEST(HyperslabNpointsTest, BlockProductOverflowThrows) {
  Hyperslab slab;
  slab.start = {0};
  slab.count = {1ull << 32};
  slab.block = {1ull << 32};
  EXPECT_THROW(slab.npoints(), InvalidArgumentError);
}

TEST(HyperslabNpointsTest, BlockRankMismatchThrows) {
  // npoints() may legitimately run before validate(); a short block
  // vector used to read block[1] out of bounds here.
  Hyperslab slab;
  slab.start = {0, 0};
  slab.count = {2, 2};
  slab.block = {2};
  EXPECT_THROW(slab.npoints(), InvalidArgumentError);
}

TEST(DimsTest, NumElementsOverflowThrows) {
  EXPECT_THROW(num_elements({1ull << 32, 1ull << 32}), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// for_each_row_run

TEST(RowRunTest, AllSelectionEmitsPerRowRuns) {
  std::vector<std::pair<Dims, std::uint64_t>> rows;
  for_each_row_run({3, 4}, Selection::all(), [&](const Dims& start, std::uint64_t n) {
    rows.emplace_back(start, n);
  });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, (Dims{0, 0}));
  EXPECT_EQ(rows[0].second, 4u);
  EXPECT_EQ(rows[2].first, (Dims{2, 0}));
}

TEST(RowRunTest, ScalarSpaceSingleRun) {
  int calls = 0;
  for_each_row_run({}, Selection::all(), [&](const Dims& start, std::uint64_t n) {
    ++calls;
    EXPECT_TRUE(start.empty());
    EXPECT_EQ(n, 1u);
  });
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Property sweep: for arbitrary regular hyperslabs, the runs emitted by
// for_each_run enumerate exactly the mathematically-selected elements,
// in increasing order, with no overlap.

struct SlabCase {
  Dims extent;
  Hyperslab slab;
  std::string name;
};

// Without this, gtest prints the raw bytes of the struct, whose heap
// pointers make the test names change from build to build.
void PrintTo(const SlabCase& c, std::ostream* os) { *os << c.name; }

class HyperslabPropertyTest : public ::testing::TestWithParam<SlabCase> {};

TEST_P(HyperslabPropertyTest, RunsMatchReferenceEnumeration) {
  const auto& param = GetParam();
  const auto sel = Selection::hyperslab(param.slab);

  // Reference: brute-force coordinate walk.
  std::set<std::uint64_t> expected;
  const auto pitch = row_pitches(param.extent);
  const std::size_t rank = param.extent.size();
  std::vector<std::uint64_t> idx(rank, 0);
  std::function<void(std::size_t, std::uint64_t)> walk = [&](std::size_t d,
                                                             std::uint64_t base) {
    const std::uint64_t stride =
        param.slab.stride.empty() ? 1 : param.slab.stride[d];
    const std::uint64_t block = param.slab.block.empty() ? 1 : param.slab.block[d];
    for (std::uint64_t b = 0; b < param.slab.count[d]; ++b) {
      for (std::uint64_t k = 0; k < block; ++k) {
        const std::uint64_t coord = param.slab.start[d] + b * stride + k;
        if (d + 1 == rank) {
          expected.insert(base + coord * pitch[d]);
        } else {
          walk(d + 1, base + coord * pitch[d]);
        }
      }
    }
  };
  if (rank > 0 && sel.npoints(param.extent) > 0) walk(0, 0);

  // Enumerate through the library and compare.
  const auto actual = elements_of(param.extent, sel);
  EXPECT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual.size(), sel.npoints(param.extent));
  std::uint64_t prev = 0;
  bool first = true;
  for (std::uint64_t e : actual) {
    EXPECT_TRUE(expected.count(e)) << "unexpected element " << e;
    if (!first) EXPECT_GT(e, prev) << "elements must be strictly increasing";
    prev = e;
    first = false;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HyperslabPropertyTest,
    ::testing::Values(
        SlabCase{{16}, {{0}, {}, {16}, {}}, "full1d"},
        SlabCase{{16}, {{5}, {}, {7}, {}}, "offset1d"},
        SlabCase{{16}, {{1}, {2}, {7}, {}}, "strided1d"},
        SlabCase{{16}, {{0}, {4}, {4}, {2}}, "block1d"},
        SlabCase{{4, 8}, {{0, 0}, {}, {4, 8}, {}}, "full2d"},
        SlabCase{{4, 8}, {{1, 2}, {}, {2, 3}, {}}, "inner2d"},
        SlabCase{{4, 8}, {{0, 0}, {2, 3}, {2, 2}, {1, 2}}, "blockstride2d"},
        SlabCase{{3, 4, 5}, {{0, 0, 0}, {}, {3, 4, 5}, {}}, "full3d"},
        SlabCase{{3, 4, 5}, {{1, 1, 1}, {}, {2, 2, 3}, {}}, "inner3d"},
        SlabCase{{3, 4, 5}, {{0, 0, 0}, {2, 2, 2}, {2, 2, 2}, {}}, "strided3d"},
        SlabCase{{6, 6, 6}, {{1, 0, 2}, {2, 3, 3}, {2, 2, 2}, {1, 2, 1}}, "mixed3d"},
        SlabCase{{2, 3, 4, 5}, {{0, 1, 0, 0}, {}, {2, 2, 4, 5}, {}}, "rank4"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace apio::h5
