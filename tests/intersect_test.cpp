#include "src/algo/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "src/algo/simd/intersect_simd.h"
#include "src/util/cpu_features.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

// The kernels as generic callables, so one helper drives each of them.
const auto kMerge = [](std::span<const NodeId> a, std::span<const NodeId> b,
                       auto&& emit) { return IntersectMergeT(a, b, emit); };
const auto kGallop = [](std::span<const NodeId> a, std::span<const NodeId> b,
                        auto&& emit) { return IntersectGallopT(a, b, emit); };
const auto kAuto = [](std::span<const NodeId> a, std::span<const NodeId> b,
                      auto&& emit) { return IntersectAutoT(a, b, emit); };
const auto kSimd = [](std::span<const NodeId> a, std::span<const NodeId> b,
                      auto&& emit) {
  return simd::IntersectSimdT(a, b, emit);
};

/// Number of common elements `kernel` emits.
template <typename Kernel>
int64_t Matches(Kernel kernel, std::span<const NodeId> a,
                std::span<const NodeId> b) {
  int64_t matches = 0;
  kernel(a, b, [&matches](NodeId) { ++matches; });
  return matches;
}

/// Comparisons `kernel` performs, its matches discarded.
template <typename Kernel>
int64_t Comparisons(Kernel kernel, std::span<const NodeId> a,
                    std::span<const NodeId> b) {
  return kernel(a, b, [](NodeId) {});
}

/// Runs `kernel`, appending its matches to *out; returns its comparisons.
template <typename Kernel>
int64_t Collect(Kernel kernel, std::span<const NodeId> a,
                std::span<const NodeId> b, std::vector<NodeId>* out) {
  return kernel(a, b, [out](NodeId v) { out->push_back(v); });
}

int64_t ReferenceIntersectionSize(const std::vector<NodeId>& a,
                                  const std::vector<NodeId>& b) {
  const std::set<NodeId> sa(a.begin(), a.end());
  int64_t count = 0;
  std::set<NodeId> seen;
  for (NodeId x : b) {
    if (sa.count(x) > 0 && seen.insert(x).second) ++count;
  }
  return count;
}

TEST(IntersectTest, SmallHandCases) {
  const std::vector<NodeId> a = {1, 3, 5, 7, 9};
  const std::vector<NodeId> b = {2, 3, 4, 7, 10};
  EXPECT_EQ(Matches(kMerge, a, b), 2);
  EXPECT_EQ(Matches(kGallop, a, b), 2);
  EXPECT_EQ(Matches(kAuto, a, b), 2);
}

TEST(IntersectTest, EmptyAndDisjoint) {
  const std::vector<NodeId> a = {1, 2, 3};
  const std::vector<NodeId> empty;
  EXPECT_EQ(Matches(kMerge, a, empty), 0);
  EXPECT_EQ(Matches(kGallop, empty, a), 0);
  const std::vector<NodeId> b = {10, 20};
  EXPECT_EQ(Matches(kAuto, a, b), 0);
}

TEST(IntersectTest, IdenticalLists) {
  const std::vector<NodeId> a = {2, 4, 6, 8};
  EXPECT_EQ(Matches(kMerge, a, a), 4);
  EXPECT_EQ(Matches(kGallop, a, a), 4);
}

TEST(IntersectTest, EmitsTheActualElements) {
  const std::vector<NodeId> a = {1, 4, 6, 9};
  const std::vector<NodeId> b = {4, 9, 12};
  std::vector<NodeId> out;
  Collect(kMerge, a, b, &out);
  EXPECT_EQ(out, (std::vector<NodeId>{4, 9}));
  out.clear();
  Collect(kGallop, a, b, &out);
  EXPECT_EQ(out, (std::vector<NodeId>{4, 9}));
}

TEST(IntersectTest, RandomizedAgainstReference) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t la = rng.NextBounded(50);
    const size_t lb = rng.NextBounded(800);
    std::set<NodeId> sa;
    std::set<NodeId> sb;
    while (sa.size() < la) {
      sa.insert(static_cast<NodeId>(rng.NextBounded(1000)));
    }
    while (sb.size() < lb) {
      sb.insert(static_cast<NodeId>(rng.NextBounded(1000)));
    }
    const std::vector<NodeId> a(sa.begin(), sa.end());
    const std::vector<NodeId> b(sb.begin(), sb.end());
    const int64_t expected = ReferenceIntersectionSize(a, b);
    ASSERT_EQ(Matches(kMerge, a, b), expected) << trial;
    ASSERT_EQ(Matches(kGallop, a, b), expected) << trial;
    ASSERT_EQ(Matches(kAuto, a, b), expected) << trial;
  }
}

TEST(IntersectTest, GallopCheaperOnExtremeAsymmetry) {
  // |A| = 4 against |B| = 100000: gallop must use far fewer comparisons.
  Rng rng(13);
  std::vector<NodeId> big(100000);
  NodeId cur = 0;
  for (auto& v : big) {
    cur += 1 + static_cast<NodeId>(rng.NextBounded(5));
    v = cur;
  }
  const std::vector<NodeId> small = {big[10], big[5000], big[70000],
                                     big[99999]};
  int64_t merge_cmp = Comparisons(kMerge, small, big);
  int64_t gallop_cmp = Comparisons(kGallop, small, big);
  EXPECT_GT(merge_cmp, 50000);
  EXPECT_LT(gallop_cmp, 300);
}

TEST(IntersectTest, AutoEmptySpansPerformNoComparisons) {
  const std::vector<NodeId> a = {1, 2, 3};
  const std::vector<NodeId> empty;
  std::vector<NodeId> out;
  EXPECT_EQ(Collect(kAuto, empty, empty, &out), 0);
  EXPECT_EQ(Collect(kAuto, a, empty, &out), 0);
  EXPECT_EQ(Collect(kAuto, empty, a, &out), 0);
  EXPECT_TRUE(out.empty());
}

/// Builds a sorted list [0, len) used by the threshold tests below. The
/// probe list {big values} makes merge scan the whole long list, so the
/// merge and gallop comparison counts differ and identify which kernel
/// Auto dispatched to.
std::vector<NodeId> Iota(size_t len) {
  std::vector<NodeId> v(len);
  for (size_t i = 0; i < len; ++i) v[i] = static_cast<NodeId>(i);
  return v;
}

TEST(IntersectTest, AutoDispatchesMergeAtExactly32xRatio) {
  const std::vector<NodeId> small = {1000000, 1000001};
  const std::vector<NodeId> big = Iota(32 * small.size());  // exactly 32x
  const int64_t merge_cmp = Comparisons(kMerge, small, big);
  const int64_t gallop_cmp = Comparisons(kGallop, small, big);
  ASSERT_NE(merge_cmp, gallop_cmp) << "test needs distinguishable kernels";
  EXPECT_EQ(Comparisons(kAuto, small, big), merge_cmp);
  // Argument order must not matter.
  EXPECT_EQ(Comparisons(kAuto, big, small), merge_cmp);
}

TEST(IntersectTest, AutoDispatchesGallopJustAbove32xRatio) {
  const std::vector<NodeId> small = {1000000, 1000001};
  const std::vector<NodeId> big = Iota(32 * small.size() + 1);  // 32.5x
  const int64_t merge_cmp = Comparisons(kMerge, small, big);
  const int64_t gallop_cmp = Comparisons(kGallop, small, big);
  ASSERT_NE(merge_cmp, gallop_cmp) << "test needs distinguishable kernels";
  EXPECT_EQ(Comparisons(kAuto, small, big), gallop_cmp);
  EXPECT_EQ(Comparisons(kAuto, big, small), gallop_cmp);
}

TEST(IntersectTest, GallopMonotoneCursorHandlesDuplicateFreeRuns) {
  // Sequential keys: the monotone cursor must not skip matches.
  std::vector<NodeId> a(100);
  std::vector<NodeId> b(100);
  for (NodeId i = 0; i < 100; ++i) {
    a[i] = i;
    b[i] = i;
  }
  EXPECT_EQ(Matches(kGallop, a, b), 100);
}

// ---------------------------------------------------------------------------
// What a kernel does with its matches must not change what it finds or
// what it costs: counting (the count-only emitters), discarding and
// collecting them give the same comparisons and the same elements.

TEST(IntersectTest, EmitterDoesNotChangeTheOutcome) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::set<NodeId> sa;
    std::set<NodeId> sb;
    while (sa.size() < rng.NextBounded(120)) {
      sa.insert(static_cast<NodeId>(rng.NextBounded(400)));
    }
    while (sb.size() < rng.NextBounded(120)) {
      sb.insert(static_cast<NodeId>(rng.NextBounded(400)));
    }
    const std::vector<NodeId> a(sa.begin(), sa.end());
    const std::vector<NodeId> b(sb.begin(), sb.end());
    std::vector<NodeId> expected;
    const int64_t merge_cmp = Collect(kMerge, a, b, &expected);
    ASSERT_EQ(Comparisons(kMerge, a, b), merge_cmp) << trial;
    ASSERT_EQ(Matches(kMerge, a, b),
              static_cast<int64_t>(expected.size()))
        << trial;
    const auto check = [&](auto kernel) {
      std::vector<NodeId> out;
      const int64_t cmp = Collect(kernel, a, b, &out);
      EXPECT_EQ(Comparisons(kernel, a, b), cmp) << trial;
      EXPECT_EQ(Matches(kernel, a, b), static_cast<int64_t>(out.size()))
          << trial;
      EXPECT_EQ(out, expected) << trial;
    };
    check(kGallop);
    check(kAuto);
    check(kSimd);
  }
}

// ---------------------------------------------------------------------------
// SIMD block merge.

std::vector<NodeId> MergeEmitted(const std::vector<NodeId>& a,
                                 const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  IntersectMergeT(a, b, [&out](NodeId v) { out.push_back(v); });
  return out;
}

std::vector<NodeId> SimdEmitted(const std::vector<NodeId>& a,
                                const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  Collect(kSimd, a, b, &out);
  return out;
}

/// Strictly increasing list of `len` values with the given stride pattern.
std::vector<NodeId> Strided(size_t len, NodeId start, unsigned seed) {
  Rng rng(seed);
  std::vector<NodeId> v(len);
  NodeId cur = start;
  for (auto& x : v) {
    cur += 1 + static_cast<NodeId>(rng.NextBounded(3));
    x = cur;
  }
  return v;
}

TEST(SimdIntersectTest, AdversarialSpans) {
  const std::vector<NodeId> empty;
  const std::vector<NodeId> one = {5};
  const std::vector<NodeId> ident = Strided(100, 0, 3);
  const std::vector<NodeId> disjoint_lo = Iota(40);
  std::vector<NodeId> disjoint_hi(40);
  for (size_t i = 0; i < 40; ++i) {
    disjoint_hi[i] = static_cast<NodeId>(1000 + i);
  }
  // Values straddling 64-aligned label boundaries (the bitmap word size;
  // also exercises unaligned vector loads).
  std::vector<NodeId> word_edges;
  for (NodeId w = 0; w < 40; ++w) {
    word_edges.push_back(w * 64 - (w % 2));
    word_edges.push_back(w * 64 + 1);
  }
  std::sort(word_edges.begin(), word_edges.end());
  word_edges.erase(std::unique(word_edges.begin(), word_edges.end()),
                   word_edges.end());
  // 32x-ratio boundary shapes (Auto's threshold; also block-vs-tail).
  const std::vector<NodeId> small2 = {64, 640};
  const std::vector<NodeId> big64 = Iota(64 * small2.size());

  const std::vector<const std::vector<NodeId>*> cases = {
      &empty, &one,         &ident, &disjoint_lo,
      &disjoint_hi, &word_edges,  &small2, &big64};
  for (const auto* pa : cases) {
    for (const auto* pb : cases) {
      const auto expected = MergeEmitted(*pa, *pb);
      EXPECT_EQ(SimdEmitted(*pa, *pb), expected);
      EXPECT_EQ(Matches(kSimd, *pa, *pb),
                static_cast<int64_t>(expected.size()));
    }
  }
}

TEST(SimdIntersectTest, DuplicatesFallBackToScalarSemantics) {
  // Adjacent duplicates: the block kernels require strict sortedness, so
  // the public kernel must take the scalar path and match Merge exactly —
  // including the comparison count, which only the scalar loop produces
  // for non-strict inputs.
  const std::vector<NodeId> a = {1, 2, 2, 3, 5, 5, 5, 9};
  const std::vector<NodeId> b = {2, 2, 4, 5, 9, 9};
  std::vector<NodeId> merge_out;
  const int64_t merge_cmp =
      IntersectMergeT(a, b, [&merge_out](NodeId v) { merge_out.push_back(v); });
  std::vector<NodeId> simd_out;
  EXPECT_EQ(Collect(kSimd, a, b, &simd_out), merge_cmp);
  EXPECT_EQ(simd_out, merge_out);
}

TEST(SimdIntersectTest, RandomizedDifferentialAllKernels) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    std::set<NodeId> sa;
    std::set<NodeId> sb;
    const size_t la = rng.NextBounded(trial % 3 == 0 ? 40 : 600);
    const size_t lb = rng.NextBounded(600);
    while (sa.size() < la) {
      sa.insert(static_cast<NodeId>(rng.NextBounded(2000)));
    }
    while (sb.size() < lb) {
      sb.insert(static_cast<NodeId>(rng.NextBounded(2000)));
    }
    const std::vector<NodeId> a(sa.begin(), sa.end());
    const std::vector<NodeId> b(sb.begin(), sb.end());
    const auto expected = MergeEmitted(a, b);
    const auto n = static_cast<int64_t>(expected.size());
    ASSERT_EQ(SimdEmitted(a, b), expected) << trial;
    ASSERT_EQ(Matches(kSimd, a, b), n) << trial;
    ASSERT_EQ(Matches(kGallop, a, b), n) << trial;
    ASSERT_EQ(Matches(kAuto, a, b), n) << trial;
    // simd reports the scalar-equivalent comparison count.
    std::vector<NodeId> out;
    const int64_t merge_cmp = Comparisons(kMerge, a, b);
    ASSERT_EQ(Collect(kSimd, a, b, &out), merge_cmp) << trial;
  }
}

TEST(SimdIntersectTest, ScalarMergeComparisonsClosedForm) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::set<NodeId> sa;
    std::set<NodeId> sb;
    while (sa.size() < rng.NextBounded(200)) {
      sa.insert(static_cast<NodeId>(rng.NextBounded(500)));
    }
    while (sb.size() < rng.NextBounded(200)) {
      sb.insert(static_cast<NodeId>(rng.NextBounded(500)));
    }
    const std::vector<NodeId> a(sa.begin(), sa.end());
    const std::vector<NodeId> b(sb.begin(), sb.end());
    int64_t matches = 0;
    const int64_t cmp = IntersectMergeT(a, b, [&matches](NodeId) { ++matches; });
    ASSERT_EQ(simd::ScalarMergeComparisons(a, b,
                                           static_cast<size_t>(matches)),
              cmp)
        << trial;
    ASSERT_EQ(simd::ScalarMergeComparisons(b, a,
                                           static_cast<size_t>(matches)),
              cmp)
        << trial;
  }
}

TEST(SimdIntersectTest, EveryBlockKernelLevelAgrees) {
  // Cross-check all ISA levels the host supports against the scalar
  // block merge; levels above the detected one clamp down (no SIGILL).
  Rng rng(37);
  for (int trial = 0; trial < 60; ++trial) {
    const auto a = Strided(16 + rng.NextBounded(400), 0,
                           1000 + static_cast<unsigned>(trial));
    const auto b = Strided(16 + rng.NextBounded(400), rng.NextBounded(20),
                           2000 + static_cast<unsigned>(trial));
    std::vector<NodeId> ref(std::min(a.size(), b.size()));
    const size_t m0 = simd::BlockMergeIntersectAt(SimdLevel::kScalar, a, b,
                                                  ref.data());
    for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
      std::vector<NodeId> out(ref.size());
      const size_t m = simd::BlockMergeIntersectAt(level, a, b, out.data());
      ASSERT_EQ(m, m0) << trial;
      ASSERT_TRUE(std::equal(ref.begin(), ref.begin() + m0, out.begin()))
          << trial;
    }
  }
}

TEST(SimdIntersectTest, ForcedScalarLevelStillCorrect) {
  SetActiveSimdLevelForTest(SimdLevel::kScalar);
  const auto a = Strided(300, 0, 41);
  const auto b = Strided(300, 5, 43);
  EXPECT_EQ(SimdEmitted(a, b), MergeEmitted(a, b));
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  // Restore runtime dispatch for other tests in this process.
  SetActiveSimdLevelForTest(DetectedSimdLevel());
}

// ---------------------------------------------------------------------------
// IntersectMergeT's two loop shapes against the one branchy loop.

/// The branchy three-way merge loop: the reference state machine. Both
/// of IntersectMergeT's loop shapes must take exactly these steps.
template <typename Emit>
int64_t BranchyMerge(std::span<const NodeId> a, std::span<const NodeId> b,
                     Emit&& emit) {
  int64_t comparisons = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    ++comparisons;
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      emit(a[i]);
      ++i;
      ++j;
    }
  }
  return comparisons;
}

/// Runs both loops on (a, b) and on (b, a), expecting the same
/// comparisons and the same emitted sequence.
void ExpectMergeMatchesBranchy(const std::vector<NodeId>& a,
                               const std::vector<NodeId>& b) {
  for (const bool swapped : {false, true}) {
    const std::span<const NodeId> x = swapped ? b : a;
    const std::span<const NodeId> y = swapped ? a : b;
    std::vector<NodeId> want;
    const int64_t want_cmp =
        BranchyMerge(x, y, [&want](NodeId v) { want.push_back(v); });
    std::vector<NodeId> got;
    const int64_t got_cmp =
        IntersectMergeT(x, y, [&got](NodeId v) { got.push_back(v); });
    ASSERT_EQ(got_cmp, want_cmp) << "|a|=" << x.size() << " |b|=" << y.size();
    ASSERT_EQ(got, want) << "|a|=" << x.size() << " |b|=" << y.size();
  }
}

/// `len` distinct values from [0, universe), sorted (selection sampling;
/// needs len <= universe).
std::vector<NodeId> SortedDistinct(Rng* rng, size_t len, uint64_t universe) {
  std::vector<NodeId> values;
  for (uint64_t v = 0; values.size() < len; ++v) {
    // Keep v with probability (still needed) / (still available).
    if (rng->NextBounded(universe - v) < len - values.size()) {
      values.push_back(static_cast<NodeId>(v));
    }
  }
  return values;
}

/// `len` values from [0, universe), unsorted and possibly repeated.
std::vector<NodeId> RandomValues(Rng* rng, size_t len, uint64_t universe) {
  std::vector<NodeId> values(len);
  for (auto& v : values) v = static_cast<NodeId>(rng->NextBounded(universe));
  return values;
}

TEST(IntersectMergeShapesTest, BranchFreeExactlyWithinFourTimes) {
  using intersect_internal::MergeIsBalanced;
  EXPECT_TRUE(MergeIsBalanced(0, 0));
  EXPECT_FALSE(MergeIsBalanced(0, 1));
  EXPECT_FALSE(MergeIsBalanced(1, 0));
  EXPECT_TRUE(MergeIsBalanced(10, 10));
  EXPECT_TRUE(MergeIsBalanced(39, 10));
  EXPECT_TRUE(MergeIsBalanced(40, 10));
  EXPECT_TRUE(MergeIsBalanced(10, 40));
  EXPECT_FALSE(MergeIsBalanced(41, 10));
  EXPECT_FALSE(MergeIsBalanced(10, 41));
  EXPECT_FALSE(MergeIsBalanced(500, 10));
}

TEST(IntersectMergeShapesTest, SortedSpansAtEveryLengthRatio) {
  // 6 x 1700 pairs, each run in both argument orders. Short spans have
  // 10..60 elements, so 3.9x and 4x land on the branch-free side of the
  // threshold and 4.1x on the branchy side; 0x pairs one empty span.
  Rng rng(43);
  const double kRatios[] = {0.0, 1.0, 3.9, 4.0, 4.1, 50.0};
  for (const double ratio : kRatios) {
    for (int trial = 0; trial < 1700; ++trial) {
      const size_t short_len = 10 + rng.NextBounded(51);
      const auto long_len = static_cast<size_t>(
          std::llround(ratio * static_cast<double>(short_len)));
      // Universes from 1x to 4x the combined length: dense to sparse
      // match rates.
      const uint64_t universe =
          (short_len + long_len) * (1 + rng.NextBounded(4));
      const auto a = SortedDistinct(&rng, short_len, universe);
      const auto b = SortedDistinct(&rng, long_len, universe);
      ASSERT_EQ(intersect_internal::MergeIsBalanced(a.size(), b.size()),
                ratio > 0.0 && ratio <= 4.0);
      ExpectMergeMatchesBranchy(a, b);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "ratio " << ratio << ", trial " << trial;
      }
    }
  }
}

TEST(IntersectMergeShapesTest, DuplicateBearingAndUnsortedSpans) {
  Rng rng(47);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t la = rng.NextBounded(80);
    const size_t lb = trial % 2 == 0 ? la + rng.NextBounded(4 * la + 1)
                                     : rng.NextBounded(600);
    // Small universes force repeats; sorting half of them gives
    // duplicate-bearing sorted spans, the rest stay unsorted.
    const uint64_t universe = 1 + rng.NextBounded(3 * (la + lb) / 2 + 1);
    auto a = RandomValues(&rng, la, universe);
    auto b = RandomValues(&rng, lb, universe);
    if (trial % 4 < 2) {
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
    }
    ExpectMergeMatchesBranchy(a, b);
    if (::testing::Test::HasFatalFailure()) FAIL() << "trial " << trial;
  }
}

TEST(CpuFeaturesTest, ResolveSimdLevelRules) {
  // Force-scalar wins over everything; any non-empty value except "0".
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, "1", nullptr),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, "yes", "avx512"),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, "0", nullptr),
            SimdLevel::kAvx512);
  // TRILIST_SIMD caps the level but can never raise it past detection.
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, nullptr, "avx2"),
            SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, nullptr, "avx512"),
            SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar, nullptr, "avx2"),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, nullptr, "scalar"),
            SimdLevel::kScalar);
  // Unrecognized request: keep the detected level.
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, nullptr, "bogus"),
            SimdLevel::kAvx2);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
}

}  // namespace
}  // namespace trilist
