#include "src/cost/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/algo/cost.h"
#include "src/core/h_function.h"
#include "src/core/out_degree_model.h"
#include "src/order/named_orders.h"
#include "src/order/registry.h"
#include "src/order/split.h"
#include "src/run/planner.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

std::vector<int64_t> SkewedDegrees(size_t n) {
  std::vector<int64_t> degrees;
  degrees.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    degrees.push_back(1 + static_cast<int64_t>(i * i) / 64);
  }
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

TEST(CostModelTest, OpsMatchSequenceConditionalCost) {
  const std::vector<int64_t> degrees = SkewedDegrees(128);
  const size_t n = degrees.size();
  const cost::CostModel model(degrees);
  for (const Method m : FundamentalMethods()) {
    for (const PermutationKind kind :
         {PermutationKind::kAscending, PermutationKind::kDescending,
          PermutationKind::kRoundRobin,
          PermutationKind::kComplementaryRoundRobin}) {
      Rng rng(0);
      const Permutation theta = MakePermutation(kind, n, &rng);
      EXPECT_DOUBLE_EQ(
          model.PredictedOps({kind, 0}, m),
          static_cast<double>(n) * SequenceConditionalCost(degrees, theta, m))
          << PermutationKindName(kind) << " " << MethodName(m);
    }
    // The split order prices through its tailored positional permutation.
    EXPECT_DOUBLE_EQ(model.PredictedOps({PermutationKind::kSplit, 0}, m),
                     static_cast<double>(n) *
                         SequenceConditionalCost(
                             degrees, TailoredSplitPermutation(degrees), m))
        << MethodName(m);
  }
}

// Sorted inverse-CDF Pareto(alpha) degrees on [1, n - 1].
std::vector<int64_t> ParetoDegrees(size_t n, double alpha, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> degrees;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::floor(std::pow(1.0 - rng.NextDouble(), -1 / alpha));
    degrees.push_back(std::min<int64_t>(static_cast<int64_t>(n) - 1,
                                        static_cast<int64_t>(d)));
  }
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

std::vector<int64_t> StarDegrees(size_t n) {
  std::vector<int64_t> degrees(n, 1);
  degrees.back() = static_cast<int64_t>(n) - 1;
  return degrees;
}

// The Proposition-4 sum for one method, written out independently of the
// one-pass SequenceConditionalCosts the library prices with.
double OnePassReference(const std::vector<int64_t>& ascending,
                        const Permutation& theta, Method m) {
  const std::vector<int64_t> by_label = DegreesByLabel(ascending, theta);
  const std::vector<double> q = ExpectedSmallerNeighborFractions(by_label);
  if (by_label.empty()) return 0.0;
  double cost = 0.0;
  for (size_t i = 0; i < by_label.size(); ++i) {
    cost += GFunction(static_cast<double>(by_label[i])) * EvalH(m, q[i]);
  }
  return cost / static_cast<double>(by_label.size());
}

// The tailored split search priced one method at a time.
size_t PerMethodSplitIndex(const std::vector<int64_t>& ascending) {
  const size_t n = ascending.size();
  if (n == 0) return 0;
  std::vector<size_t> grid{0};
  for (size_t s = 1; s < n; s *= 2) grid.push_back(s);
  grid.push_back(n);
  size_t best_s = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const size_t s : grid) {
    double cost = std::numeric_limits<double>::infinity();
    for (const Method m : FundamentalMethods()) {
      cost = std::min(
          cost, OnePassReference(ascending, SplitPermutation(n, s), m));
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_s = s;
    }
  }
  return best_s;
}

Permutation ReferencePricing(const std::vector<int64_t>& ascending,
                             const OrientSpec& spec) {
  if (spec.kind == PermutationKind::kSplit) {
    return SplitPermutation(ascending.size(), PerMethodSplitIndex(ascending));
  }
  return OrderingRegistry::Instance().Of(spec.kind).PricingPermutation(
      ascending, spec.seed);
}

std::vector<std::vector<int64_t>> PricingSequences() {
  return {ParetoDegrees(3000, 1.3, 1), ParetoDegrees(3000, 2.5, 2),
          StarDegrees(500), SkewedDegrees(128)};
}

TEST(CostModelTest, OnePassPricingIsBitIdenticalPerMethod) {
  for (const std::vector<int64_t>& degrees : PricingSequences()) {
    const double n = static_cast<double>(degrees.size());
    const cost::CostModel model(degrees);
    for (const OrderingProvider* provider : OrderingRegistry::Instance().all()) {
      const OrientSpec spec{provider->kind(), 7};
      const Permutation theta = provider->PricingPermutation(degrees, 7);
      const std::vector<double> row =
          SequenceConditionalCosts(degrees, theta, AllMethods());
      for (size_t k = 0; k < AllMethods().size(); ++k) {
        const Method m = AllMethods()[k];
        EXPECT_EQ(row[k], OnePassReference(degrees, theta, m))
            << provider->key() << " " << MethodName(m);
        EXPECT_EQ(model.PredictedOps(spec, m),
                  SequenceConditionalCost(degrees, theta, m) * n)
            << provider->key() << " " << MethodName(m);
        EXPECT_EQ(model.PredictedOps(spec, m),
                  OnePassReference(degrees, ReferencePricing(degrees, spec),
                                   m) * n)
            << provider->key() << " " << MethodName(m);
      }
    }
  }
}

TEST(CostModelTest, TailoredSplitMatchesPerMethodGridSearch) {
  for (const std::vector<int64_t>& degrees : PricingSequences()) {
    EXPECT_EQ(TailoredSplitIndex(degrees), PerMethodSplitIndex(degrees))
        << degrees.size();
  }
}

TEST(CostModelTest, PlannerCandidatesMatchPerMethodPricing) {
  for (const std::vector<int64_t>& degrees : PricingSequences()) {
    const double n = static_cast<double>(degrees.size());
    const cost::CostModel model(degrees);
    PlannerRequest req;
    req.auto_method = req.auto_order = req.auto_intersect = true;
    const PlanResult plan = ResolvePlan(model, req);

    // The same enumeration priced one (ordering, method) pair at a time.
    std::vector<PlanCandidate> want;
    for (const Method m : FundamentalMethods()) {
      const bool sei = MethodFamily(m) == Family::kScanningEdgeIterator;
      for (const PermutationKind kind : PlannerOrderCandidates()) {
        const OrientSpec spec{kind, 0};
        const double ops =
            OnePassReference(degrees, ReferencePricing(degrees, spec), m) * n;
        for (const IntersectBackend backend :
             sei ? PlannerBackendCandidates()
                 : std::vector<IntersectBackend>{IntersectBackend::kMerge}) {
          want.push_back({{m}, spec, backend, ops,
                          model.WeightedCost(ops, m, backend)});
        }
      }
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const PlanCandidate& a, const PlanCandidate& b) {
                       return a.predicted_cost < b.predicted_cost;
                     });
    ASSERT_EQ(plan.candidates.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const PlanCandidate& got = plan.candidates[i];
      EXPECT_EQ(got.methods, want[i].methods) << i;
      EXPECT_EQ(got.orient.kind, want[i].orient.kind) << i;
      EXPECT_EQ(got.intersect, want[i].intersect) << i;
      EXPECT_EQ(got.predicted_ops, want[i].predicted_ops) << i;
      EXPECT_EQ(got.predicted_cost, want[i].predicted_cost) << i;
    }
  }
}

TEST(CostModelTest, GraphDependentOrdersPriceViaDescendingProxy) {
  const cost::CostModel model(SkewedDegrees(64));
  for (const Method m : FundamentalMethods()) {
    const double d = model.PredictedOps({PermutationKind::kDescending, 0}, m);
    EXPECT_DOUBLE_EQ(model.PredictedOps({PermutationKind::kDegenerate, 0}, m),
                     d);
    EXPECT_DOUBLE_EQ(model.PredictedOps({PermutationKind::kAot, 0}, m), d);
  }
}

TEST(CostModelTest, UniformPricingIsSeedDeterministic) {
  const std::vector<int64_t> degrees = SkewedDegrees(64);
  const cost::CostModel model(degrees);
  const OrientSpec u7{PermutationKind::kUniform, 7};
  const double first = model.PredictedOps(u7, Method::kE1);
  EXPECT_DOUBLE_EQ(model.PredictedOps(u7, Method::kE1), first);
  // The seed is part of the pricing identity.
  Rng rng(7);
  const Permutation theta = UniformPermutation(degrees.size(), &rng);
  EXPECT_DOUBLE_EQ(first,
                   static_cast<double>(degrees.size()) *
                       SequenceConditionalCost(degrees, theta, Method::kE1));
}

TEST(CostModelTest, FamilyWeightsFollowTable3) {
  const cost::CostModel model(SkewedDegrees(32));
  const double w = model.params().vertex_op_weight;
  EXPECT_DOUBLE_EQ(model.FamilyWeight(Method::kT1), w);
  EXPECT_DOUBLE_EQ(model.FamilyWeight(Method::kE1),
                   model.params().scan_op_weight);
  EXPECT_DOUBLE_EQ(model.FamilyWeight(Method::kL1),
                   model.params().lookup_op_weight);
}

TEST(CostModelTest, BackendSpeedupDividesOnlyScanningIterators) {
  cost::CostModelParams params;
  params.simd_speedup = 4.0;  // pin so the test is host-independent
  const cost::CostModel model(SkewedDegrees(64), params);
  const OrientSpec spec{PermutationKind::kDescending, 0};

  EXPECT_DOUBLE_EQ(model.BackendSpeedup(IntersectBackend::kMerge), 1.0);
  EXPECT_DOUBLE_EQ(model.BackendSpeedup(IntersectBackend::kSimd), 4.0);
  EXPECT_DOUBLE_EQ(model.BackendSpeedup(IntersectBackend::kBitmap), 2.0);

  const double sei_merge =
      model.PredictedCost(spec, Method::kE1, IntersectBackend::kMerge);
  EXPECT_DOUBLE_EQ(
      model.PredictedCost(spec, Method::kE1, IntersectBackend::kSimd),
      sei_merge / 4.0);
  EXPECT_DOUBLE_EQ(
      model.PredictedCost(spec, Method::kE1, IntersectBackend::kBitmap),
      sei_merge / 2.0);

  // Vertex and lookup iterators never touch the intersection loop.
  for (const Method m : {Method::kT1, Method::kL1}) {
    EXPECT_DOUBLE_EQ(
        model.PredictedCost(spec, m, IntersectBackend::kSimd),
        model.PredictedCost(spec, m, IntersectBackend::kMerge))
        << MethodName(m);
  }
}

TEST(CostModelTest, TotalCostIsTheSumOverMethods) {
  const cost::CostModel model(SkewedDegrees(64));
  const OrientSpec spec{PermutationKind::kRoundRobin, 0};
  const std::vector<Method> methods = {Method::kT1, Method::kE1, Method::kE4};
  double sum = 0;
  for (const Method m : methods) {
    sum += model.PredictedCost(spec, m, IntersectBackend::kMerge);
  }
  EXPECT_DOUBLE_EQ(
      model.PredictedTotalCost(spec, methods, IntersectBackend::kMerge), sum);
}

TEST(CostModelTest, WeightedCostMatchesPredictionCurrency) {
  // A measured op count weighted through WeightedCost must land in the
  // same currency as PredictedCost: ops * family weight / SEI speedup.
  cost::CostModelParams params;
  params.simd_speedup = 8.0;
  const cost::CostModel model(SkewedDegrees(32), params);
  EXPECT_DOUBLE_EQ(model.WeightedCost(100.0, Method::kT1,
                                      IntersectBackend::kSimd),
                   100.0 * params.vertex_op_weight);
  EXPECT_DOUBLE_EQ(model.WeightedCost(100.0, Method::kE1,
                                      IntersectBackend::kSimd),
                   100.0 / 8.0);
  EXPECT_DOUBLE_EQ(model.WeightedCost(100.0, Method::kL1,
                                      IntersectBackend::kBitmap),
                   100.0 * params.lookup_op_weight);
}

TEST(CostModelTest, DerivedSimdSpeedupIsPositive) {
  // simd_speedup <= 0 derives from the host's dispatch level; whatever
  // the host, the derived divisor is at least the scalar 1.
  const cost::CostModel model(SkewedDegrees(16));
  EXPECT_GE(model.params().simd_speedup, 1.0);
  EXPECT_GE(model.BackendSpeedup(IntersectBackend::kSimd), 1.0);
}

}  // namespace
}  // namespace trilist
