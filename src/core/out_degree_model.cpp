#include "src/core/out_degree_model.h"

#include "src/core/h_function.h"
#include "src/util/status.h"

namespace trilist {

std::vector<int64_t> DegreesByLabel(
    const std::vector<int64_t>& ascending_degrees,
    const Permutation& theta) {
  TRILIST_DCHECK(theta.size() == ascending_degrees.size());
  std::vector<int64_t> by_label(ascending_degrees.size());
  for (size_t pos = 0; pos < ascending_degrees.size(); ++pos) {
    by_label[theta(pos)] = ascending_degrees[pos];
  }
  return by_label;
}

std::vector<double> ExpectedOutDegrees(
    const std::vector<int64_t>& degrees_by_label, const WeightFn& w) {
  const size_t n = degrees_by_label.size();
  double total_weight = 0.0;
  for (int64_t d : degrees_by_label) {
    total_weight += w(static_cast<double>(d));
  }
  std::vector<double> expected(n, 0.0);
  double prefix = 0.0;  // sum_{j<i} w(d_j) in label order
  for (size_t i = 0; i < n; ++i) {
    const auto d = static_cast<double>(degrees_by_label[i]);
    const double denom = total_weight - w(d);
    expected[i] = denom > 0.0 ? d * prefix / denom : 0.0;
    prefix += w(d);
  }
  return expected;
}

std::vector<double> ExpectedSmallerNeighborFractions(
    const std::vector<int64_t>& degrees_by_label, const WeightFn& w) {
  std::vector<double> q = ExpectedOutDegrees(degrees_by_label, w);
  for (size_t i = 0; i < q.size(); ++i) {
    const auto d = static_cast<double>(degrees_by_label[i]);
    q[i] = d > 0.0 ? q[i] / d : 0.0;
  }
  return q;
}

double SequenceConditionalCost(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta,
    Method m, const WeightFn& w) {
  return SequenceConditionalCosts(ascending_degrees, theta, {m}, w)[0];
}

std::vector<double> SequenceConditionalCosts(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta,
    const std::vector<Method>& methods, const WeightFn& w) {
  const std::vector<int64_t> by_label =
      DegreesByLabel(ascending_degrees, theta);
  const std::vector<double> q =
      ExpectedSmallerNeighborFractions(by_label, w);
  const size_t n = by_label.size();
  std::vector<double> costs(methods.size(), 0.0);
  if (n == 0) return costs;
  // EvalH(m, x) is h of m's local class, plus h of its remote class for a
  // scanning edge iterator; resolve the classes once, and evaluate the
  // three class shapes once per node.
  struct Shape {
    CostClass local;
    CostClass remote;
    bool scanning;
  };
  std::vector<Shape> shapes;
  for (const Method m : methods) {
    shapes.push_back({LocalCostClass(m), RemoteCostClass(m),
                      MethodFamily(m) == Family::kScanningEdgeIterator});
  }
  for (size_t i = 0; i < n; ++i) {
    const double g = GFunction(static_cast<double>(by_label[i]));
    const double h[3] = {EvalClassH(CostClass::kT1, q[i]),
                         EvalClassH(CostClass::kT2, q[i]),
                         EvalClassH(CostClass::kT3, q[i])};
    for (size_t k = 0; k < shapes.size(); ++k) {
      double hk = h[static_cast<int>(shapes[k].local)];
      if (shapes[k].scanning) hk += h[static_cast<int>(shapes[k].remote)];
      costs[k] += g * hk;
    }
  }
  for (double& cost : costs) cost /= static_cast<double>(n);
  return costs;
}

}  // namespace trilist
