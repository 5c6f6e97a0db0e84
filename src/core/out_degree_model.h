#pragma once

#include <cstdint>
#include <vector>

#include "src/algo/cost.h"
#include "src/core/spread.h"
#include "src/order/permutation.h"

/// \file out_degree_model.h
/// The conditional out-degree model of Section 3.2: given a realized
/// degree sequence D_n and a permutation theta, the expected out-degree of
/// the node holding label i is
///
///   E[X_i(theta) | D_n] ~ d_i(theta) * sum_{j<i} w(d_j(theta))
///                         / (sum_k w(d_k) - w(d_i(theta)))      (Eq. 12)
///
/// and q_i(theta) = E[X_i | D_n] / d_i(theta) (Eq. 13) is the fraction of
/// node i's neighbors holding smaller labels. Proposition 4 then collapses
/// the expected cost of every method into
///
///   E[c_n(M, theta) | D_n] ~ (1/n) sum_i g(d_i(theta)) h(q_i(theta)).
///
/// These are the *sequence-conditional* models: one level below the
/// distribution-level Eq. (50) (which replaces the realized sequence by
/// its generating distribution) and one level above a measured graph.

namespace trilist {

/// Degrees arranged by label: entry i is d_i(theta), i.e. the degree of
/// the node that received label i. Input `ascending_degrees` is the
/// paper's A_n vector (sort the sampled sequence ascending first).
std::vector<int64_t> DegreesByLabel(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta);

/// Eq. (12): expected out-degrees E[X_i | D_n] indexed by label.
/// \param degrees_by_label output of DegreesByLabel.
/// \param w weight function of the neighbor-selection model.
std::vector<double> ExpectedOutDegrees(
    const std::vector<int64_t>& degrees_by_label,
    const WeightFn& w = WeightFn::Identity());

/// Eq. (13): q_i(theta) = E[X_i | D_n] / d_i(theta), indexed by label.
/// Labels with degree zero get q = 0.
std::vector<double> ExpectedSmallerNeighborFractions(
    const std::vector<int64_t>& degrees_by_label,
    const WeightFn& w = WeightFn::Identity());

/// Proposition 4: the sequence-conditional per-node cost
/// (1/n) sum_i g(d_i(theta)) h_M(q_i(theta)).
double SequenceConditionalCost(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta,
    Method m, const WeightFn& w = WeightFn::Identity());

/// SequenceConditionalCost for several methods from one pass: entry k is
/// bit-identical to SequenceConditionalCost(ascending_degrees, theta,
/// methods[k], w). DegreesByLabel and the q vector are built once, and
/// each method sums g(d_i) h(q_i) in index order into its own total.
std::vector<double> SequenceConditionalCosts(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta,
    const std::vector<Method>& methods,
    const WeightFn& w = WeightFn::Identity());

}  // namespace trilist
