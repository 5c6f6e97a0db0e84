#pragma once

#include "perfbench/src/common.h"

/// \file workloads.h
/// The four benchmark workloads (see perfbench/README.md for why each
/// exists and which layers it stresses). Each builds its inputs from
/// `options.seed`, measures for `options.seconds` and checks every
/// answer; with `options.trace` it runs traced jobs beside untraced ones
/// and reports per-layer metrics instead of end-to-end ones.

namespace perfbench {

Outcome RunDenseTlg(const Options& options, Tracer* tracer);
Outcome RunSparseAuto(const Options& options, Tracer* tracer);
Outcome RunPagedBudget(const Options& options, Tracer* tracer);
Outcome RunServeChurn(const Options& options, Tracer* tracer);

/// Closed-loop E1 query throughput (queries/s) of serve_churn's server
/// and graph over its two query connections, for `options.seconds`: the
/// measurement behind serve_churn's pinned query rate.
double CalibrateServeCapacity(const Options& options);

}  // namespace perfbench
