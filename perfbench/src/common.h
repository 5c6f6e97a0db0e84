#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/degree/truncated.h"
#include "src/graph/graph.h"

/// \file common.h
/// Shared pieces of the trilist benchmark binary: run options, the
/// result a workload hands back, sample statistics, the in-memory span
/// recorder, peak-RSS gauges and the seeded input graphs.

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (graphs, sockets, traces).
  std::string workdir = ".";
  /// "full" (the documented sizes) or "tiny" (smoke test sizes).
  bool tiny = false;
  /// Smoke test only: shift the reference count by one so every answer
  /// check must fail.
  bool wrong_reference = false;
};

/// Monotonic seconds since the first call in this process.
double Now();

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);

/// One named measurement with its unit and the number of samples behind
/// it (1 for a single reading).
struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 1;
};

/// What one workload run produced: operation tallies, every metric it
/// measured, and provenance fields (name -> JSON value).
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> provenance;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Adds the p50 and the given upper percentile of `values` as
  /// `<name>.p50` and `<name>.p<pct>`.
  void AddPercentiles(const std::string& name,
                      const std::vector<double>& values, int upper_pct,
                      const std::string& unit);
  /// Counts one failed operation and says why on stderr.
  void Fail(const std::string& why);
};

/// One recorded span: [start, end] in Now() seconds, the span that
/// caused it (-1 for a root) and the job or request it belongs to.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int64_t job = 0;
};

/// In-memory span recorder. Disabled recorders record nothing and cost a
/// branch per call; spans are written out only when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its handle (-1 when disabled).
  int Begin(std::string_view name, int64_t job, int parent = -1);
  /// Closes a span opened by Begin.
  void End(int span);
  /// Records an already-measured interval.
  int Add(std::string_view name, double start, double end, int64_t job,
          int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span called `name`, in recording order.
  std::vector<double> Durations(std::string_view name) const;
  /// Writes the spans as a Chrome/Perfetto trace-event JSON file.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, int64_t job,
             int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, job, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Resets the kernel's peak-RSS mark of this process to its current RSS,
/// so a later PeakRssMb() covers only what happened after the call.
void ResetPeakRss();
/// Peak resident set size (VmHWM) in MB.
double PeakRssMb();

/// A truncated-Pareto graph family of the paper.
struct Family {
  size_t n = 0;
  double alpha = 1.5;
  trilist::TruncationKind truncation = trilist::TruncationKind::kRoot;
};

/// The seeded input graph of `family`: a stratified degree sequence
/// (one draw per 1/n quantile stratum, shuffled; see README.md, "Inputs")
/// made graphic and realized by the residual generator. Same seed, same
/// graph. Exits on failure.
trilist::Graph MakeGraph(const Family& family, uint64_t seed);

/// Exact triangle count by a serial E1 on theta_D (the answer key).
uint64_t ReferenceCount(const trilist::Graph& g);

/// JSON object naming the graph: n, m, T and an FNV-1a hash of the
/// degree sequence in node order.
std::string Fingerprint(const trilist::Graph& g, uint64_t triangles);

/// Provenance fields shared by every workload: host CPU, active SIMD
/// level, build info, thread budget.
void AddHostProvenance(Outcome* out);

/// Set-up repetitions per run; setup_s is their median wall.
inline constexpr int kSetupReps = 5;

/// Runs `setup` kSetupReps times and returns the median wall time; the
/// state of the last repetition is the one the caller keeps.
template <typename Setup>
double RepeatedSetup(Setup&& setup) {
  std::vector<double> walls;
  for (int r = 0; r < kSetupReps; ++r) {
    const double t0 = Now();
    setup();
    walls.push_back(Now() - t0);
  }
  return Quantile(walls, 0.5);
}

/// Escapes `s` as a JSON string literal (with quotes).
std::string JsonString(std::string_view s);

}  // namespace perfbench
