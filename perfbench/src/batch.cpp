// The three batch workloads: dense_tlg, sparse_auto and paged_budget.
// A job is one exact triangle count from input file to answer. Untraced
// jobs call the entry point a user calls (RunPipeline, or the out-of-core
// convert + count pair); traced jobs make the same public calls one layer
// at a time with a span around each.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <optional>

#include "perfbench/src/workloads.h"
#include "src/algo/cost.h"
#include "src/algo/parallel_engine.h"
#include "src/cost/cost_model.h"
#include "src/degree/degree_stats.h"
#include "src/graph/binfmt.h"
#include "src/graph/edge_set.h"
#include "src/graph/io.h"
#include "src/ooc/convert.h"
#include "src/ooc/paged_count.h"
#include "src/run/planner.h"
#include "src/run/runner.h"

namespace perfbench {
namespace {

using trilist::Method;
using trilist::MethodName;
using trilist::NodeId;
using trilist::OpCounts;
using trilist::OrientedGraph;
using trilist::OrientSpec;

constexpr int kThreads = 4;
/// Jobs run even when --seconds is shorter than one job.
constexpr int64_t kMinJobs = 3;
const OrientSpec kThetaD{trilist::PermutationKind::kDescending, 0};
/// Out-of-core budget of paged_budget (convert and count).
constexpr int64_t kPagedBudget = 8ll << 20;

/// Counting sink that observes emission order: checks x < y < z and
/// stamps the first Consume, which the parallel engine issues only once
/// every chunk has finished (its serial replay of buffered triangles).
class BenchSink : public trilist::TriangleSink {
 public:
  void Consume(NodeId x, NodeId y, NodeId z) override {
    if (count_ == 0) first_consume_ = Now();
    if (!(x < y && y < z)) ++misordered_;
    ++count_;
  }
  uint64_t count() const { return count_; }
  uint64_t misordered() const { return misordered_; }
  double first_consume() const { return first_consume_; }

 private:
  uint64_t count_ = 0;
  uint64_t misordered_ = 0;
  double first_consume_ = 0;
};

void CheckStatus(const trilist::Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
    std::exit(2);
  }
}

void CheckCount(Outcome* out, const char* what, uint64_t got,
                uint64_t want) {
  if (got != want) {
    out->Fail(std::string(what) + ": " + std::to_string(got) +
              " triangles, reference " + std::to_string(want));
  }
}

/// Median of the spans called `span` as per-layer metric `metric`.
void AddSpanMedian(Outcome* out, const Tracer& tracer,
                   const std::string& span, const std::string& metric) {
  const std::vector<double> d = tracer.Durations(span);
  if (!d.empty()) out->Add(metric, Quantile(d, 0.5), "s", d.size());
}

/// Runs `body` as one attempted operation: however many of its checks
/// fail, it counts as one failed operation.
template <typename Body>
void Operation(Outcome* out, Body&& body) {
  const int64_t failed_before = out->failed;
  ++out->attempted;
  body();
  out->failed = std::min(out->failed, failed_before + 1);
}

/// Median load wall of the traced jobs and the file bytes it moved per s.
void AddLoadMetrics(Outcome* out, const Tracer& tracer,
                    const std::string& path) {
  AddSpanMedian(out, tracer, "graph.load", "graph.load_s");
  out->Add("graph.load_mb_per_s",
           std::filesystem::file_size(path) / 1e6 /
               out->metrics["graph.load_s"].value,
           "MB/s");
}

/// The timed phase shared by the batch workloads: jobs back to back
/// until `seconds` have passed. Untraced runs report job_s and the
/// phase's peak RSS; traced runs alternate untraced and traced jobs and
/// report the ratio of their medians as the tracing overhead.
void TimedJobs(const Options& options, Tracer* tracer, Outcome* out,
               const std::function<void(int64_t)>& untraced,
               const std::function<void(int64_t)>& traced) {
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  ResetPeakRss();
  const double deadline = Now() + options.seconds;
  for (int64_t job = 0; job < kMinJobs || Now() < deadline; ++job) {
    const bool trace_job = tracer->enabled() && job % 2 == 1;
    const double t0 = Now();
    Operation(out, [&] { (trace_job ? traced : untraced)(job); });
    (trace_job ? traced_walls : plain_walls).push_back(Now() - t0);
  }
  const double peak_mb = PeakRssMb();
  if (tracer->enabled()) {
    out->Add("trace.overhead_ratio",
             Quantile(traced_walls, 0.5) / Quantile(plain_walls, 0.5),
             "ratio", traced_walls.size());
  } else {
    out->AddPercentiles("job_s", plain_walls, 90, "s");
    out->Add("peak_rss_mb", peak_mb, "MB");
  }
}

/// OrientStages under a span, with its order/orient stage walls recorded
/// as child spans laid end to end.
OrientedGraph TracedOrient(Tracer* tracer, const trilist::Graph& g,
                           const OrientSpec& spec, int64_t job,
                           int parent) {
  trilist::StageClock clock;
  const double t0 = Now();
  OrientedGraph oriented = trilist::OrientStages(g, spec, kThreads, &clock);
  const int span = tracer->Add("order+orient", t0, Now(), job, parent);
  const double order_s = clock.WallOf("order");
  tracer->Add("order", t0, t0 + order_s, job, span);
  tracer->Add("orient", t0 + order_s, t0 + order_s + clock.WallOf("orient"),
              job, span);
  return oriented;
}

/// Per-method kernel ledger of the traced jobs.
struct ListLedger {
  std::map<Method, int64_t> ops;
  uint64_t buffered = 0;  ///< triangles one parallel pass buffers.
};

/// Lists `methods` on `oriented` through the parallel engine, one span
/// per method plus a "merge" child from the first Consume to the return.
/// Checks the count and that measured ops equal the closed-form cost.
void TracedList(Tracer* tracer, Outcome* out, const OrientedGraph& oriented,
                const std::vector<Method>& methods,
                trilist::IntersectBackend backend, uint64_t reference,
                int64_t job, int parent, ListLedger* ledger) {
  std::optional<trilist::DirectedEdgeSet> arcs;
  if (std::any_of(methods.begin(), methods.end(), [](Method m) {
        return trilist::MethodFamily(m) == trilist::Family::kVertexIterator;
      })) {
    ScopedSpan span(tracer, "arcs", job, parent);
    arcs.emplace(oriented);
  }
  const trilist::DirectedEdgeSet no_arcs{OrientedGraph()};
  trilist::ExecPolicy exec;
  exec.threads = kThreads;
  exec.intersect = backend;
  for (Method m : methods) {
    BenchSink sink;
    const double t0 = Now();
    const OpCounts ops = trilist::RunMethodParallel(
        m, oriented, arcs ? *arcs : no_arcs, &sink, exec);
    const double t1 = Now();
    const int span = tracer->Add(std::string("list.") + MethodName(m), t0,
                                 t1, job, parent);
    if (sink.count() > 0) {
      tracer->Add("merge", sink.first_consume(), t1, job, span);
    }
    CheckCount(out, MethodName(m), sink.count(), reference);
    if (sink.misordered() > 0) out->Fail("triangle emitted out of order");
    const int64_t formula =
        std::llround(trilist::MethodCostTotal(oriented, m));
    if (ops.PaperCost() != formula) {
      out->Fail(std::string(MethodName(m)) + " measured ops " +
                std::to_string(ops.PaperCost()) + " != PaperCost " +
                std::to_string(formula));
    }
    ledger->ops[m] = ops.PaperCost();
    if (trilist::SupportsParallel(m)) {
      ledger->buffered = std::max<uint64_t>(ledger->buffered, sink.count());
    }
  }
}

/// Kernel metrics of the traced jobs: wall, exact ops and ns per op for
/// T1 and E1, the arc-set build, the merge/replay and its buffer.
void AddListMetrics(Outcome* out, const Tracer& tracer,
                    const ListLedger& ledger) {
  AddSpanMedian(out, tracer, "arcs", "list.arcs_s");
  for (const auto& [m, ops] : ledger.ops) {
    const std::string name = std::string("list.") + MethodName(m);
    AddSpanMedian(out, tracer, name, name + ".s");
    out->Add(name + ".ops", static_cast<double>(ops), "ops");
    const std::vector<double> walls = tracer.Durations(name);
    out->Add(name + ".ns_per_op",
             Quantile(walls, 0.5) * 1e9 / static_cast<double>(ops), "ns",
             walls.size());
  }
  // One job's merge time: the per-method replays of a job, summed.
  std::map<int64_t, double> merge_by_job;
  for (const Span& s : tracer.spans()) {
    if (s.name == "merge") merge_by_job[s.job] += s.end - s.start;
  }
  std::vector<double> merges;
  for (const auto& [job, wall] : merge_by_job) merges.push_back(wall);
  if (!merges.empty()) {
    out->Add("list.merge_s", Quantile(merges, 0.5), "s", merges.size());
  }
  out->Add("list.buffered_triangles", static_cast<double>(ledger.buffered),
           "count");
  out->Add("list.buffered_mb",
           static_cast<double>(ledger.buffered * sizeof(trilist::Triangle)) /
               1e6,
           "MB");
}

/// Serial vs 4-thread wall of each method on the same orientation.
void AddSpeedups(Outcome* out, const Tracer& tracer,
                 const OrientedGraph& oriented,
                 const std::vector<Method>& methods) {
  for (Method m : methods) {
    if (!trilist::SupportsParallel(m)) continue;
    trilist::CountingSink sink;
    const double t0 = Now();
    trilist::RunMethodParallel(m, oriented, &sink, trilist::ExecPolicy{});
    const double serial = Now() - t0;
    const std::string name = std::string("list.") + MethodName(m);
    out->Add(name + ".speedup_4t",
             serial / Quantile(tracer.Durations(name), 0.5), "x");
  }
}

}  // namespace

Outcome RunDenseTlg(const Options& options, Tracer* tracer) {
  Outcome out;
  AddHostProvenance(&out);
  const Family family{options.tiny ? 3000u : 50000u, 1.2,
                      trilist::TruncationKind::kLinear};
  const std::string path = options.workdir + "/dense.tlg";
  const std::vector<Method> methods{Method::kT1, Method::kE1};
  uint64_t reference = 0;
  out.Add("setup_s", RepeatedSetup([&] {
            const trilist::Graph g = MakeGraph(family, options.seed);
            CheckStatus(trilist::WriteTlgFile(g, path), "write .tlg");
            reference = ReferenceCount(g);
            out.provenance["graph"] = Fingerprint(g, reference);
          }),
          "s", kSetupReps);
  if (options.wrong_reference) ++reference;

  trilist::RunSpec spec;
  spec.source = trilist::GraphSource::FromFile(path);
  spec.orient = kThetaD;
  spec.methods = methods;
  spec.exec.threads = kThreads;
  auto untraced = [&](int64_t) {
    trilist::Result<trilist::RunReport> report = trilist::RunPipeline(spec);
    if (!report.ok()) return out.Fail(report.status().ToString());
    for (const trilist::MethodReport& mr : report->methods) {
      CheckCount(&out, MethodName(mr.method), mr.triangles, reference);
    }
  };
  ListLedger ledger;
  OrientedGraph last_oriented;
  auto traced = [&](int64_t job) {
    ScopedSpan root(tracer, "job", job);
    const double t0 = Now();
    trilist::Result<trilist::TlgFile> tlg = trilist::TlgFile::Open(path);
    if (!tlg.ok()) return out.Fail(tlg.status().ToString());
    tracer->Add("graph.load", t0, Now(), job, root.id());
    last_oriented =
        TracedOrient(tracer, tlg->graph(), kThetaD, job, root.id());
    TracedList(tracer, &out, last_oriented, methods,
               trilist::IntersectBackend::kMerge, reference, job, root.id(),
               &ledger);
  };
  TimedJobs(options, tracer, &out, untraced, traced);
  out.provenance["threads"] = std::to_string(kThreads);
  if (!tracer->enabled()) return out;

  AddLoadMetrics(&out, *tracer, path);
  AddSpanMedian(&out, *tracer, "order", "order.s");
  AddSpanMedian(&out, *tracer, "orient", "orient.s");
  AddListMetrics(&out, *tracer, ledger);
  AddSpeedups(&out, *tracer, last_oriented, methods);
  return out;
}

Outcome RunSparseAuto(const Options& options, Tracer* tracer) {
  Outcome out;
  AddHostProvenance(&out);
  const Family family{options.tiny ? 2000u : 30000u, 1.5,
                      trilist::TruncationKind::kRoot};
  const std::string path = options.workdir + "/sparse.txt";
  uint64_t reference = 0;
  out.Add("setup_s", RepeatedSetup([&] {
            const trilist::Graph g = MakeGraph(family, options.seed);
            CheckStatus(trilist::WriteEdgeListFile(g, path),
                        "write edge list");
            reference = ReferenceCount(g);
            out.provenance["graph"] = Fingerprint(g, reference);
          }),
          "s", kSetupReps);
  if (options.wrong_reference) ++reference;

  trilist::RunSpec spec;
  spec.source = trilist::GraphSource::FromFile(path);
  spec.plan = trilist::PlanFlags{true, true, true};
  spec.exec.threads = kThreads;
  std::string chosen;
  auto untraced = [&](int64_t) {
    trilist::Result<trilist::RunReport> report = trilist::RunPipeline(spec);
    if (!report.ok()) return out.Fail(report.status().ToString());
    for (const trilist::MethodReport& mr : report->methods) {
      CheckCount(&out, MethodName(mr.method), mr.triangles, reference);
    }
    chosen = report->plan.order + "/" + report->plan.intersect;
  };
  ListLedger ledger;
  std::optional<trilist::PlanResult> plan;
  trilist::Graph last_graph;
  auto traced = [&](int64_t job) {
    ScopedSpan root(tracer, "job", job);
    double t0 = Now();
    trilist::Result<trilist::Graph> g = trilist::ReadEdgeListFile(path);
    if (!g.ok()) return out.Fail(g.status().ToString());
    tracer->Add("graph.load", t0, Now(), job, root.id());
    t0 = Now();
    const trilist::cost::CostModel model(trilist::AscendingDegrees(*g));
    trilist::PlannerRequest request;
    request.auto_method = request.auto_order = request.auto_intersect = true;
    plan = trilist::ResolvePlan(model, request);
    tracer->Add("plan", t0, Now(), job, root.id());
    const OrientedGraph oriented =
        TracedOrient(tracer, *g, plan->chosen.orient, job, root.id());
    TracedList(tracer, &out, oriented, plan->chosen.methods,
               plan->chosen.intersect, reference, job, root.id(), &ledger);
    last_graph = *g;
  };
  TimedJobs(options, tracer, &out, untraced, traced);
  out.provenance["threads"] = std::to_string(kThreads);
  out.provenance["plan"] = JsonString(chosen);
  if (!tracer->enabled()) return out;

  AddLoadMetrics(&out, *tracer, path);
  AddSpanMedian(&out, *tracer, "plan", "plan.s");
  out.Add("plan.candidates", static_cast<double>(plan->candidates.size()),
          "count");
  AddSpanMedian(&out, *tracer, "order", "order.s");
  AddSpanMedian(&out, *tracer, "orient", "orient.s");
  AddListMetrics(&out, *tracer, ledger);

  // Planner regret in wall time: list every candidate (best of two) and
  // divide the chosen plan's wall by the fastest candidate's.
  std::map<std::string, OrientedGraph> orientations;
  double chosen_wall = 0;
  double best_wall = 0;
  Operation(&out, [&] {
    for (size_t i = 0; i < plan->candidates.size(); ++i) {
      const trilist::PlanCandidate& c = plan->candidates[i];
      auto [it, fresh] = orientations.try_emplace(c.orient.Key());
      if (fresh) {
        it->second = trilist::OrientStages(last_graph, c.orient, kThreads,
                                           nullptr);
      }
      double wall = 0;
      for (int rep = 0; rep < 2; ++rep) {
        trilist::RunReport report;
        trilist::ExecPolicy exec;
        exec.threads = kThreads;
        exec.intersect = c.intersect;
        const double t0 = Now();
        CheckStatus(trilist::ListOnOriented(it->second, c.methods, exec, 1,
                                            trilist::SinkKind::kCount,
                                            &report),
                    "list candidate");
        const double w = Now() - t0;
        if (rep == 0 || w < wall) wall = w;
        for (const trilist::MethodReport& mr : report.methods) {
          CheckCount(&out, "plan candidate", mr.triangles, reference);
        }
      }
      const trilist::PlanCandidate& chosen = plan->chosen;
      if (c.methods == chosen.methods && c.orient == chosen.orient &&
          c.intersect == chosen.intersect) {
        chosen_wall = wall;
      }
      if (i == 0 || wall < best_wall) best_wall = wall;
    }
  });
  out.Add("plan.wall_regret", chosen_wall / best_wall, "ratio",
          plan->candidates.size());
  return out;
}

Outcome RunPagedBudget(const Options& options, Tracer* tracer) {
  Outcome out;
  AddHostProvenance(&out);
  const Family family{options.tiny ? 5000u : 100000u, 1.5,
                      trilist::TruncationKind::kRoot};
  const std::string text = options.workdir + "/paged.txt";
  const std::string tlg = options.workdir + "/paged.tlg";
  uint64_t reference = 0;
  out.Add("setup_s", RepeatedSetup([&] {
            const trilist::Graph g = MakeGraph(family, options.seed);
            CheckStatus(trilist::WriteEdgeListFile(g, text),
                        "write edge list");
            reference = ReferenceCount(g);
            out.provenance["graph"] = Fingerprint(g, reference);
          }),
          "s", kSetupReps);
  if (options.wrong_reference) ++reference;

  trilist::ooc::OocConvertOptions convert;
  convert.mem_budget_bytes = kPagedBudget;
  convert.tmpdir = options.workdir;
  convert.orientations = {kThetaD};
  trilist::ooc::OocCountOptions count;
  count.mem_budget_bytes = kPagedBudget;
  count.spec = kThetaD;
  trilist::ooc::OocReport last_convert;
  trilist::ooc::OocCountResult last_count;
  // One job: text -> .tlg under the budget, then the paged E1 count.
  auto run_job = [&](int64_t job, bool traced) {
    std::optional<ScopedSpan> root;
    if (traced) root.emplace(tracer, "job", job);
    double t0 = Now();
    trilist::Result<trilist::ooc::OocReport> report =
        trilist::ooc::OocConvertFile(text, tlg, convert);
    if (!report.ok()) return out.Fail(report.status().ToString());
    if (traced) {
      const int span =
          tracer->Add("ooc.convert", t0, Now(), job, root->id());
      const std::pair<const char*, double> stages[] = {
          {"ooc.parse", report->parse_seconds},
          {"ooc.merge", report->merge_seconds},
          {"ooc.write", report->write_seconds},
          {"ooc.orient", report->orient_seconds}};
      for (const auto& [name, wall] : stages) {
        tracer->Add(name, t0, t0 + wall, job, span);
        t0 += wall;
      }
      last_convert = *report;
    }
    t0 = Now();
    trilist::Result<trilist::ooc::OocCountResult> counted =
        trilist::ooc::OocCountTlg(tlg, count);
    if (!counted.ok()) return out.Fail(counted.status().ToString());
    if (traced) {
      tracer->Add("paged.E1", t0, Now(), job, root->id());
      last_count = *counted;
    }
    CheckCount(&out, "paged E1", static_cast<uint64_t>(counted->ops.triangles),
               reference);
  };
  TimedJobs(
      options, tracer, &out, [&](int64_t job) { run_job(job, false); },
      [&](int64_t job) { run_job(job, true); });
  out.provenance["mem_budget_bytes"] = std::to_string(kPagedBudget);
  if (!tracer->enabled()) return out;

  AddSpanMedian(&out, *tracer, "ooc.convert", "ooc.convert_s");
  out.Add("ooc.convert_mb_per_s",
          last_convert.input_bytes / 1e6 /
              out.metrics["ooc.convert_s"].value,
          "MB/s");
  for (const char* stage : {"parse", "merge", "write", "orient"}) {
    AddSpanMedian(&out, *tracer, std::string("ooc.") + stage,
                  std::string("ooc.") + stage + "_s");
  }
  out.Add("ooc.spill_runs", static_cast<double>(last_convert.spill_runs),
          "count");
  out.Add("ooc.spill_bytes", static_cast<double>(last_convert.spill_bytes),
          "bytes");
  AddSpanMedian(&out, *tracer, "paged.E1", "paged.E1.s");
  const int64_t ops = last_count.ops.PaperCost();
  out.Add("paged.E1.ns_per_op",
          out.metrics["paged.E1.s"].value * 1e9 / static_cast<double>(ops),
          "ns");
  out.Add("paged.partitions", static_cast<double>(last_count.partitions),
          "count");
  out.Add("paged.passes", static_cast<double>(last_count.io.passes),
          "count");
  out.Add("paged.bytes_streamed",
          static_cast<double>(last_count.io.bytes_streamed), "bytes");

  // The paged count's ops must equal the in-memory E1's and PaperCost.
  Operation(&out, [&] {
    trilist::Result<trilist::TlgFile> file = trilist::TlgFile::Open(tlg);
    CheckStatus(file.status(), "open converted .tlg");
    const OrientedGraph* oriented = file->FindOrientation(kThetaD);
    if (oriented == nullptr) return out.Fail("converted .tlg lacks theta_D");
    trilist::CountingSink sink;
    const OpCounts in_memory =
        trilist::RunMethodParallel(Method::kE1, *oriented, &sink, {});
    const int64_t formula =
        std::llround(trilist::MethodCostTotal(*oriented, Method::kE1));
    if (in_memory.PaperCost() != ops || ops != formula) {
      out.Fail("paged E1 ops " + std::to_string(ops) + ", in-memory " +
               std::to_string(in_memory.PaperCost()) + ", PaperCost " +
               std::to_string(formula));
    }
    CheckCount(&out, "in-memory E1", sink.count(), reference);
  });
  return out;
}

}  // namespace perfbench
