// serve_churn: an in-process trilistd under an open loop of E1 queries
// and 64-edge mutation batches over a Unix socket. Latency is timed from
// each request's due time; the same mutation stream is replayed on a
// local DynGraph afterwards, both to check the final served count
// against a from-scratch recount and (traced) to time the dyn layer.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "perfbench/src/workloads.h"
#include "src/dyn/dyn_graph.h"
#include "src/graph/binfmt.h"
#include "src/run/runner.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using trilist::NodeId;
using trilist::dyn::EdgeMutation;
using trilist::serve::ServeClient;

const trilist::OrientSpec kThetaD{trilist::PermutationKind::kDescending, 0};
constexpr int kWorkers = 2;
constexpr int kQueryConnections = 2;
constexpr size_t kBatchEdges = 64;
/// Offered E1 query rate over both connections: about half the closed-
/// loop capacity measured with --calibrate on the reference host
/// (perfbench/README.md).
constexpr double kQueryRate = 22.0;
/// Mutation batches per query. Each batch makes the next query rebuild
/// the orientation, so about this share of queries take the slow path;
/// at 0.2 job_s.p90 sits inside the rebuild mode rather than on the
/// edge between the two modes, where it would jump between them.
constexpr double kMutationShare = 0.2;
/// Catalog compaction policy (CatalogOptions defaults), replayed locally.
constexpr double kCompactFraction = 0.25;
constexpr size_t kCompactMinArcs = 4096;

/// Degree-proportional random edges, inserted one batch at a time and
/// deleted by the next batch, so m and the overlay stay stationary.
class MutationStream {
 public:
  MutationStream(const trilist::Graph& base, uint64_t seed)
      : base_(base), rng_(seed ^ 0x5EEDC0DEull) {
    cumulative_.reserve(base.num_nodes() + 1);
    cumulative_.push_back(0);
    for (size_t v = 0; v < base.num_nodes(); ++v) {
      cumulative_.push_back(cumulative_.back() +
                            static_cast<uint64_t>(base.Degree(NodeId(v))));
    }
  }

  std::vector<EdgeMutation> Next() {
    std::vector<EdgeMutation> batch;
    if (!pending_.empty()) {
      for (EdgeMutation e : pending_) {
        e.insert = false;
        batch.push_back(e);
      }
      pending_.clear();
    } else {
      std::set<std::pair<NodeId, NodeId>> fresh;
      while (fresh.size() < kBatchEdges) {
        NodeId u = Endpoint();
        NodeId v = Endpoint();
        if (u == v || base_.HasEdge(u, v)) continue;
        if (u > v) std::swap(u, v);
        if (fresh.insert({u, v}).second) pending_.push_back({u, v, true});
      }
      batch = pending_;
    }
    sent_.push_back(batch);
    return batch;
  }

  /// Every batch handed out so far, in order.
  const std::vector<std::vector<EdgeMutation>>& sent() const {
    return sent_;
  }

 private:
  NodeId Endpoint() {
    const uint64_t arc = rng_.Next() % cumulative_.back();
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), arc);
    return static_cast<NodeId>(it - cumulative_.begin() - 1);
  }

  const trilist::Graph& base_;
  trilist::Rng rng_;
  std::vector<uint64_t> cumulative_;
  std::vector<EdgeMutation> pending_;
  std::vector<std::vector<EdgeMutation>> sent_;
};

/// One request as the client saw it.
struct Record {
  double due = 0;
  double sent = 0;
  double replied = 0;
  bool ok = false;
  uint64_t triangles = 0;  ///< query answer or maintained count.
  // Queries only: the server's own ledger.
  double queue_wait_s = 0;
  double stage_s = 0;
  bool orientation_cached = false;
};

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

/// Open-loop sender: request k is due at start + offset + k * period;
/// stops at `end`. One outstanding request per connection, so a slow
/// reply makes later requests late, and due-time latency counts it.
template <typename Send>
std::vector<Record> OpenLoop(double start, double offset, double period,
                             double end, Send&& send) {
  std::vector<Record> records;
  for (int64_t k = 0;; ++k) {
    Record r;
    r.due = start + offset + static_cast<double>(k) * period;
    if (r.due >= end) break;
    SleepUntil(r.due);
    r.sent = Now();
    send(&r);
    r.replied = Now();
    records.push_back(r);
  }
  return records;
}

trilist::serve::QueryRequest E1Query() {
  trilist::serve::QueryRequest q;
  q.graph = "g";
  q.orient = kThetaD;
  q.methods = {trilist::Method::kE1};
  q.threads = 1;
  return q;
}

void QueryInto(ServeClient* client, Record* r) {
  trilist::Result<trilist::serve::QueryResponse> resp =
      client->Query(E1Query());
  if (!resp.ok() || resp->methods.empty()) return;
  r->ok = true;
  r->triangles = resp->methods.front().triangles;
  r->queue_wait_s = resp->queue_wait_s;
  for (const trilist::serve::StageWall& s : resp->stages) {
    r->stage_s += s.wall_s;
  }
  r->orientation_cached = resp->orientation_cached;
}

void MutateInto(ServeClient* client, const std::vector<EdgeMutation>& ops,
                Record* r) {
  trilist::Result<trilist::serve::MutateReply> reply =
      client->Mutate(trilist::serve::MutateRequest{"g", ops});
  if (!reply.ok()) return;
  r->ok = true;
  r->triangles = reply->triangles;
}

/// The running server plus its three client connections.
struct Served {
  std::unique_ptr<trilist::serve::TriangleServer> server;
  std::vector<ServeClient> queries;
  std::unique_ptr<ServeClient> mutator;

  /// Closes the connections, then drains and joins the server.
  void Stop() {
    queries.clear();
    mutator.reset();
    server.reset();
  }
};

void Die(const trilist::Status& status, const char* what) {
  std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
  std::exit(2);
}

ServeClient Connect(const std::string& socket) {
  trilist::Result<ServeClient> c = ServeClient::ConnectUnix(socket);
  if (!c.ok()) Die(c.status(), "connect");
  return std::move(c).ValueOrDie();
}

Family ServeFamily(const Options& options) {
  return Family{options.tiny ? 2000u : 30000u, 1.5,
                trilist::TruncationKind::kRoot};
}

/// Writes `base` as a .tlg with theta_D embedded, starts trilistd on it
/// and opens the three connections.
void StartServed(const trilist::Graph& base, const Options& options,
                 Served* served) {
  const std::string path = options.workdir + "/serve.tlg";
  const std::string socket = options.workdir + "/trilistd.sock";
  trilist::TlgWriteOptions write;
  write.orientations = {kThetaD};
  const trilist::Status st = trilist::WriteTlgFile(base, path, write);
  if (!st.ok()) Die(st, "write .tlg");
  trilist::serve::ServerOptions so;
  so.unix_path = socket;
  so.workers = kWorkers;
  so.named_graphs = {{"g", path}};
  so.compact_overlay_fraction = kCompactFraction;
  so.compact_min_arcs = kCompactMinArcs;
  trilist::Result<std::unique_ptr<trilist::serve::TriangleServer>> server =
      trilist::serve::TriangleServer::Start(so);
  if (!server.ok()) Die(server.status(), "start trilistd");
  served->server = std::move(server).ValueOrDie();
  for (int c = 0; c < kQueryConnections; ++c) {
    served->queries.push_back(Connect(socket));
  }
  served->mutator = std::make_unique<ServeClient>(Connect(socket));
}

}  // namespace

Outcome RunServeChurn(const Options& options, Tracer* tracer) {
  Outcome out;
  AddHostProvenance(&out);
  trilist::Graph base;
  uint64_t reference = 0;
  std::unique_ptr<MutationStream> stream;
  Served served;
  std::vector<Record> setup_mutations;

  // Set-up: graph, .tlg with theta_D embedded, server start, catalog
  // load + one warm query, and the first mutation batch (which pays
  // DynGraph::FromBase's full count inside the server).
  out.Add("setup_s", RepeatedSetup([&] {
            served.Stop();
            base = MakeGraph(ServeFamily(options), options.seed);
            reference = ReferenceCount(base);
            StartServed(base, options, &served);
            Record warm;
            QueryInto(&served.queries.front(), &warm);
            ++out.attempted;
            if (!warm.ok || warm.triangles != reference) {
              out.Fail("warm query returned " +
                       std::to_string(warm.triangles));
            }
            stream = std::make_unique<MutationStream>(base, options.seed);
            Record first;
            MutateInto(served.mutator.get(), stream->Next(), &first);
            setup_mutations = {first};
          }),
          "s", kSetupReps);
  out.provenance["graph"] = Fingerprint(base, reference);
  out.provenance["workers"] = std::to_string(kWorkers);
  out.provenance["query_rate_per_s"] = std::to_string(kQueryRate);
  if (options.wrong_reference) ++reference;

  // Timed phase: two query connections and one mutation connection,
  // each an open loop on its own thread.
  const double query_period = kQueryConnections / kQueryRate;
  const double mutate_period = 1.0 / (kQueryRate * kMutationShare);
  ResetPeakRss();
  const double start = Now() + 0.01;
  const double end = start + options.seconds;
  std::vector<std::vector<Record>> query_records(kQueryConnections);
  std::vector<Record> mutation_records;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kQueryConnections; ++c) {
      threads.emplace_back([&, c] {
        query_records[c] = OpenLoop(
            start, c * query_period / kQueryConnections, query_period, end,
            [&](Record* r) { QueryInto(&served.queries[c], r); });
      });
    }
    threads.emplace_back([&] {
      mutation_records = OpenLoop(
          start, mutate_period / 2, mutate_period, end, [&](Record* r) {
            MutateInto(served.mutator.get(), stream->Next(), r);
          });
    });
    for (std::thread& t : threads) t.join();
  }
  const double peak_mb = PeakRssMb();

  // Replay the sent stream on a local DynGraph (timed per batch for the
  // dyn layer). Its count deltas, anchored on the reference count, give
  // the expected count of every published epoch.
  Record final_query;
  QueryInto(&served.queries.front(), &final_query);
  std::vector<double> apply_s, materialize_s, compact_s;
  uint64_t edges = 0;
  uint64_t policy_compactions = 0;
  trilist::dyn::DynGraph replay = trilist::dyn::DynGraph::FromBase(base);
  const uint64_t replay_base = replay.triangles();
  std::vector<uint64_t> expected;  // after each sent batch
  for (const std::vector<EdgeMutation>& batch : stream->sent()) {
    double t0 = Now();
    if (!replay.Apply(batch).ok()) out.Fail("replay batch rejected");
    apply_s.push_back(Now() - t0);
    edges += batch.size();
    expected.push_back(reference + replay.triangles() - replay_base);
    t0 = Now();
    const trilist::Graph snapshot = replay.MaterializeGraph();
    materialize_s.push_back(Now() - t0);
    if (replay.ShouldCompact(kCompactFraction, kCompactMinArcs)) {
      t0 = Now();
      replay.Compact();
      compact_s.push_back(Now() - t0);
      ++policy_compactions;
    }
  }
  const double t0 = Now();
  replay.Compact();
  compact_s.push_back(Now() - t0);

  // Answer checks, one failure per operation at most. Each mutation
  // reply must carry its epoch's expected count; each query must return
  // the expected count of some published epoch.
  std::vector<Record> mutations = setup_mutations;
  mutations.insert(mutations.end(), mutation_records.begin(),
                   mutation_records.end());
  std::set<uint64_t> epoch_counts{reference};
  for (size_t k = 0; k < mutations.size(); ++k) {
    epoch_counts.insert(expected[k]);
    if (!mutations[k].ok || mutations[k].triangles != expected[k]) {
      out.Fail("mutation batch " + std::to_string(k) + " replied " +
               std::to_string(mutations[k].triangles) + ", expected " +
               std::to_string(expected[k]));
    }
  }
  std::vector<Record> queries;
  for (const std::vector<Record>& list : query_records) {
    queries.insert(queries.end(), list.begin(), list.end());
  }
  for (const Record& r : queries) {
    if (!r.ok || epoch_counts.count(r.triangles) == 0) {
      out.Fail("query returned " + std::to_string(r.triangles) +
               ", the count of no published epoch");
    }
  }
  // After the drain, the served count must equal a from-scratch recount
  // of base + every sent mutation.
  const trilist::Result<uint64_t> recount =
      trilist::CountTrianglesWithMethod(replay.base(), trilist::Method::kE1,
                                        kThetaD, 1);
  if (!final_query.ok || !recount.ok() ||
      final_query.triangles != *recount || expected.back() != *recount) {
    out.Fail("final served count " + std::to_string(final_query.triangles) +
             " != recount " + std::to_string(recount.ok() ? *recount : 0));
  }
  out.attempted +=
      static_cast<int64_t>(mutations.size() + queries.size() + 1);
  served.Stop();

  std::vector<double> latency, mutate_latency, lateness;
  for (const Record& r : queries) {
    latency.push_back(r.replied - r.due);
    lateness.push_back(r.sent - r.due);
  }
  for (const Record& r : mutation_records) {
    mutate_latency.push_back(r.replied - r.due);
    lateness.push_back(r.sent - r.due);
  }
  if (!tracer->enabled()) {
    out.AddPercentiles("job_s", latency, 90, "s");
    out.Add("peak_rss_mb", peak_mb, "MB");
    out.AddPercentiles("serve.query_s", latency, 99, "s");
    out.AddPercentiles("serve.mutate_s", mutate_latency, 90, "s");
    return out;
  }

  // Traced run: spans from the client records (request, its lateness,
  // and the server-reported queue wait and stage walls), then the
  // serve and dyn per-layer metrics.
  int64_t id = 0;
  std::vector<double> queue_wait, exec, overhead;
  size_t uncached = 0;
  for (const Record& r : queries) {
    const int span = tracer->Add("query", r.due, r.replied, id);
    tracer->Add("client.late", r.due, r.sent, id, span);
    tracer->Add("serve.queue_wait", r.sent, r.sent + r.queue_wait_s, id,
                span);
    tracer->Add("serve.exec", r.sent + r.queue_wait_s,
                r.sent + r.queue_wait_s + r.stage_s, id, span);
    queue_wait.push_back(r.queue_wait_s);
    exec.push_back(r.stage_s);
    overhead.push_back(r.replied - r.sent - r.queue_wait_s - r.stage_s);
    if (!r.orientation_cached) ++uncached;
    ++id;
  }
  for (const Record& r : mutation_records) {
    const int span = tracer->Add("mutate", r.due, r.replied, id++);
    tracer->Add("client.late", r.due, r.sent, id - 1, span);
  }
  out.AddPercentiles("serve.query_s", latency, 99, "s");
  out.AddPercentiles("serve.mutate_s", mutate_latency, 90, "s");
  out.Add("serve.lateness_s.p99", Quantile(lateness, 0.99), "s",
          lateness.size());
  out.AddPercentiles("serve.queue_wait_s", queue_wait, 99, "s");
  out.Add("serve.exec_s.p50", Quantile(exec, 0.5), "s", exec.size());
  out.Add("serve.overhead_s.p50", Quantile(overhead, 0.5), "s",
          overhead.size());
  out.Add("serve.orient_miss_ratio",
          queries.empty() ? 0 : double(uncached) / double(queries.size()),
          "ratio", queries.size());
  double apply_total = 0;
  for (double s : apply_s) apply_total += s;
  out.Add("dyn.apply_us_per_edge",
          edges > 0 ? apply_total * 1e6 / double(edges) : 0, "us",
          apply_s.size());
  out.Add("dyn.materialize_s", Quantile(materialize_s, 0.5), "s",
          materialize_s.size());
  out.Add("dyn.compact_s", Quantile(compact_s, 0.5), "s", compact_s.size());
  out.Add("dyn.compactions", double(policy_compactions), "count");
  out.Add("dyn.noop_ratio",
          edges > 0 ? double(replay.stats().noops) / double(edges) : 0,
          "ratio");
  return out;
}

double CalibrateServeCapacity(const Options& options) {
  const trilist::Graph base = MakeGraph(ServeFamily(options), 1);
  Served served;
  StartServed(base, options, &served);
  Record warm;
  QueryInto(&served.queries.front(), &warm);
  std::vector<int64_t> done(kQueryConnections, 0);
  const double end = Now() + options.seconds;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kQueryConnections; ++c) {
      threads.emplace_back([&, c] {
        while (Now() < end) {
          Record r;
          QueryInto(&served.queries[c], &r);
          ++done[c];
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  served.Stop();
  int64_t total = 0;
  for (int64_t d : done) total += d;
  return static_cast<double>(total) / options.seconds;
}

}  // namespace perfbench
