// trilist_perfbench: runs one benchmark workload and prints its metrics.
//
//   trilist_perfbench --workload dense_tlg|sparse_auto|paged_budget|serve_churn
//                     --seed N --seconds S --trace 0|1 --workdir DIR
//                     [--trace-file F.json] [--scale full|tiny]
//                     [--wrong-reference]
//   trilist_perfbench --calibrate --seconds S --workdir DIR
//
// The last stdout line is the result object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. The line before it carries the
// provenance and every measured metric with its sample count.
// perfbench/run.py builds this binary and is the normal entry point.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"job_s.p50", "s"},
    {"job_s.p90", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Declared kPerLayer[] = {
    {"graph.load_s", "s"},
    {"graph.load_mb_per_s", "MB/s"},
    {"plan.s", "s"},
    {"plan.candidates", "count"},
    {"plan.wall_regret", "ratio"},
    {"order.s", "s"},
    {"orient.s", "s"},
    {"list.arcs_s", "s"},
    {"list.T1.s", "s"},
    {"list.E1.s", "s"},
    {"list.T1.ops", "ops"},
    {"list.E1.ops", "ops"},
    {"list.T1.ns_per_op", "ns"},
    {"list.E1.ns_per_op", "ns"},
    {"list.T1.speedup_4t", "x"},
    {"list.E1.speedup_4t", "x"},
    {"list.merge_s", "s"},
    {"list.buffered_triangles", "count"},
    {"list.buffered_mb", "MB"},
    {"ooc.convert_s", "s"},
    {"ooc.convert_mb_per_s", "MB/s"},
    {"ooc.parse_s", "s"},
    {"ooc.merge_s", "s"},
    {"ooc.write_s", "s"},
    {"ooc.orient_s", "s"},
    {"ooc.spill_runs", "count"},
    {"ooc.spill_bytes", "bytes"},
    {"paged.E1.s", "s"},
    {"paged.E1.ns_per_op", "ns"},
    {"paged.partitions", "count"},
    {"paged.passes", "count"},
    {"paged.bytes_streamed", "bytes"},
    {"serve.query_s.p50", "s"},
    {"serve.query_s.p99", "s"},
    {"serve.mutate_s.p50", "s"},
    {"serve.mutate_s.p90", "s"},
    {"serve.lateness_s.p99", "s"},
    {"serve.queue_wait_s.p50", "s"},
    {"serve.queue_wait_s.p99", "s"},
    {"serve.exec_s.p50", "s"},
    {"serve.overhead_s.p50", "s"},
    {"serve.orient_miss_ratio", "ratio"},
    {"dyn.apply_us_per_edge", "us"},
    {"dyn.materialize_s", "s"},
    {"dyn.compact_s", "s"},
    {"dyn.compactions", "count"},
    {"dyn.noop_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::cerr << "trilist_perfbench: " << why << "\n"
            << "usage: trilist_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-file F] "
               "[--scale full|tiny] [--wrong-reference]\n";
  std::exit(2);
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// The result line: the declared metrics of this mode, in declared
/// order. A declared metric the workload's path never reaches reads 0.
template <size_t N>
std::string ResultLine(const Outcome& out, const Declared (&declared)[N],
                       bool zero_fill) {
  std::string metrics;
  for (const Declared& d : declared) {
    const auto it = out.metrics.find(d.name);
    if (it == out.metrics.end() && !zero_fill) {
      std::cerr << "trilist_perfbench: metric " << d.name
                << " was not measured\n";
      std::exit(2);
    }
    if (it != out.metrics.end() && it->second.unit != d.unit) {
      std::cerr << "trilist_perfbench: metric " << d.name << " has unit "
                << it->second.unit << ", declared " << d.unit << "\n";
      std::exit(2);
    }
    const double value = it == out.metrics.end() ? 0 : it->second.value;
    metrics += std::string(metrics.empty() ? "" : ", ") + JsonString(d.name) +
               ": {\"value\": " + Number(value) +
               ", \"unit\": " + JsonString(d.unit) + "}";
  }
  return std::string("{\"correct\": ") +
         (out.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.attempted) +
         ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

/// The detail line: provenance plus every measured metric with its
/// sample count.
std::string DetailLine(const Options& options, const Outcome& out) {
  std::string line = "{\"detail\": {\"workload\": " +
                     JsonString(options.workload) +
                     ", \"seed\": " + std::to_string(options.seed) +
                     ", \"trace\": " + (options.trace ? "1" : "0") +
                     ", \"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : out.provenance) {
    line += std::string(first ? "" : ", ") + JsonString(key) + ": " + value;
    first = false;
  }
  line += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : out.metrics) {
    line += std::string(first ? "" : ", ") + JsonString(name) +
            ": {\"value\": " + Number(m.value) +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  return line + "}}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string trace_file;
  bool have_workload = false;
  bool calibrate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-reference") {
      options.wrong_reference = true;
      continue;
    }
    if (flag == "--calibrate") {
      calibrate = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") Usage("bad --scale");
      options.tiny = value == "tiny";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (calibrate) {
    std::printf("{\"serve_capacity_qps\": %.3f}\n",
                CalibrateServeCapacity(options));
    return 0;
  }
  if (!have_workload) Usage("--workload is required");
  if (options.seconds <= 0) Usage("--seconds must be positive");

  using Runner = Outcome (*)(const Options&, Tracer*);
  const std::pair<const char*, Runner> workloads[] = {
      {"dense_tlg", RunDenseTlg},
      {"sparse_auto", RunSparseAuto},
      {"paged_budget", RunPagedBudget},
      {"serve_churn", RunServeChurn},
  };
  Runner run = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (options.workload == name) run = fn;
  }
  if (run == nullptr) Usage(("unknown workload " + options.workload).c_str());

  Tracer tracer(options.trace);
  const Outcome out = run(options, &tracer);
  if (options.trace && !trace_file.empty() &&
      !tracer.WriteChromeJson(trace_file)) {
    std::cerr << "trilist_perfbench: cannot write " << trace_file << "\n";
    return 2;
  }
  for (const auto& [name, m] : out.metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %-6s (n=%zu)\n", name.c_str(),
                 m.value, m.unit.c_str(), m.samples);
  }
  std::printf("%s\n", DetailLine(options, out).c_str());
  const std::string result = options.trace
                                 ? ResultLine(out, kPerLayer, true)
                                 : ResultLine(out, kEndToEnd, false);
  std::printf("%s\n", result.c_str());
  return 0;
}
