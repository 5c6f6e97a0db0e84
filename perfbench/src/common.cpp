#include "perfbench/src/common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "src/degree/graphicality.h"
#include "src/degree/pareto.h"
#include "src/run/runner.h"
#include "src/util/build_info.h"
#include "src/util/cpu_features.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"

namespace perfbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

void Outcome::AddPercentiles(const std::string& name,
                             const std::vector<double>& values,
                             int upper_pct, const std::string& unit) {
  Add(name + ".p50", Quantile(values, 0.5), unit, values.size());
  Add(name + ".p" + std::to_string(upper_pct),
      Quantile(values, upper_pct / 100.0), unit, values.size());
}

void Outcome::Fail(const std::string& why) {
  ++failed;
  std::cerr << "perfbench: FAILED: " << why << "\n";
}

int Tracer::Begin(std::string_view name, int64_t job, int parent) {
  if (!enabled_) return -1;
  const double now = Now();
  return Add(name, now, now, job, parent);
}

void Tracer::End(int span) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end = Now();
}

int Tracer::Add(std::string_view name, double start, double end,
                int64_t job, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::string(name), start, end, parent, job});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream file(path);
  file << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%lld,\"ts\":%.3f,"
                  "\"dur\":%.3f",
                  static_cast<long long>(s.job), s.start * 1e6,
                  (s.end - s.start) * 1e6);
    file << (i == 0 ? "" : ",") << "\n{\"name\":" << JsonString(s.name)
         << "," << buf << ",\"args\":{\"id\":" << i
         << ",\"parent\":" << s.parent << ",\"job\":" << s.job << "}}";
  }
  file << "\n]}\n";
  return static_cast<bool>(file);
}

namespace {

/// The kB value of one "Key:   N kB" line of /proc/self/status.
double ProcStatusKb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() { return ProcStatusKb("VmHWM") / 1024.0; }

trilist::Graph MakeGraph(const Family& family, uint64_t seed) {
  trilist::GenerateSpec spec;
  spec.n = family.n;
  spec.alpha = family.alpha;
  spec.truncation = family.truncation;
  const trilist::DiscretePareto base(spec.alpha, spec.ResolvedBeta());
  const trilist::TruncatedDistribution fn(
      base, trilist::TruncationPoint(spec.truncation,
                                     static_cast<int64_t>(spec.n)));
  trilist::Rng rng(Mix(seed, 0));
  // Stratified draw: degree i comes from the i-th 1/n quantile stratum,
  // then the sequence is shuffled, so every node's degree still has the
  // family's law while the sequence as a whole cannot stray far from it.
  std::vector<int64_t> degrees(spec.n);
  for (size_t i = 0; i < spec.n; ++i) {
    degrees[i] = fn.Quantile((static_cast<double>(i) + rng.NextDouble()) /
                             static_cast<double>(spec.n));
  }
  for (size_t i = spec.n; i > 1; --i) {
    std::swap(degrees[i - 1], degrees[rng.Next() % i]);
  }
  trilist::MakeGraphic(&degrees);
  trilist::Result<trilist::Graph> g =
      trilist::RealizeGraph(spec, degrees, &rng);
  if (!g.ok()) {
    std::cerr << "perfbench: graph generation failed: "
              << g.status().ToString() << "\n";
    std::exit(2);
  }
  return std::move(g).ValueOrDie();
}

uint64_t ReferenceCount(const trilist::Graph& g) {
  trilist::Result<uint64_t> count = trilist::CountTrianglesWithMethod(
      g, trilist::Method::kE1,
      trilist::OrientSpec{trilist::PermutationKind::kDescending, 0}, 1);
  if (!count.ok()) {
    std::cerr << "perfbench: reference count failed: "
              << count.status().ToString() << "\n";
    std::exit(2);
  }
  return *count;
}

std::string Fingerprint(const trilist::Graph& g, uint64_t triangles) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    uint64_t d =
        static_cast<uint64_t>(g.Degree(static_cast<trilist::NodeId>(v)));
    for (int b = 0; b < 8; ++b) {
      hash = (hash ^ (d & 0xff)) * 0x100000001b3ull;
      d >>= 8;
    }
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"n\":%zu,\"m\":%zu,\"T\":%llu,\"degree_hash\":\"%016llx\"}",
                g.num_nodes(), g.num_edges(),
                static_cast<unsigned long long>(triangles),
                static_cast<unsigned long long>(hash));
  return buf;
}

void AddHostProvenance(Outcome* out) {
  const trilist::BuildInfo& build = trilist::GetBuildInfo();
  out->provenance["host_cpu"] = JsonString(CpuModel());
  out->provenance["hardware_threads"] =
      std::to_string(trilist::HardwareThreads());
  out->provenance["simd_level"] =
      JsonString(trilist::SimdLevelName(trilist::ActiveSimdLevel()));
  out->provenance["build"] =
      "{\"version\":" + JsonString(build.version) +
      ",\"git_hash\":" + JsonString(build.git_hash) +
      ",\"compiler\":" + JsonString(build.compiler) +
      ",\"build_type\":" + JsonString(build.build_type) +
      ",\"flags\":" + JsonString(build.flags) + "}";
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
