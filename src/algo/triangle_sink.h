#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/graph/graph.h"

/// \file triangle_sink.h
/// Consumers of listed triangles. Every listing algorithm emits each
/// triangle exactly once, as (x, y, z) with x < y < z in *label* space
/// (the global order O of Section 2.1); OriginalOf() on the oriented graph
/// converts back to input IDs when needed.

namespace trilist {

/// A triangle in label space, x < y < z.
struct Triangle {
  NodeId x;
  NodeId y;
  NodeId z;

  friend bool operator==(const Triangle&, const Triangle&) = default;
  friend auto operator<=>(const Triangle&, const Triangle&) = default;
};

/// \brief Abstract triangle consumer.
class TriangleSink {
 public:
  virtual ~TriangleSink() = default;
  /// Receives one triangle; precondition x < y < z.
  virtual void Consume(NodeId x, NodeId y, NodeId z) = 0;

  /// True for a sink that keeps nothing but the number of triangles. The
  /// listing engines then emit no triangles at all: they count them and
  /// credit the run's total once through Add(). Sinks that observe the
  /// triangles (or their order) keep the default.
  virtual bool CountsOnly() const { return false; }

  /// Credits `n` triangles at once. Called only on sinks whose
  /// CountsOnly() is true; the default aborts.
  virtual void Add(uint64_t n);
};

/// Counts triangles without storing them.
class CountingSink : public TriangleSink {
 public:
  void Consume(NodeId, NodeId, NodeId) override { ++count_; }
  bool CountsOnly() const override { return true; }
  void Add(uint64_t n) override { count_ += n; }
  /// Number of triangles consumed.
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Stores all triangles (tests and small graphs only).
class CollectingSink : public TriangleSink {
 public:
  void Consume(NodeId x, NodeId y, NodeId z) override {
    triangles_.push_back({x, y, z});
  }
  /// Collected triangles in emission order.
  const std::vector<Triangle>& triangles() const { return triangles_; }
  /// Sorted copy, for set comparison across methods.
  std::vector<Triangle> Sorted() const;

 private:
  std::vector<Triangle> triangles_;
};

/// Adapts a lambda.
class CallbackSink : public TriangleSink {
 public:
  /// \param fn invoked once per triangle.
  explicit CallbackSink(std::function<void(NodeId, NodeId, NodeId)> fn)
      : fn_(std::move(fn)) {}
  void Consume(NodeId x, NodeId y, NodeId z) override { fn_(x, y, z); }

 private:
  std::function<void(NodeId, NodeId, NodeId)> fn_;
};

}  // namespace trilist
