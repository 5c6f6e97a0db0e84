#include "src/algo/triangle_sink.h"

#include <algorithm>

#include "src/util/status.h"

namespace trilist {

void TriangleSink::Add(uint64_t) {
  internal::DCheckFail("Add() on a sink that observes triangles", __FILE__,
                       __LINE__);
}

std::vector<Triangle> CollectingSink::Sorted() const {
  std::vector<Triangle> sorted = triangles_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace trilist
