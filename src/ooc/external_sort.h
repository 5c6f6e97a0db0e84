#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

/// \file external_sort.h
/// Chunked external merge sort of fixed-size u64 records — the workhorse
/// of the out-of-core conversion pipeline (src/ooc/convert.h), which
/// packs a directed arc (src, dst) into one u64 as (src << 32) | dst so
/// ascending u64 order IS (src, dst) lexicographic order, i.e. CSR
/// order.
///
/// Records accumulate in a RAM run buffer. `sort_buffer_bytes` pays for
/// the buffer AND its radix scratch, so a run holds sort_buffer_bytes/16
/// records. When the buffer fills, the run is LSD-radix-sorted (11-bit
/// digits, every digit's histogram built in one read, digits that are
/// constant over the run skipped — packed arcs of an n-node graph touch
/// only about 2·log2(n) of the 64 bits), deduplicated and appended to
/// one unlinked spill file in `tmpdir` (crash-safe: the kernel reclaims
/// it when the fd dies). Drain() releases the buffer and scratch, then
/// merges the runs through a loser (tournament) tree over per-run read
/// buffers that share `merge_buffer_bytes` with one output batch. Each
/// read buffer holds at least 512 records, which bounds the fan-in at
/// merge_buffer_bytes/4 KiB − 1 runs; above that, Drain first merges
/// groups of runs back into the spill file (recorded as extra merge
/// passes) until the rest fit. The merged stream is globally sorted and
/// deduplicated — duplicates collapse across runs with a last-emitted
/// check, which is exactly the both-direction edge dedupe when every
/// input edge contributes both of its arcs. An input that never
/// overflows the buffer sorts purely in RAM and spills nothing.

namespace trilist::ooc {

/// Ledger of one sorter's lifetime (complete once Drain returns).
struct SpillStats {
  int64_t records_in = 0;      ///< records pushed (pre-dedupe)
  int64_t runs = 0;            ///< sorted runs spilled from the buffer
  int64_t spilled_bytes = 0;   ///< bytes written to the spill file
  int64_t merge_passes = 0;    ///< k-way merges Drain ran (0 in RAM)
  int64_t merged_records = 0;  ///< records emitted by Drain (deduped)
};

/// \brief External sorter of u64 records with fused dedupe.
class ExternalU64Sorter {
 public:
  /// \param tmpdir directory for the (unlinked) spill file; created
  ///        lazily on first overflow.
  /// \param sort_buffer_bytes RAM for the run buffer plus its radix
  ///        scratch (floor 64 KiB, i.e. 4096-record runs).
  /// \param merge_buffer_bytes total RAM for merge-side read buffers and
  ///        the output batch, split across runs at Drain time (floor
  ///        64 KiB).
  ExternalU64Sorter(std::string tmpdir, size_t sort_buffer_bytes,
                    size_t merge_buffer_bytes);
  ~ExternalU64Sorter();
  ExternalU64Sorter(const ExternalU64Sorter&) = delete;
  ExternalU64Sorter& operator=(const ExternalU64Sorter&) = delete;

  /// Adds one record (spilling the current run if the buffer is full).
  Status Add(uint64_t record) {
    if (size_ < capacity_) [[likely]] {
      run_[size_++] = record;
      return Status::OK();
    }
    return AddSlow(record);
  }

  /// Bulk variant of Add: copies whole spans, spilling at capacity.
  Status AddBatch(std::span<const uint64_t> records);

  /// Sorts/merges everything added so far and emits the ascending,
  /// deduplicated stream in batches through `emit`. Consumes the
  /// sorter; Add after Drain is an error.
  Status Drain(
      const std::function<Status(std::span<const uint64_t>)>& emit);

  const SpillStats& stats() const { return stats_; }

 private:
  Status AddSlow(uint64_t record);
  /// Radix-sorts and dedupes run_[0, size_) in place.
  void SortBuffer();
  Status SpillRun();
  /// Merges runs_[0, group) into one run appended to the spill file.
  Status MergeGroup(size_t group);

  std::string tmpdir_;
  size_t capacity_;            // records per RAM run; 0 once drained
  size_t merge_buffer_bytes_;
  // One allocation of 2 * capacity_ records: the run buffer and its
  // radix scratch, which trade halves whenever a sort ends in scratch.
  std::unique_ptr<uint64_t[]> memory_;
  uint64_t* run_ = nullptr;
  uint64_t* scratch_ = nullptr;
  size_t size_ = 0;  // records in run_
  int spill_fd_ = -1;
  std::vector<std::pair<uint64_t, uint64_t>> runs_;  // (offset, count)
  uint64_t spill_end_ = 0;  // append cursor into the spill file
  bool drained_ = false;
  SpillStats stats_;
};

}  // namespace trilist::ooc
