#include "src/ooc/external_sort.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "src/ooc/temp_file.h"

namespace trilist::ooc {

namespace {

constexpr size_t kMinBufferBytes = 64 << 10;
/// Smallest read buffer a run gets in a merge; bounds the fan-in.
constexpr size_t kMinSlotRecords = 512;
/// Batch size of an in-RAM drain's emits.
constexpr size_t kEmitBatchRecords = 64 << 10;

/// EINTR-safe full positional write.
Status PwriteFull(int fd, const void* data, size_t len, uint64_t offset) {
  const char* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < len) {
    const ssize_t put = ::pwrite(fd, p + done, len - done,
                                 static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("spill write failed: ") +
                              std::strerror(errno));
    }
    done += static_cast<size_t>(put);
  }
  return Status::OK();
}

/// EINTR-safe full positional read (spill files never shrink).
Status PreadFullStrict(int fd, void* data, size_t len, uint64_t offset) {
  char* p = static_cast<char*>(data);
  size_t done = 0;
  while (done < len) {
    const ssize_t got = ::pread(fd, p + done, len - done,
                                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("spill read failed: ") +
                              std::strerror(errno));
    }
    if (got == 0) return Status::Internal("spill file truncated");
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

/// Ascending LSD radix sort of v[0, n) with 11-bit digits, ping-ponging
/// through `scratch` (n records). All six histograms come from one read,
/// and a digit whose histogram puts every record in one bucket is
/// skipped. Returns whichever of v and scratch holds the result.
uint64_t* RadixSort(uint64_t* v, uint64_t* scratch, size_t n) {
  constexpr int kBits = 11;
  constexpr int kDigits = (64 + kBits - 1) / kBits;
  constexpr uint64_t kMask = (uint64_t{1} << kBits) - 1;
  if (n == 0) return v;
  std::array<std::array<uint32_t, kMask + 1>, kDigits> count{};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = v[i];
    for (int d = 0; d < kDigits; ++d) ++count[d][(x >> (d * kBits)) & kMask];
  }
  uint64_t* src = v;
  uint64_t* dst = scratch;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kBits;
    std::array<uint32_t, kMask + 1>& next = count[d];
    if (next[(src[0] >> shift) & kMask] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : next) sum += std::exchange(c, sum);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t x = src[i];
      dst[next[(x >> shift) & kMask]++] = x;
    }
    std::swap(src, dst);
  }
  return src;
}

/// Largest number of runs one merge takes: every run's read buffer and
/// the output batch get an equal share of `merge_bytes`, and no share
/// may drop below kMinSlotRecords.
size_t MaxFanIn(size_t merge_bytes) {
  return merge_bytes / sizeof(uint64_t) / kMinSlotRecords - 1;
}

/// k-way merge of sorted, deduplicated spill-file runs through a loser
/// tree. Hands the ascending, deduplicated stream to `flush` in batches,
/// all inside `merge_bytes` (k read buffers + one output batch).
///
/// An exhausted run's key is UINT64_MAX and the loop pops exactly the
/// total record count, so a real UINT64_MAX can tie with an exhausted
/// run; that only pops MAXes in place of each other, which the dedupe
/// collapses to the one copy it would emit anyway.
template <typename Flush>
Status MergeRuns(int fd, std::span<const std::pair<uint64_t, uint64_t>> runs,
                 size_t merge_bytes, Flush&& flush) {
  constexpr uint64_t kExhausted = std::numeric_limits<uint64_t>::max();
  const size_t k = runs.size();
  const size_t slot = merge_bytes / sizeof(uint64_t) / (k + 1);
  const auto mem = std::make_unique_for_overwrite<uint64_t[]>(slot * (k + 1));

  struct Cursor {
    uint64_t* buf;        // this run's read buffer
    const uint64_t* pos;  // current head within buf
    const uint64_t* end;  // end of the buffered records
    uint64_t next;        // file offset of the next unread record
    uint64_t left;        // records of the run not yet read
  };
  std::vector<Cursor> cur(k);
  std::vector<uint64_t> key(k);  // head record per run
  const auto refill = [&](size_t i) -> Status {
    Cursor& c = cur[i];
    const size_t take = static_cast<size_t>(std::min<uint64_t>(slot, c.left));
    TRILIST_RETURN_NOT_OK(PreadFullStrict(fd, c.buf, take * sizeof(uint64_t),
                                          c.next * sizeof(uint64_t)));
    c.next += take;
    c.left -= take;
    c.pos = c.buf;
    c.end = c.buf + take;
    key[i] = *c.pos;
    return Status::OK();
  };
  uint64_t total = 0;
  for (size_t i = 0; i < k; ++i) {
    cur[i] = {mem.get() + i * slot, nullptr, nullptr, runs[i].first,
              runs[i].second};
    total += runs[i].second;
    TRILIST_RETURN_NOT_OK(refill(i));
  }

  // Leaf i sits at node k + i of a heap-shaped tree; tree[1, k) holds
  // the loser of each internal node and tree[0] the overall winner.
  std::vector<uint32_t> tree(k);
  {
    std::vector<uint32_t> win(2 * k);
    for (size_t i = 0; i < k; ++i) win[k + i] = static_cast<uint32_t>(i);
    for (size_t node = k - 1; node >= 1; --node) {
      const uint32_t a = win[2 * node];
      const uint32_t b = win[2 * node + 1];
      const bool b_wins = key[b] < key[a];
      win[node] = b_wins ? b : a;
      tree[node] = b_wins ? a : b;
    }
    tree[0] = win[1];
  }

  uint64_t* const out = mem.get() + k * slot;
  size_t n_out = 0;
  uint64_t last = ~key[tree[0]];  // differs from the first record
  for (uint64_t todo = total; todo > 0; --todo) {
    uint32_t w = tree[0];
    const uint64_t v = key[w];
    if (v != last) {
      last = v;
      out[n_out++] = v;
      if (n_out == slot) {
        TRILIST_RETURN_NOT_OK(flush(std::span<const uint64_t>(out, n_out)));
        n_out = 0;
      }
    }
    Cursor& c = cur[w];
    if (++c.pos < c.end) {
      key[w] = *c.pos;
    } else if (c.left > 0) {
      TRILIST_RETURN_NOT_OK(refill(w));
    } else {
      key[w] = kExhausted;
      --c.pos;  // stay in bounds if it wins again on a MAX tie
    }
    for (size_t node = (k + w) >> 1; node > 0; node >>= 1) {
      const uint32_t t = tree[node];
      if (key[t] < key[w]) {
        tree[node] = w;
        w = t;
      }
    }
    tree[0] = w;
  }
  if (n_out > 0) {
    TRILIST_RETURN_NOT_OK(flush(std::span<const uint64_t>(out, n_out)));
  }
  return Status::OK();
}

}  // namespace

ExternalU64Sorter::ExternalU64Sorter(std::string tmpdir,
                                     size_t sort_buffer_bytes,
                                     size_t merge_buffer_bytes)
    : tmpdir_(std::move(tmpdir)),
      // Half the bytes buffer the run, half are its radix scratch; the
      // radix counters are u32, which caps a run at 2^32 - 1 records.
      capacity_(std::min<size_t>(
          std::max(sort_buffer_bytes, kMinBufferBytes) /
              (2 * sizeof(uint64_t)),
          std::numeric_limits<uint32_t>::max())),
      merge_buffer_bytes_(std::max(merge_buffer_bytes, kMinBufferBytes)),
      memory_(std::make_unique_for_overwrite<uint64_t[]>(2 * capacity_)),
      run_(memory_.get()),
      scratch_(memory_.get() + capacity_) {}

ExternalU64Sorter::~ExternalU64Sorter() {
  if (spill_fd_ >= 0) ::close(spill_fd_);
}

Status ExternalU64Sorter::AddSlow(uint64_t record) {
  if (drained_) {
    return Status::InvalidArgument("ExternalU64Sorter: Add after Drain");
  }
  TRILIST_RETURN_NOT_OK(SpillRun());
  run_[size_++] = record;
  return Status::OK();
}

Status ExternalU64Sorter::AddBatch(std::span<const uint64_t> records) {
  if (drained_) {
    return Status::InvalidArgument("ExternalU64Sorter: Add after Drain");
  }
  while (!records.empty()) {
    if (size_ == capacity_) TRILIST_RETURN_NOT_OK(SpillRun());
    const size_t take = std::min(records.size(), capacity_ - size_);
    std::copy_n(records.data(), take, run_ + size_);
    size_ += take;
    records = records.subspan(take);
  }
  return Status::OK();
}

void ExternalU64Sorter::SortBuffer() {
  stats_.records_in += static_cast<int64_t>(size_);
  if (RadixSort(run_, scratch_, size_) != run_) std::swap(run_, scratch_);
  size_ = static_cast<size_t>(std::unique(run_, run_ + size_) - run_);
}

Status ExternalU64Sorter::SpillRun() {
  if (size_ == 0) return Status::OK();
  if (spill_fd_ < 0) {
    // One unlinked temp file holds every run back to back (see
    // temp_file.h for the no-debris rationale).
    Result<int> fd = MakeUnlinkedTempFile(tmpdir_, "trilist-spill");
    if (!fd.ok()) return fd.status();
    spill_fd_ = *fd;
  }
  SortBuffer();
  const size_t bytes = size_ * sizeof(uint64_t);
  TRILIST_RETURN_NOT_OK(PwriteFull(spill_fd_, run_, bytes,
                                   spill_end_ * sizeof(uint64_t)));
  runs_.emplace_back(spill_end_, size_);
  spill_end_ += size_;
  ++stats_.runs;
  stats_.spilled_bytes += static_cast<int64_t>(bytes);
  size_ = 0;
  return Status::OK();
}

Status ExternalU64Sorter::MergeGroup(size_t group) {
  const uint64_t offset = spill_end_;
  TRILIST_RETURN_NOT_OK(MergeRuns(
      spill_fd_, std::span(runs_.data(), group), merge_buffer_bytes_,
      [&](std::span<const uint64_t> batch) -> Status {
        TRILIST_RETURN_NOT_OK(PwriteFull(spill_fd_, batch.data(),
                                         batch.size_bytes(),
                                         spill_end_ * sizeof(uint64_t)));
        spill_end_ += batch.size();
        stats_.spilled_bytes += static_cast<int64_t>(batch.size_bytes());
        return Status::OK();
      }));
  // Hand the merged runs' disk space back; a filesystem that cannot
  // punch holes just keeps it until the spill file closes.
  for (size_t i = 0; i < group; ++i) {
    ::fallocate(spill_fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                static_cast<off_t>(runs_[i].first * sizeof(uint64_t)),
                static_cast<off_t>(runs_[i].second * sizeof(uint64_t)));
  }
  runs_.erase(runs_.begin(), runs_.begin() + static_cast<ptrdiff_t>(group));
  runs_.emplace_back(offset, spill_end_ - offset);
  ++stats_.merge_passes;
  return Status::OK();
}

Status ExternalU64Sorter::Drain(
    const std::function<Status(std::span<const uint64_t>)>& emit) {
  if (drained_) {
    return Status::InvalidArgument(
        "ExternalU64Sorter: Drain called twice");
  }
  drained_ = true;
  capacity_ = 0;  // later Adds take the slow path and fail there

  if (runs_.empty()) {
    // Everything fit in RAM: one sort, no I/O at all.
    SortBuffer();
    stats_.merged_records = static_cast<int64_t>(size_);
    Status st;
    for (size_t at = 0; at < size_ && st.ok(); at += kEmitBatchRecords) {
      st = emit(std::span<const uint64_t>(
          run_ + at, std::min(kEmitBatchRecords, size_ - at)));
    }
    memory_.reset();
    return st;
  }

  // Spill the final partial run so the merge sees a uniform run list and
  // the run buffer and scratch can be released before merge buffers
  // allocate.
  TRILIST_RETURN_NOT_OK(SpillRun());
  memory_.reset();

  // Too many runs for the read-buffer floor: merge groups back into the
  // spill file first. A group of g runs removes g - 1, so merge only as
  // many as it takes to bring the rest down to the fan-in.
  const size_t fan_in = MaxFanIn(merge_buffer_bytes_);
  while (runs_.size() > fan_in) {
    TRILIST_RETURN_NOT_OK(
        MergeGroup(std::min(fan_in, runs_.size() - fan_in + 1)));
  }
  ++stats_.merge_passes;
  return MergeRuns(spill_fd_, runs_, merge_buffer_bytes_,
                   [&](std::span<const uint64_t> batch) -> Status {
                     stats_.merged_records +=
                         static_cast<int64_t>(batch.size());
                     return emit(batch);
                   });
}

}  // namespace trilist::ooc
