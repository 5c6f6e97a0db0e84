#include "src/ooc/external_sort.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"

// Every operator new of the test binary adds its usable size to the live
// total and every delete takes it back, so a test can bound the sorter's
// resident working set (array new forwards to operator new). The
// replacements pair malloc with free; GCC cannot see that through the
// replaced operators and would flag the frees as mismatched.
namespace {
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void CountLive(int64_t delta) {
  const int64_t live = g_live_bytes.fetch_add(delta) + delta;
  int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
}
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  CountLive(static_cast<int64_t>(malloc_usable_size(p)));
  return p;
}
void operator delete(void* p) noexcept {
  if (p != nullptr) CountLive(-static_cast<int64_t>(malloc_usable_size(p)));
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#pragma GCC diagnostic pop

namespace trilist::ooc {
namespace {

/// Records per sorter run for a `sort_buffer_bytes` argument: the buffer
/// and its radix scratch split the bytes, with a 64 KiB floor.
size_t RunRecords(size_t sort_buffer_bytes) {
  return std::max<size_t>(sort_buffer_bytes, 64 << 10) / 16;
}

/// Drains `sorter` into one vector, asserting every batch is non-empty
/// and internally ascending.
std::vector<uint64_t> DrainAll(ExternalU64Sorter* sorter) {
  std::vector<uint64_t> out;
  const Status st =
      sorter->Drain([&out](std::span<const uint64_t> batch) -> Status {
        EXPECT_FALSE(batch.empty());
        EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));
        out.insert(out.end(), batch.begin(), batch.end());
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// Reference result: sort + dedupe in RAM.
std::vector<uint64_t> SortedUnique(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

TEST(ExternalSortTest, InRamPathSortsAndDedupes) {
  ExternalU64Sorter sorter(::testing::TempDir(), 1 << 20, 1 << 20);
  const std::vector<uint64_t> input = {5, 3, 9, 3, 7, 5, 1, 9, 9};
  ASSERT_TRUE(sorter.AddBatch(input).ok());
  EXPECT_EQ(DrainAll(&sorter), SortedUnique(input));
  EXPECT_EQ(sorter.stats().records_in, 9);
  EXPECT_EQ(sorter.stats().merged_records, 5);
  EXPECT_EQ(sorter.stats().runs, 0) << "small input must not spill";
  EXPECT_EQ(sorter.stats().spilled_bytes, 0);
}

TEST(ExternalSortTest, EmptyInputDrainsEmpty) {
  ExternalU64Sorter sorter(::testing::TempDir(), 1 << 20, 1 << 20);
  bool emitted = false;
  const Status st = sorter.Drain([&](std::span<const uint64_t>) -> Status {
    emitted = true;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(emitted);
  EXPECT_EQ(sorter.stats().merged_records, 0);
}

TEST(ExternalSortTest, SpillingMergeMatchesInRamReference) {
  // Minimum buffers (64 KiB = 4096-record runs) against 100k records
  // force two dozen spilled runs through the k-way merge.
  ExternalU64Sorter sorter(::testing::TempDir(), 1, 1);
  Rng rng(123);
  std::vector<uint64_t> input;
  input.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    input.push_back(rng.Next() % 40000);  // plenty of duplicates
  }
  for (uint64_t v : input) ASSERT_TRUE(sorter.Add(v).ok());
  EXPECT_EQ(DrainAll(&sorter), SortedUnique(input));
  EXPECT_GT(sorter.stats().runs, 1) << "test must exercise the merge";
  EXPECT_GT(sorter.stats().spilled_bytes, 0);
  EXPECT_EQ(sorter.stats().records_in, 100000);
}

TEST(ExternalSortTest, DuplicatesCollapseAcrossRuns) {
  // Every run holds the same records, so cross-run dedupe (not just
  // within-run) must collapse them to one copy each.
  ExternalU64Sorter sorter(::testing::TempDir(), 1, 1);
  for (int rep = 0; rep < 5; ++rep) {
    for (uint64_t v = 0; v < 20000; ++v) ASSERT_TRUE(sorter.Add(v).ok());
  }
  const std::vector<uint64_t> merged = DrainAll(&sorter);
  ASSERT_EQ(merged.size(), 20000u);
  for (uint64_t v = 0; v < 20000; ++v) EXPECT_EQ(merged[v], v);
  EXPECT_GE(sorter.stats().runs, 5);
}

TEST(ExternalSortTest, AddAfterDrainFails) {
  ExternalU64Sorter sorter(::testing::TempDir(), 1 << 20, 1 << 20);
  ASSERT_TRUE(sorter.Add(1).ok());
  DrainAll(&sorter);
  EXPECT_FALSE(sorter.Add(2).ok());
  EXPECT_FALSE(
      sorter.Drain([](std::span<const uint64_t>) { return Status::OK(); })
          .ok());
}

TEST(ExternalSortTest, BadTmpdirSurfacesOnSpill) {
  ExternalU64Sorter sorter("/nonexistent-trilist-tmpdir", 1, 1);
  Status st = Status::OK();
  // The spill file is created lazily on first overflow; keep adding
  // until the failure surfaces (one 4096-record run + 1).
  for (size_t i = 0; i <= RunRecords(1) && st.ok(); ++i) {
    st = sorter.Add(static_cast<uint64_t>(i));
  }
  EXPECT_FALSE(st.ok());
}

TEST(ExternalSortTest, EmitErrorAbortsDrain) {
  ExternalU64Sorter sorter(::testing::TempDir(), 1 << 20, 1 << 20);
  for (uint64_t v = 0; v < 100; ++v) ASSERT_TRUE(sorter.Add(v).ok());
  const Status st =
      sorter.Drain([](std::span<const uint64_t>) -> Status {
        return Status::Internal("sink rejected batch");
      });
  EXPECT_FALSE(st.ok());
}

TEST(ExternalSortTest, FanInOverflowMergesInSeveralPasses) {
  // Both 64 KiB floors: 4096-record runs, and read buffers of at least
  // 512 records leave room for 15 runs per merge. 40 runs need
  // intermediate passes back into the spill file. Zeros and UINT64_MAX
  // land in most runs, so exhausted runs (whose key is UINT64_MAX) tie
  // with real records in every pass.
  ExternalU64Sorter sorter(::testing::TempDir(), 1, 1);
  Rng rng(77);
  std::vector<uint64_t> input(40 * RunRecords(1));
  for (uint64_t& v : input) {
    const uint64_t r = rng.Next();
    v = r % 64 == 0   ? 0
        : r % 64 == 1 ? std::numeric_limits<uint64_t>::max()
                      : r % (uint64_t{1} << 50);
  }
  ASSERT_TRUE(sorter.AddBatch(input).ok());
  const std::vector<uint64_t> expected = SortedUnique(input);
  EXPECT_EQ(DrainAll(&sorter), expected);
  EXPECT_EQ(sorter.stats().runs, 40);
  EXPECT_GT(sorter.stats().merge_passes, 1);
  EXPECT_EQ(sorter.stats().merged_records,
            static_cast<int64_t>(expected.size()));
}

TEST(ExternalSortTest, ResidentBytesStayWithinBudgets) {
  // Runs of 4096 records and a 128 KiB merge (fan-in 31): 40 runs take
  // an intermediate pass too. The margin covers the run list, the merge
  // cursors and the spill path, not a second buffer.
  constexpr size_t kSortBytes = 64 << 10;
  constexpr size_t kMergeBytes = 128 << 10;
  constexpr int64_t kSlack = 8 << 10;
  Rng rng(5);
  std::vector<uint64_t> input(40 * RunRecords(kSortBytes));
  for (uint64_t& v : input) v = rng.Next();
  const std::vector<uint64_t> expected = SortedUnique(input);
  const std::string tmpdir = ::testing::TempDir();

  const int64_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  ExternalU64Sorter sorter(tmpdir, kSortBytes, kMergeBytes);
  for (const uint64_t v : input) ASSERT_TRUE(sorter.Add(v).ok());
  EXPECT_LE(g_peak_bytes.load() - base,
            static_cast<int64_t>(kSortBytes) + kSlack)
      << "adding and spilling must fit the sort buffer";

  g_peak_bytes.store(g_live_bytes.load());
  size_t at = 0;
  bool in_order = true;
  const Status st = sorter.Drain([&](std::span<const uint64_t> batch) {
    for (const uint64_t v : batch) {
      in_order = in_order && at < expected.size() && v == expected[at];
      ++at;
    }
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(at, expected.size());
  EXPECT_GT(sorter.stats().merge_passes, 1);
  EXPECT_LE(g_peak_bytes.load() - base,
            static_cast<int64_t>(kMergeBytes) + kSlack)
      << "the run buffer must be gone before the merge buffers allocate";
}

// ---------------------------------------------------------------------------
// Differential suite: the sorter against SortedUnique, plus the ledger
// invariants, over key sets that hit every radix digit (and the skipped
// constant ones), the UINT64_MAX exhaustion key, and run boundaries.

struct KeySet {
  const char* name;
  /// Input for runs of `run` records.
  std::vector<uint64_t> (*make)(size_t run, Rng* rng);
};

std::vector<uint64_t> Draw(size_t count, Rng* rng, uint64_t (*key)(uint64_t)) {
  std::vector<uint64_t> v(count);
  for (uint64_t& x : v) x = key(rng->Next());
  return v;
}

const KeySet kKeySets[] = {
    {"FullWidth",
     [](size_t run, Rng* rng) {
       return Draw(5 * run + 123, rng, [](uint64_t r) { return r; });
     }},
    {"Top16Bits",
     [](size_t run, Rng* rng) {
       return Draw(3 * run + 7, rng, [](uint64_t r) { return r >> 48 << 48; });
     }},
    {"Bit63Only",
     [](size_t run, Rng* rng) {
       return Draw(3 * run + 1, rng, [](uint64_t r) { return r << 63; });
     }},
    {"AllEqual",
     [](size_t run, Rng* rng) {
       return Draw(3 * run, rng,
                   [](uint64_t) -> uint64_t { return 0x0123456789abcdefull; });
     }},
    {"ZeroAndMax",
     [](size_t run, Rng* rng) {
       return Draw(3 * run + 1, rng, [](uint64_t r) {
         return r % 2 == 0 ? 0 : std::numeric_limits<uint64_t>::max();
       });
     }},
    {"PreSorted",
     [](size_t run, Rng*) {
       std::vector<uint64_t> v(4 * run + 3);
       for (size_t i = 0; i < v.size(); ++i) v[i] = (i / 3) << 20 | i % 5;
       std::sort(v.begin(), v.end());
       return v;
     }},
    {"ReverseSorted",
     [](size_t run, Rng* rng) {
       std::vector<uint64_t> v =
           Draw(4 * run + 3, rng, [](uint64_t r) { return r >> 8; });
       std::sort(v.rbegin(), v.rend());
       return v;
     }},
    {"ExactlyOneRun",
     [](size_t run, Rng* rng) {
       return Draw(run, rng, [](uint64_t r) { return r; });
     }},
    {"OneRunMinusOne",
     [](size_t run, Rng* rng) {
       return Draw(run - 1, rng, [](uint64_t r) { return r; });
     }},
    {"OneRunPlusOne",
     [](size_t run, Rng* rng) {
       return Draw(run + 1, rng, [](uint64_t r) { return r; });
     }},
};

using DiffParam = std::tuple<size_t, KeySet>;

class ExternalSortDiffTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(ExternalSortDiffTest, MatchesSortedUniqueAndLedger) {
  const auto& [bytes, keys] = GetParam();
  const size_t run = RunRecords(bytes);
  Rng rng(2024);
  const std::vector<uint64_t> input = keys.make(run, &rng);
  const std::vector<uint64_t> expected = SortedUnique(input);

  ExternalU64Sorter sorter(::testing::TempDir(), bytes, bytes);
  // Half through Add, half through AddBatch, so both paths hit the
  // capacity boundary.
  const size_t half = input.size() / 2;
  for (size_t i = 0; i < half; ++i) ASSERT_TRUE(sorter.Add(input[i]).ok());
  ASSERT_TRUE(
      sorter.AddBatch(std::span(input).subspan(half)).ok());
  EXPECT_EQ(DrainAll(&sorter), expected);

  const SpillStats& st = sorter.stats();
  EXPECT_EQ(st.records_in, static_cast<int64_t>(input.size()));
  EXPECT_EQ(st.merged_records, static_cast<int64_t>(expected.size()));
  // A full buffer spills only when one more record arrives, so an input
  // of exactly one run still sorts in RAM.
  const int64_t runs =
      input.size() > run ? static_cast<int64_t>((input.size() + run - 1) / run)
                         : 0;
  EXPECT_EQ(st.runs, runs);
  EXPECT_EQ(st.merge_passes, runs > 0 ? 1 : 0);
  EXPECT_EQ(st.spilled_bytes > 0, runs > 0);
}

INSTANTIATE_TEST_SUITE_P(
    Buffers, ExternalSortDiffTest,
    ::testing::Combine(::testing::Values(size_t{64} << 10, size_t{1} << 20),
                       ::testing::ValuesIn(kKeySets)),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      return std::string(std::get<1>(info.param).name) +
             (std::get<0>(info.param) == (size_t{64} << 10) ? "_64KiB"
                                                             : "_1MiB");
    });

}  // namespace
}  // namespace trilist::ooc
