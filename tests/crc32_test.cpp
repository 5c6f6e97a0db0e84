#include "src/util/crc32.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/cpu_features.h"

/// CRC-32 against a bit-at-a-time reference, through both bodies: the
/// level the process detects (the folded PCLMULQDQ body on x86-64 CPUs
/// that have it) and the byte table pinned by a scalar level.

namespace trilist {
namespace {

/// One bit per step over the inverted state; returns the inverted state.
uint32_t BitwiseUpdate(uint32_t c, const unsigned char* p, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c;
}

std::vector<unsigned char> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 gen(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(gen());
  return bytes;
}

class Crc32Test : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override {
    saved_ = ActiveSimdLevel();
    SetActiveSimdLevelForTest(GetParam());
  }
  void TearDown() override { SetActiveSimdLevelForTest(saved_); }

 private:
  SimdLevel saved_ = SimdLevel::kScalar;
};

TEST_P(Crc32Test, KnownAnswers) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(Crc32Update(0, kCheck.data(), kCheck.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32Update(0, nullptr, 0), 0u);
  EXPECT_EQ(Crc32(std::span<const std::byte>()), 0u);
  // Extending by nothing leaves any running value as it is.
  EXPECT_EQ(Crc32Update(0xCBF43926u, kCheck.data(), 0), 0xCBF43926u);
}

TEST_P(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 1024;
  constexpr size_t kMaxOffset = 15;
  const auto buf = RandomBytes(kMaxLen + kMaxOffset, 17);
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    const unsigned char* p = buf.data() + offset;
    uint32_t ref = 0xFFFFFFFFu;  // inverted state of the empty prefix
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32Update(0, p, len), ref ^ 0xFFFFFFFFu)
          << "offset " << offset << " len " << len;
      if (len < kMaxLen) ref = BitwiseUpdate(ref, p + len, 1);
    }
  }
}

TEST_P(Crc32Test, MatchesBitwiseReferenceOnALongUnalignedSpan) {
  const auto buf = RandomBytes((size_t{1} << 20) + 23, 5);
  const unsigned char* p = buf.data() + 3;
  const size_t len = buf.size() - 3;
  EXPECT_EQ(Crc32Update(0, p, len),
            BitwiseUpdate(0xFFFFFFFFu, p, len) ^ 0xFFFFFFFFu);
}

TEST_P(Crc32Test, EverySplitPointGivesTheOneShotValue) {
  const auto buf = RandomBytes(300, 29);
  const uint32_t whole = Crc32Update(0, buf.data(), buf.size());
  EXPECT_EQ(whole, BitwiseUpdate(0xFFFFFFFFu, buf.data(), buf.size()) ^
                       0xFFFFFFFFu);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32Update(0, buf.data(), split);
    ASSERT_EQ(Crc32Update(head, buf.data() + split, buf.size() - split),
              whole)
        << "split " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Bodies, Crc32Test,
                         ::testing::Values(DetectedSimdLevel(),
                                           SimdLevel::kScalar),
                         [](const auto& info) {
                           return std::string(info.index == 0 ? "Detected"
                                                              : "Table");
                         });

}  // namespace
}  // namespace trilist
