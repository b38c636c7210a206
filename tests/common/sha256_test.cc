#include "src/common/sha256.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace skydia {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash(msg)))
        << "split at " << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaryLengths) {
  // 55/56/63/64/65 bytes cross the padding edge cases.
  for (const size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string msg(len, 'x');
    Sha256 incremental;
    for (char c : msg) incremental.Update(&c, 1);
    EXPECT_EQ(DigestToHex(incremental.Finish()),
              DigestToHex(Sha256::Hash(msg)))
        << "length " << len;
  }
}

TEST(Sha256Test, DigestToHexFormat) {
  const std::string hex = DigestToHex(Sha256::Hash("abc"));
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(Sha256Test, NamesTheProcessKernel) {
  const std::string name = internal::Sha256KernelName();
  std::printf("Sha256 kernel in this process: %s\n", name.c_str());
  EXPECT_EQ(name, internal::Sha256ShaNiSupported() ? "sha-ni" : "portable");
}

// --- each kernel on its own --------------------------------------------------
//
// The tests above reach only the kernel this CPU picks; these pin each one,
// so the portable reference stays tested on SHA-NI hosts and the hardware
// kernel is compared against it wherever it runs.

struct Kernel {
  const char* name;
  internal::Sha256BlockFn blocks;
};

std::string KernelHex(internal::Sha256BlockFn blocks, std::string_view msg) {
  Sha256 h(blocks);
  h.Update(msg);
  return DigestToHex(h.Finish());
}

std::string RandomBytes(size_t len, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng());
  return out;
}

class Sha256KernelTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam().blocks == &internal::Sha256BlocksShaNi &&
        !internal::Sha256ShaNiSupported()) {
      GTEST_SKIP() << "this CPU lacks the SHA extensions";
    }
  }
  std::string Hex(std::string_view msg) const {
    return KernelHex(GetParam().blocks, msg);
  }
};

TEST_P(Sha256KernelTest, FipsVectors) {
  EXPECT_EQ(Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(Hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(Hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, RandomSplitPointsMatchOneShot) {
  const std::string msg = RandomBytes(5000, 0x5A256u);
  const std::string expected = Hex(msg);
  std::mt19937_64 rng(0x5EEDu);
  for (int trial = 0; trial < 50; ++trial) {
    Sha256 h(GetParam().blocks);
    size_t pos = 0;
    while (pos < msg.size()) {
      // Mostly short pieces, some spanning several blocks.
      const size_t piece =
          std::min<size_t>(msg.size() - pos, rng() % (trial % 2 ? 300 : 70));
      h.Update(msg.data() + pos, piece);
      pos += piece;
    }
    EXPECT_EQ(DigestToHex(h.Finish()), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256KernelTest,
    ::testing::Values(Kernel{"portable", &internal::Sha256BlocksPortable},
                      Kernel{"shani", &internal::Sha256BlocksShaNi}),
    [](const ::testing::TestParamInfo<Kernel>& info) {
      return std::string(info.param.name);
    });

TEST(Sha256Test, HardwareKernelMatchesPortableOnRandomData) {
  if (!internal::Sha256ShaNiSupported()) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions";
  }
  const std::string data = RandomBytes((1u << 20) + 17, 0xB10Bu);
  for (size_t len = 0; len <= 1024; ++len) {
    const std::string_view msg(data.data(), len);
    ASSERT_EQ(KernelHex(&internal::Sha256BlocksShaNi, msg),
              KernelHex(&internal::Sha256BlocksPortable, msg))
        << "length " << len;
  }
  EXPECT_EQ(KernelHex(&internal::Sha256BlocksShaNi, data),
            KernelHex(&internal::Sha256BlocksPortable, data));
}

}  // namespace
}  // namespace skydia
