// Minimal SHA-256 implementation (FIPS 180-4).
//
// Two users: the authenticated-skyline-query application
// (src/apps/authentication) builds Merkle commitments over diagram cells
// with it, and every diagram blob (src/core/serialize.h) carries a SHA-256
// of its body as the footer checksum, so each save and each load hashes the
// whole blob once.
//
// The compression function runs on one of two kernels, chosen once per
// process: on x86-64 CPUs with the SHA extensions (CPUID leaf 7 EBX bit 29,
// plus SSE4.1 and SSSE3) a kernel built on the SHA-NI instructions, compiled
// with a function-level target attribute so the binary still runs on every
// x86-64 CPU; everywhere else the portable FIPS 180-4 code. The portable
// kernel is also the reference: tests/common/sha256_test.cc runs the FIPS
// vectors through each kernel and compares them on random data. Both give
// the same digests, so blob footers and Merkle roots do not depend on the
// CPU. Self-contained, so the library has no external crypto dependency.
#ifndef SKYDIA_SRC_COMMON_SHA256_H_
#define SKYDIA_SRC_COMMON_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace skydia {

/// A 32-byte SHA-256 digest.
using Sha256Digest = std::array<uint8_t, 32>;

namespace internal {

/// A SHA-256 compression kernel: absorbs `num_blocks` consecutive 64-byte
/// blocks starting at `blocks` (any alignment) into the eight state words
/// `state` (a..h).
using Sha256BlockFn = void (*)(uint32_t* state, const uint8_t* blocks,
                               size_t num_blocks);

/// The FIPS 180-4 reference kernel; runs on every CPU.
void Sha256BlocksPortable(uint32_t* state, const uint8_t* blocks,
                          size_t num_blocks);

/// The x86 SHA-extensions kernel. Call it only when Sha256ShaNiSupported();
/// built for another architecture it aborts.
void Sha256BlocksShaNi(uint32_t* state, const uint8_t* blocks,
                       size_t num_blocks);

/// Whether this CPU runs Sha256BlocksShaNi (checked once per process).
bool Sha256ShaNiSupported();

/// The kernel Sha256 uses in this process: "sha-ni" or "portable".
const char* Sha256KernelName();

}  // namespace internal

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.Update(data, len);
///   Sha256Digest d = h.Finish();
/// Finish() may be called only once; the object is then exhausted.
class Sha256 {
 public:
  /// Hashes on the kernel this process chose.
  Sha256();
  /// Hashes on `blocks`; lets tests pin one kernel.
  explicit Sha256(internal::Sha256BlockFn blocks);

  /// Absorbs `len` bytes.
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  /// Finalizes and returns the digest.
  Sha256Digest Finish();

  /// One-shot convenience.
  static Sha256Digest Hash(const void* data, size_t len);
  static Sha256Digest Hash(std::string_view s) {
    return Hash(s.data(), s.size());
  }

 private:
  internal::Sha256BlockFn blocks_;
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
};

/// Renders a digest as lowercase hex.
std::string DigestToHex(const Sha256Digest& digest);

}  // namespace skydia

#endif  // SKYDIA_SRC_COMMON_SHA256_H_
