#include "src/common/sha256.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace skydia {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// The kernel needs the SHA extensions (leaf 7, EBX bit 29) and, for the
// byte shuffles and blends around them, SSSE3 and SSE4.1 (leaf 1, ECX).
bool DetectShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse && (ebx & bit_SHA) != 0;
}

#else

bool DetectShaNi() { return false; }

#endif

}  // namespace

namespace internal {

void Sha256BlocksPortable(uint32_t* state, const uint8_t* blocks,
                          size_t num_blocks) {
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (uint32_t{blocks[4 * i]} << 24) |
             (uint32_t{blocks[4 * i + 1]} << 16) |
             (uint32_t{blocks[4 * i + 2]} << 8) | uint32_t{blocks[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// The SHA-NI kernel (Intel SHA extensions). The state lives in two
// registers as {A,B,E,F} and {C,D,G,H}; each _mm_sha256rnds2_epu32 runs two
// rounds, so one four-round group is two of them with the schedule words
// plus round constants. msg[g & 3] holds W[4g..4g+3]: groups 0-3 load them
// from the block, later groups have them completed by sha256msg1 (the
// sigma0 half, three groups ahead) and sha256msg2 (the sigma1 half, one
// group ahead). The 16 groups unroll, so the ring of four message registers
// stays in registers. Loads and stores are unaligned throughout.
__attribute__((target("sha,sse4.1,ssse3"))) void Sha256BlocksShaNi(
    uint32_t* state, const uint8_t* blocks, size_t num_blocks) {
  // Byte order: each 32-bit lane of a block is big-endian.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // state a..h -> {A,B,E,F} and {C,D,G,H}; lanes are named high to low.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg[4];
#pragma GCC unroll 16
    for (size_t g = 0; g < 16; ++g) {
      __m128i& cur = msg[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            byte_swap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                   kRoundConstants + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (g >= 3 && g < 15) {
        // W[4g+4..4g+7]: add the W[t-7] terms, then the sigma1 half.
        __m128i& next = msg[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
      if (g >= 1 && g < 13) {
        // The sigma0 half of W[4g+12..4g+15], in the group-(g-1) register.
        __m128i& ahead = msg[(g + 3) & 3];
        ahead = _mm_sha256msg1_epu32(ahead, cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#else

void Sha256BlocksShaNi(uint32_t*, const uint8_t*, size_t) { std::abort(); }

#endif

bool Sha256ShaNiSupported() {
  static const bool supported = DetectShaNi();
  return supported;
}

const char* Sha256KernelName() {
  return Sha256ShaNiSupported() ? "sha-ni" : "portable";
}

}  // namespace internal

Sha256::Sha256()
    : Sha256(internal::Sha256ShaNiSupported()
                 ? internal::Sha256BlocksShaNi
                 : internal::Sha256BlocksPortable) {}

Sha256::Sha256(internal::Sha256BlockFn blocks) : blocks_(blocks) {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::Update(const void* data, size_t len) {
  if (len == 0) return;
  const auto* bytes = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t take = std::min<size_t>(len, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ < 64) return;
    blocks_(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Every whole block goes to the kernel in one call.
  const size_t whole = len / 64;
  if (whole > 0) {
    blocks_(state_, bytes, whole);
    bytes += 64 * whole;
    len -= 64 * whole;
  }
  std::memcpy(buffer_, bytes, len);
  buffer_len_ = len;
}

Sha256Digest Sha256::Finish() {
  // Padding: 0x80, zeros to 56 mod 64, then the message length in bits,
  // big-endian.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    blocks_(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  blocks_(state_, buffer_, 1);
  buffer_len_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

std::string DigestToHex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace skydia
