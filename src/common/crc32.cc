#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/crc32_internal.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dpaxos {

namespace {

// Slicing-by-16 over the IEEE 802.3 polynomial (0xEDB88320, reflected).
// kTables[0] is the classic byte table; kTables[k][b] advances the
// register over byte b followed by k zero bytes, so one step folds 16
// input bytes with 16 independent lookups instead of a 16-long
// dependency chain.
// The tables are built at compile time: start-up does no work.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kTables = BuildCrcTables();

// The sliced steps read their bytes as host-order words.
static_assert(std::endian::native == std::endian::little,
              "the sliced CRC loop assumes a little-endian host");

uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));  // no alignment assumed
  return v;
}

// Advances the register `crc` (before the final xor) over n bytes at p.
// Inlined into Crc32, so a short frame pays no call for it.
__attribute__((always_inline)) inline uint32_t SlicedUpdate(
    uint32_t crc, const unsigned char* p, size_t n) {
  const auto& t = kTables;
  for (; n >= 16; p += 16, n -= 16) {
    const uint32_t a = Load32(p) ^ crc;
    const uint32_t b = Load32(p + 4);
    const uint32_t c = Load32(p + 8);
    const uint32_t d = Load32(p + 12);
    crc = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^
          t[13][(a >> 16) & 0xFF] ^ t[12][a >> 24] ^
          t[11][b & 0xFF] ^ t[10][(b >> 8) & 0xFF] ^
          t[9][(b >> 16) & 0xFF] ^ t[8][b >> 24] ^
          t[7][c & 0xFF] ^ t[6][(c >> 8) & 0xFF] ^
          t[5][(c >> 16) & 0xFF] ^ t[4][c >> 24] ^
          t[3][d & 0xFF] ^ t[2][(d >> 8) & 0xFF] ^
          t[1][(d >> 16) & 0xFF] ^ t[0][d >> 24];
  }
  // The tail: whole words, then single bytes. Short frames spend most
  // of their time here (a Put's reply frame body is 26 bytes).
  for (; n >= 4; p += 4, n -= 4) {
    const uint32_t a = Load32(p) ^ crc;
    crc = t[3][a & 0xFF] ^ t[2][(a >> 8) & 0xFF] ^ t[1][(a >> 16) & 0xFF] ^
          t[0][a >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

// Inputs this long and longer are folded when the CPU can.
constexpr size_t kFoldBlock = 64;

// Folding with carry-less multiply (Intel, "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", 2009), for the same
// reflected polynomial. Four 128-bit lanes each fold 16 bytes per step
// over the next 64 by multiplying by x^(4*128±32) mod P; the lanes then
// fold into one, which takes any further 16-byte blocks, and Barrett
// reduction turns the last 128 bits into the 32-bit register. Each
// constant is the bit-reflected x^e mod P(x) (or floor(x^64 / P(x)))
// shifted left by one, as the reflected domain needs.

// x times x^(e+32) mod P (high half, by the high key) and x^(e-32) mod P
// (low half, by the low key): x moved e bits further, to meet `next`.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i x,
                                                       __m128i keys,
                                                       __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, keys, 0x11),
                                     _mm_clmulepi64_si128(x, keys, 0x00)),
                       next);
}

inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));  // unaligned
}

// Advances the register over n bytes at p, n a multiple of 16 and at
// least kFoldBlock.
__attribute__((target("pclmul"))) uint32_t FoldedUpdate(
    uint32_t crc, const unsigned char* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // 4*128∓32
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // 128±32
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);             // 64
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu, P
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += kFoldBlock;
  n -= kFoldBlock;
  for (; n >= kFoldBlock; p += kFoldBlock, n -= kFoldBlock) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 bits to 64, then to 32 + 32 ...
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // ... and Barrett reduction to the 32-bit register.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x1, t), 4)));
}

// True when the CPU has PCLMULQDQ; asked once.
bool FoldAvailable() {
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & bit_PCLMUL) != 0;
  }();
  return available;
}

// Crc32 of at least kFoldBlock bytes: whole 16-byte blocks fold when the
// CPU can, and the sliced loop takes the tail. Out of line, so that
// Crc32 stays a leaf on short inputs.
__attribute__((noinline)) uint32_t LongCrc32(const unsigned char* p,
                                             size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  if (FoldAvailable()) {
    const size_t folded = n & ~size_t{15};
    crc = FoldedUpdate(crc, p, folded);
    p += folded;
    n -= folded;
  }
  return SlicedUpdate(crc, p, n) ^ 0xFFFFFFFFu;
}

#endif  // __x86_64__

}  // namespace

namespace crc32_internal {

uint32_t Crc32Sliced(std::string_view bytes) {
  return SlicedUpdate(0xFFFFFFFFu,
                      reinterpret_cast<const unsigned char*>(bytes.data()),
                      bytes.size()) ^
         0xFFFFFFFFu;
}

}  // namespace crc32_internal

uint32_t Crc32(std::string_view bytes) {
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(bytes.data());
#if defined(__x86_64__)
  if (bytes.size() >= kFoldBlock) return LongCrc32(p, bytes.size());
#endif
  return SlicedUpdate(0xFFFFFFFFu, p, bytes.size()) ^ 0xFFFFFFFFu;
}

}  // namespace dpaxos
