#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

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

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  const auto& t = kTables;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
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
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace dpaxos
