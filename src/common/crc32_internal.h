// The sliced loop behind Crc32 (common/crc32.h), exposed alone so tests
// can check it against the reference on a CPU where Crc32 folds. Not
// part of the public API: callers use Crc32, which picks the loop.
#ifndef DPAXOS_COMMON_CRC32_INTERNAL_H_
#define DPAXOS_COMMON_CRC32_INTERNAL_H_

#include <cstdint>
#include <string_view>

namespace dpaxos::crc32_internal {

/// Crc32 computed by the slicing-by-16 loop alone: what Crc32 runs on
/// a CPU without carry-less multiply, and on short inputs and tails
/// everywhere.
uint32_t Crc32Sliced(std::string_view bytes);

}  // namespace dpaxos::crc32_internal

#endif  // DPAXOS_COMMON_CRC32_INTERNAL_H_
