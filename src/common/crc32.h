// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF).
//
// Shared by every integrity envelope in the tree: the snapshot envelope
// (smr/snapshot.h), the TCP frame header (net/tcp/framing.h) and the WAL
// record header (storage/wal.h). Lives in common/ so net does not have
// to link smr just for a checksum.
//
// It runs on every frame the serving path sends or receives and on every
// snapshot image, so it is not computed a byte at a time. On x86-64 CPUs
// with PCLMULQDQ (checked once, at run time) inputs of 64 bytes and more
// are folded 64 bytes per step with carry-less multiply; shorter inputs,
// the tail of a folded one, other CPUs and other architectures run
// slicing-by-16 (16 bytes per step, tables built at compile time). The
// checksum is the same, bit for bit, either way (tests/crc32_test.cc).
#ifndef DPAXOS_COMMON_CRC32_H_
#define DPAXOS_COMMON_CRC32_H_

#include <cstdint>
#include <string_view>

namespace dpaxos {

uint32_t Crc32(std::string_view bytes);

}  // namespace dpaxos

#endif  // DPAXOS_COMMON_CRC32_H_
