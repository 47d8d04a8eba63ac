#include "asup/index/block_codec.h"

#include <array>
#include <cstdio>
#include <cstdlib>

#include "asup/util/check.h"

namespace asup {

namespace {

/// Largest shift a 5-byte varbyte payload may reach: bits [28, 32) come
/// from the fifth byte, which therefore may carry at most 4 payload bits.
constexpr int kMaxVarByteShift = 28;

[[noreturn]] void CodecFailure(const char* what, const char* reason,
                               size_t offset) {
  std::fprintf(stderr, "asup: posting %s decode failed at offset %zu: %s\n",
               what, offset, reason);
  std::abort();
}

}  // namespace

void AppendVarByte(uint32_t value, std::vector<uint8_t>& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

bool TryReadVarByte(const std::vector<uint8_t>& bytes, size_t& offset,
                    uint32_t& value) {
  uint32_t decoded = 0;
  int shift = 0;
  size_t at = offset;
  while (true) {
    if (at >= bytes.size()) return false;  // truncated mid-varint
    const uint8_t byte = bytes[at];
    if (shift == kMaxVarByteShift &&
        (byte & 0x80 || (byte & 0x7f) > 0x0f)) {
      // Overlong: a sixth byte, or fifth-byte bits that do not fit in 32.
      // Rejecting (instead of shifting by >= 32, which is UB) also keeps
      // the encoding canonical — AppendVarByte never emits these.
      return false;
    }
    decoded |= static_cast<uint32_t>(byte & 0x7f) << shift;
    ++at;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  value = decoded;
  offset = at;
  return true;
}

uint32_t ReadVarByte(const std::vector<uint8_t>& bytes, size_t& offset) {
  uint32_t value = 0;
  if (!TryReadVarByte(bytes, offset, value)) {
    CodecFailure("varbyte",
                 offset >= bytes.size() ? "truncated input"
                                        : "overlong encoding",
                 offset);
  }
  return value;
}

namespace blockcodec {

namespace {

/// Minimal little-endian byte length of `value` (1..4).
size_t GroupByteLen(uint32_t value) {
  if (value < (1u << 8)) return 1;
  if (value < (1u << 16)) return 2;
  if (value < (1u << 24)) return 3;
  return 4;
}

/// One tag byte (two bits per value: byte length - 1), then the four
/// values little-endian in their minimal lengths.
void EncodeGroup(const uint32_t values[4], std::vector<uint8_t>& out) {
  uint8_t tag = 0;
  for (int i = 0; i < 4; ++i) {
    tag |= static_cast<uint8_t>(GroupByteLen(values[i]) - 1) << (2 * i);
  }
  out.push_back(tag);
  for (int i = 0; i < 4; ++i) {
    uint32_t v = values[i];
    const size_t len = GroupByteLen(values[i]);
    for (size_t b = 0; b < len; ++b) {
      out.push_back(static_cast<uint8_t>(v));
      v >>= 8;
    }
  }
}

/// Low 1..4 bytes of a 4-byte little-endian gather, and the least value
/// that needs that many bytes (the canonical-minimality floor; index 0 is
/// 0 so one-byte values always pass with the same single compare).
constexpr uint32_t kGroupMask[4] = {0xffu, 0xffffu, 0xffffffu, 0xffffffffu};
constexpr uint32_t kGroupMin[4] = {0u, 1u << 8, 1u << 16, 1u << 24};

/// Per-tag payload geometry, precomputed for all 256 tags so the four
/// value offsets come from one table row instead of a serial p += len
/// chain — the four payload loads become independent.
struct GroupLayout {
  uint8_t off[4];  // payload byte offset of each value
  uint8_t total;   // total payload bytes (4..16)
};

constexpr std::array<GroupLayout, 256> MakeGroupLayouts() {
  std::array<GroupLayout, 256> table{};
  for (int tag = 0; tag < 256; ++tag) {
    uint8_t off = 0;
    for (int i = 0; i < 4; ++i) {
      table[static_cast<size_t>(tag)].off[i] = off;
      off = static_cast<uint8_t>(off + ((tag >> (2 * i)) & 0x3) + 1);
    }
    table[static_cast<size_t>(tag)].total = off;
  }
  return table;
}

constexpr std::array<GroupLayout, 256> kGroupLayouts = MakeGroupLayouts();

/// Inverse of EncodeGroup; rejects truncation and non-minimal lengths.
/// Raw-pointer interface: the stream loop hoists the vector's data/size
/// once so the per-group work stays in registers.
bool TryDecodeGroup(const uint8_t* data, size_t size, size_t& offset,
                    uint32_t values[4]) {
  if (offset >= size) return false;  // missing tag byte
  const uint8_t tag = data[offset];
  const size_t at = offset + 1;
  const uint8_t* p = data + at;
  if (tag == 0) {
    // All four values one byte — by far the hottest tag on delta streams
    // (any run of nearby doc ids, almost every freq), and trivially
    // canonical, so it skips the layout and floor tables entirely.
    if (size - at < 4) return false;  // truncated payload
    values[0] = p[0];
    values[1] = p[1];
    values[2] = p[2];
    values[3] = p[3];
    offset = at + 4;
    return true;
  }
  const GroupLayout& layout = kGroupLayouts[tag];
  const size_t total = layout.total;
  if (size - offset - 1 < total) return false;  // truncated payload
  if (size - at >= total + 3) {
    // Hot path: three bytes of slack past the payload let every value be
    // one unaligned 4-byte little-endian load (the compiler folds the
    // byte gather) masked down to its declared length.
    for (int i = 0; i < 4; ++i) {
      const size_t len = ((tag >> (2 * i)) & 0x3) + 1;
      const uint8_t* q = p + layout.off[i];
      const uint32_t wide = static_cast<uint32_t>(q[0]) |
                            static_cast<uint32_t>(q[1]) << 8 |
                            static_cast<uint32_t>(q[2]) << 16 |
                            static_cast<uint32_t>(q[3]) << 24;
      const uint32_t v = wide & kGroupMask[len - 1];
      if (v < kGroupMin[len - 1]) return false;  // non-minimal length
      values[i] = v;
    }
  } else {
    // Within four bytes of the end of the stream: per-byte assembly.
    for (int i = 0; i < 4; ++i) {
      const size_t len = ((tag >> (2 * i)) & 0x3) + 1;
      const uint8_t* q = p + layout.off[i];
      uint32_t v = 0;
      for (size_t b = 0; b < len; ++b) {
        v |= static_cast<uint32_t>(q[b]) << (8 * b);
      }
      if (v < kGroupMin[len - 1]) return false;  // non-minimal length
      values[i] = v;
    }
  }
  offset = at + total;
  return true;
}

/// Encodes `count` values: groups of four, then a scalar-varbyte tail.
void EncodeStream(const uint32_t* values, size_t count,
                  std::vector<uint8_t>& out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) EncodeGroup(values + i, out);
  for (; i < count; ++i) AppendVarByte(values[i], out);
}

/// Minimal varbyte length of `value` (1..5), as AppendVarByte writes it.
size_t VarByteLen(uint32_t value) {
  size_t len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

bool TryDecodeStream(const std::vector<uint8_t>& bytes, size_t& offset,
                     size_t count, uint32_t* values) {
  const uint8_t* data = bytes.data();
  const size_t size = bytes.size();
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    if (!TryDecodeGroup(data, size, offset, values + i)) return false;
  }
  for (; i < count; ++i) {
    const size_t at = offset;
    if (!TryReadVarByte(bytes, offset, values[i])) return false;
    // Canonical tail: the value must occupy its minimal varbyte length
    // (groups enforce the same via the tag check), so every accepted block
    // re-encodes byte-identically — the fuzz harness's fixed-point oracle.
    if (offset - at != VarByteLen(values[i])) return false;
  }
  return true;
}

/// The doc stream: the first id, then deltas that must be >= 1 — ids
/// strictly ascend — and whose running sum must fit uint32. Inlined, so
/// TryDecodeBlock (the iterators' per-block decode) stays one body.
[[gnu::always_inline]] inline bool TryDecodeDocStream(
    const std::vector<uint8_t>& bytes, size_t& offset, size_t count,
    uint32_t* docs) {
  if (!TryDecodeStream(bytes, offset, count, docs)) return false;
  uint64_t doc = docs[0];
  for (size_t i = 1; i < count; ++i) {
    if (docs[i] == 0) return false;
    doc += docs[i];
    if (doc > UINT32_MAX) return false;
    docs[i] = static_cast<uint32_t>(doc);
  }
  return true;
}

/// The freq stream: `count` values, each >= 1.
[[gnu::always_inline]] inline bool TryDecodeFreqStream(
    const std::vector<uint8_t>& bytes, size_t& offset, size_t count,
    uint32_t* freqs) {
  if (!TryDecodeStream(bytes, offset, count, freqs)) return false;
  for (size_t i = 0; i < count; ++i) {
    if (freqs[i] == 0) return false;
  }
  return true;
}

}  // namespace

void EncodeBlock(std::span<const Posting> postings,
                 std::vector<uint8_t>& out) {
  ASUP_CHECK(!postings.empty());
  ASUP_CHECK_LE(postings.size(), kMaxBlockPostings);
  uint32_t values[kMaxBlockPostings];
  values[0] = postings[0].local_doc;
  for (size_t i = 1; i < postings.size(); ++i) {
    ASUP_DCHECK_LT(postings[i - 1].local_doc, postings[i].local_doc);
    values[i] = postings[i].local_doc - postings[i - 1].local_doc;
  }
  EncodeStream(values, postings.size(), out);
  for (size_t i = 0; i < postings.size(); ++i) {
    ASUP_DCHECK(postings[i].freq >= 1);
    values[i] = postings[i].freq;
  }
  EncodeStream(values, postings.size(), out);
}

bool TryDecodeBlock(const std::vector<uint8_t>& bytes, size_t& offset,
                    size_t count, DecodedBlock& block) {
  if (count == 0 || count > kMaxBlockPostings) return false;
  if (!TryDecodeDocStream(bytes, offset, count, block.docs)) return false;
  if (!TryDecodeFreqStream(bytes, offset, count, block.freqs)) return false;
  block.count = count;
  return true;
}

void DecodeBlock(const std::vector<uint8_t>& bytes, size_t& offset,
                 size_t count, DecodedBlock& block) {
  if (!TryDecodeBlock(bytes, offset, count, block)) {
    CodecFailure("block", "truncated or malformed block", offset);
  }
}

void DecodeDocs(const std::vector<uint8_t>& bytes, size_t& offset,
                size_t count, uint32_t* docs) {
  if (count == 0 || count > kMaxBlockPostings ||
      !TryDecodeDocStream(bytes, offset, count, docs)) {
    CodecFailure("doc stream", "truncated or malformed stream", offset);
  }
}

void DecodeFreqs(const std::vector<uint8_t>& bytes, size_t offset,
                 size_t count, uint32_t* freqs) {
  if (count == 0 || count > kMaxBlockPostings ||
      !TryDecodeFreqStream(bytes, offset, count, freqs)) {
    CodecFailure("freq stream", "truncated or malformed stream", offset);
  }
}

}  // namespace blockcodec
}  // namespace asup
