#ifndef ASUP_INDEX_BLOCK_CODEC_H_
#define ASUP_INDEX_BLOCK_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// The posting-block codec: the only translation unit that touches raw
/// posting payload bytes (asup_lint enforces this — rule
/// `asup-posting-varbyte`). Everything above it moves whole blocks.
///
/// Block layout (one block = up to kMaxBlockPostings postings):
///
///   doc stream   value[0] = absolute first local doc id,
///                value[i>0] = delta to the previous doc id (>= 1)
///   freq stream  one frequency per posting (>= 1)
///
/// Each stream encodes its values in *groups of four* with a group-varint
/// scheme (one tag byte, two bits per value giving its little-endian byte
/// length 1..4, then the payload bytes), falling back to scalar LEB128
/// variable-byte for the up-to-three tail values. Group-varint trades a
/// few bits of density for branch-free-ish 4-at-a-time decode — the qint
/// idea from block-based inverted indexes.
///
/// Both encoders are canonical (minimal byte lengths only), and both
/// Try-decoders reject non-canonical input, so decode-then-re-encode of a
/// valid block is the byte-identical fixed point the fuzz harness checks.

namespace asup {

/// One posting: a document (as a dense per-index local id, which preserves
/// document-id order) and the term's in-document frequency.
struct Posting {
  uint32_t local_doc;
  uint32_t freq;

  friend bool operator==(const Posting& a, const Posting& b) {
    return a.local_doc == b.local_doc && a.freq == b.freq;
  }
};

/// Appends `value` to `out` in LEB128-style variable-byte encoding.
void AppendVarByte(uint32_t value, std::vector<uint8_t>& out);

/// Decodes one variable-byte integer starting at `offset`. Returns false —
/// without ever reading past `bytes.size()` — when the input is truncated
/// (a continuation byte at the end of `bytes`) or overlong (a fifth payload
/// byte carrying bits beyond 32, or any sixth byte), which AppendVarByte
/// never produces. On success stores the value, advances `offset` past the
/// encoding, and returns true; on failure `offset` is left at the
/// offending byte.
bool TryReadVarByte(const std::vector<uint8_t>& bytes, size_t& offset,
                    uint32_t& value);

/// Decodes one variable-byte integer starting at `offset`, advancing it.
/// Aborts (in every build type, including plain Release) on truncated or
/// overlong input: posting bytes are produced in-process by
/// PostingList::Builder, so a malformed byte stream is memory corruption,
/// not a recoverable condition. Use TryReadVarByte for untrusted bytes.
uint32_t ReadVarByte(const std::vector<uint8_t>& bytes, size_t& offset);

namespace blockcodec {

/// Maximum postings per encoded block (PostingList::kPostingBlock aliases
/// this).
constexpr size_t kMaxBlockPostings = 128;

/// One decoded block: absolute local doc ids (strictly ascending) and the
/// paired frequencies. Plain arrays so iterators can hold a buffer with no
/// allocation and copy it trivially.
struct DecodedBlock {
  uint32_t docs[kMaxBlockPostings];
  uint32_t freqs[kMaxBlockPostings];
  size_t count = 0;
};

/// Encodes `postings` (1..kMaxBlockPostings entries, strictly ascending
/// local doc ids, every freq >= 1) as one block appended to `out`.
void EncodeBlock(std::span<const Posting> postings, std::vector<uint8_t>& out);

/// Bounds-checked decode of one `count`-posting block starting at
/// `offset`. Returns false — never reading past `bytes.size()` — on any
/// malformed input: count outside [1, kMaxBlockPostings], truncated
/// streams, non-canonical (overlong) value encodings, a zero doc delta, a
/// doc id overflowing uint32, or a zero frequency. On success fills
/// `block`, advances `offset` past the block, and returns true; on failure
/// `offset` is left where decoding stopped and `block` is unspecified.
bool TryDecodeBlock(const std::vector<uint8_t>& bytes, size_t& offset,
                    size_t count, DecodedBlock& block);

/// Trusted decode of one `count`-posting block, advancing `offset`. Aborts
/// (in every build type) on malformed input — builder-produced blocks are
/// the only trusted source, so corruption is not recoverable. Use
/// TryDecodeBlock for untrusted bytes.
void DecodeBlock(const std::vector<uint8_t>& bytes, size_t& offset,
                 size_t count, DecodedBlock& block);

/// Trusted decode of one `count`-posting block's doc stream alone, from
/// the block's start at `offset`, into absolute doc ids; leaves `offset`
/// at the block's freq stream. Aborts (in every build type) on malformed
/// input, as DecodeBlock does.
void DecodeDocs(const std::vector<uint8_t>& bytes, size_t& offset,
                size_t count, uint32_t* docs);

/// Trusted decode of one `count`-posting block's freq stream alone, which
/// starts at `offset` (where DecodeDocs left it), into `freqs`. Aborts (in
/// every build type) on malformed input.
void DecodeFreqs(const std::vector<uint8_t>& bytes, size_t offset,
                 size_t count, uint32_t* freqs);

}  // namespace blockcodec
}  // namespace asup

#endif  // ASUP_INDEX_BLOCK_CODEC_H_
