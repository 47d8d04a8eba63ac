#include "asup/index/block_codec.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "asup/index/postings.h"
#include "asup/util/random.h"

namespace asup {
namespace blockcodec {
namespace {

constexpr size_t kB = kMaxBlockPostings;

// Postings with mixed delta and frequency widths: small steps, 2-4 byte
// jumps, freqs from 1 up through multi-byte values.
std::vector<Posting> MakePostings(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Posting> postings;
  uint32_t doc = static_cast<uint32_t>(rng.UniformBelow(1000));
  for (size_t i = 0; i < count; ++i) {
    postings.push_back(
        {doc, 1 + static_cast<uint32_t>(rng.UniformBelow(70000))});
    const size_t width = rng.UniformBelow(4);
    doc += 1 +
           static_cast<uint32_t>(rng.UniformBelow(1u << (2 + 7 * width)));
  }
  return postings;
}

void ExpectRoundTrip(const std::vector<Posting>& postings) {
  std::vector<uint8_t> bytes;
  EncodeBlock(postings, bytes);
  size_t offset = 0;
  DecodedBlock block;
  ASSERT_TRUE(TryDecodeBlock(bytes, offset, postings.size(), block));
  EXPECT_EQ(offset, bytes.size());
  ASSERT_EQ(block.count, postings.size());
  for (size_t i = 0; i < postings.size(); ++i) {
    EXPECT_EQ(block.docs[i], postings[i].local_doc) << i;
    EXPECT_EQ(block.freqs[i], postings[i].freq) << i;
  }
}

TEST(BlockCodecTest, RoundTripsAtEveryBoundarySize) {
  for (const size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                             size_t{5}, kB - 1, kB}) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      SCOPED_TRACE(count);
      ExpectRoundTrip(MakePostings(count, 31 * count + seed));
    }
  }
}

TEST(BlockCodecTest, DecodeStartsAtArbitraryOffset) {
  const std::vector<Posting> postings = MakePostings(10, 99);
  std::vector<uint8_t> bytes{0xde, 0xad, 0xbe};  // unrelated prefix
  EncodeBlock(postings, bytes);
  size_t offset = 3;
  DecodedBlock block;
  ASSERT_TRUE(TryDecodeBlock(bytes, offset, postings.size(), block));
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(block.docs[9], postings[9].local_doc);
}

// Decode-then-re-encode is byte-identical: the format admits exactly one
// encoding per posting sequence (minimal group lengths, minimal tail
// varbytes), which is what lets the fuzz harness use re-encoding as its
// oracle.
TEST(BlockCodecTest, DecodeReencodeIsAFixedPoint) {
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const size_t count = 1 + seed % kB;
    const std::vector<Posting> postings = MakePostings(count, 7000 + seed);
    std::vector<uint8_t> bytes;
    EncodeBlock(postings, bytes);
    size_t offset = 0;
    DecodedBlock block;
    ASSERT_TRUE(TryDecodeBlock(bytes, offset, count, block));
    std::vector<Posting> decoded;
    for (size_t i = 0; i < block.count; ++i) {
      decoded.push_back({block.docs[i], block.freqs[i]});
    }
    std::vector<uint8_t> again;
    EncodeBlock(decoded, again);
    EXPECT_EQ(again, bytes) << "seed " << seed;
  }
}

TEST(BlockCodecTest, EveryTruncationIsRejected) {
  // Counts on both sides of the group/tail boundary: 8 decodes purely via
  // groups, 7 and 3 exercise the scalar tail, 1 is tail-only.
  for (const size_t count : {size_t{1}, size_t{3}, size_t{7}, size_t{8}}) {
    const std::vector<Posting> postings = MakePostings(count, 500 + count);
    std::vector<uint8_t> bytes;
    EncodeBlock(postings, bytes);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      size_t offset = 0;
      DecodedBlock block;
      EXPECT_FALSE(TryDecodeBlock(prefix, offset, count, block))
          << "count " << count << " cut " << cut;
    }
  }
}

TEST(BlockCodecTest, CountOutOfRangeIsRejected) {
  const std::vector<Posting> postings = MakePostings(4, 1);
  std::vector<uint8_t> bytes;
  EncodeBlock(postings, bytes);
  size_t offset = 0;
  DecodedBlock block;
  EXPECT_FALSE(TryDecodeBlock(bytes, offset, 0, block));
  EXPECT_FALSE(TryDecodeBlock(bytes, offset, kB + 1, block));
}

TEST(BlockCodecTest, NonMinimalGroupLengthIsRejected) {
  // Doc stream as one group: tag declares 2 bytes for the first value but
  // encodes 5 — decodable, not canonical.
  const std::vector<uint8_t> padded{0x01, 0x05, 0x00, 0x01, 0x01, 0x01,
                                    // freq stream: group of four 1s
                                    0x00, 0x01, 0x01, 0x01, 0x01};
  size_t offset = 0;
  DecodedBlock block;
  EXPECT_FALSE(TryDecodeBlock(padded, offset, 4, block));

  // The same content minimally encoded decodes fine.
  const std::vector<uint8_t> minimal{0x00, 0x05, 0x01, 0x01, 0x01,
                                     0x00, 0x01, 0x01, 0x01, 0x01};
  offset = 0;
  ASSERT_TRUE(TryDecodeBlock(minimal, offset, 4, block));
  EXPECT_EQ(block.docs[0], 5u);
  EXPECT_EQ(block.docs[3], 8u);
}

TEST(BlockCodecTest, NonMinimalTailVarByteIsRejected) {
  // count 1 takes the scalar-tail path; 0x85 0x00 is value 5 in two bytes.
  const std::vector<uint8_t> padded{0x85, 0x00, 0x01};
  size_t offset = 0;
  DecodedBlock block;
  EXPECT_FALSE(TryDecodeBlock(padded, offset, 1, block));

  const std::vector<uint8_t> minimal{0x05, 0x01};
  offset = 0;
  ASSERT_TRUE(TryDecodeBlock(minimal, offset, 1, block));
  EXPECT_EQ(block.docs[0], 5u);
  EXPECT_EQ(block.freqs[0], 1u);
}

TEST(BlockCodecTest, ZeroDeltaIsRejected) {
  // Two postings, tail path: abs doc 5 then delta 0 — ids must strictly
  // ascend.
  const std::vector<uint8_t> bytes{0x05, 0x00, 0x01, 0x01};
  size_t offset = 0;
  DecodedBlock block;
  EXPECT_FALSE(TryDecodeBlock(bytes, offset, 2, block));
}

TEST(BlockCodecTest, ZeroFrequencyIsRejected) {
  const std::vector<uint8_t> bytes{0x05, 0x01, 0x01, 0x00};
  size_t offset = 0;
  DecodedBlock block;
  EXPECT_FALSE(TryDecodeBlock(bytes, offset, 2, block));
}

TEST(BlockCodecTest, DocIdOverflowIsRejected) {
  // abs UINT32_MAX then delta 1 overflows the 32-bit id space.
  std::vector<uint8_t> bytes;
  AppendVarByte(UINT32_MAX, bytes);
  AppendVarByte(1, bytes);
  AppendVarByte(1, bytes);
  AppendVarByte(1, bytes);
  size_t offset = 0;
  DecodedBlock block;
  EXPECT_FALSE(TryDecodeBlock(bytes, offset, 2, block));
}

TEST(BlockCodecTest, GarbageBytesNeverDecode) {
  Rng rng(4242);
  size_t accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> bytes(rng.UniformBelow(64));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformBelow(256));
    const size_t count = 1 + rng.UniformBelow(kB);
    size_t offset = 0;
    DecodedBlock block;
    if (!TryDecodeBlock(bytes, offset, count, block)) continue;
    // Random bytes occasionally form a valid block; when they do, the
    // decode must uphold every invariant.
    ++accepted;
    ASSERT_LE(offset, bytes.size());
    for (size_t i = 1; i < block.count; ++i) {
      ASSERT_LT(block.docs[i - 1], block.docs[i]);
    }
    for (size_t i = 0; i < block.count; ++i) ASSERT_GE(block.freqs[i], 1u);
  }
  // The format is dense enough that some short random inputs parse; this
  // is informational, not load-bearing.
  SUCCEED() << accepted << " random inputs parsed";
}

// PostingList drives the codec across block boundaries; exercise the exact
// sizes where the builder's flush logic changes shape.
TEST(BlockCodecTest, PostingListRoundTripsAcrossBlockBoundaries) {
  for (const size_t count :
       {size_t{0}, size_t{1}, kB - 1, kB, kB + 1, 4 * kB}) {
    const std::vector<Posting> postings = MakePostings(count, 88 + count);
    PostingList::Builder builder;
    for (const Posting& p : postings) builder.Add(p.local_doc, p.freq);
    const PostingList list = std::move(builder).Build();
    EXPECT_EQ(list.size(), count);
    const std::vector<Posting> decoded = list.Decode();
    ASSERT_EQ(decoded.size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(decoded[i].local_doc, postings[i].local_doc);
      EXPECT_EQ(decoded[i].freq, postings[i].freq);
    }
  }
}

// Each stream decodes alone: the doc stream from the block's start, to the
// offset where the freq stream starts, and the freq stream from there, to
// what the whole-block decode gives.
TEST(BlockCodecTest, StreamsDecodeAlone) {
  for (const size_t count : {size_t{1}, size_t{3}, size_t{4}, size_t{5},
                             size_t{64}, size_t{127}, kB}) {
    const std::vector<Posting> postings = MakePostings(count, 40 + count);
    std::vector<uint8_t> bytes = {7, 7};  // a block need not start at 0
    EncodeBlock(postings, bytes);
    size_t offset = 2;
    DecodedBlock block;
    ASSERT_TRUE(TryDecodeBlock(bytes, offset, count, block));
    ASSERT_EQ(offset, bytes.size());
    size_t freq_offset = 2;
    uint32_t docs[kB];
    DecodeDocs(bytes, freq_offset, count, docs);
    ASSERT_LT(freq_offset, bytes.size());
    uint32_t freqs[kB];
    DecodeFreqs(bytes, freq_offset, count, freqs);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(docs[i], postings[i].local_doc) << count << " postings, " << i;
      EXPECT_EQ(freqs[i], postings[i].freq) << count << " postings, " << i;
    }
  }
}

}  // namespace
}  // namespace blockcodec
}  // namespace asup
