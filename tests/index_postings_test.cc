#include "asup/index/postings.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "asup/util/random.h"

namespace asup {
namespace {

TEST(VarByteTest, RoundTripsValues) {
  std::vector<uint8_t> bytes;
  const std::vector<uint32_t> values{0,      1,      127,        128,
                                     16383,  16384,  2097151,    2097152,
                                     268435455, 268435456, UINT32_MAX};
  for (uint32_t v : values) AppendVarByte(v, bytes);
  size_t offset = 0;
  for (uint32_t v : values) {
    EXPECT_EQ(ReadVarByte(bytes, offset), v);
  }
  EXPECT_EQ(offset, bytes.size());
}

TEST(VarByteTest, SmallValuesUseOneByte) {
  std::vector<uint8_t> bytes;
  AppendVarByte(127, bytes);
  EXPECT_EQ(bytes.size(), 1u);
  AppendVarByte(128, bytes);
  EXPECT_EQ(bytes.size(), 3u);
}

TEST(VarByteTest, TryReadRejectsTruncatedInput) {
  // Every proper prefix of an encoded value is truncated: the continuation
  // bit of the last present byte promises more bytes than exist.
  for (uint32_t v : {128u, 16384u, 2097152u, 268435456u, UINT32_MAX}) {
    std::vector<uint8_t> bytes;
    AppendVarByte(v, bytes);
    ASSERT_GE(bytes.size(), 2u);
    for (size_t cut = 1; cut < bytes.size(); ++cut) {
      std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
      size_t offset = 0;
      uint32_t value = 0;
      EXPECT_FALSE(TryReadVarByte(truncated, offset, value))
          << "value " << v << " cut to " << cut << " bytes";
      // The failed read never walked past the end of the buffer.
      EXPECT_LE(offset, truncated.size());
    }
  }
}

TEST(VarByteTest, TryReadRejectsEmptyInput) {
  std::vector<uint8_t> empty;
  size_t offset = 0;
  uint32_t value = 0;
  EXPECT_FALSE(TryReadVarByte(empty, offset, value));
  EXPECT_EQ(offset, 0u);
}

TEST(VarByteTest, TryReadRejectsOverlongEncodings) {
  // Six continuation bytes: the fifth byte must terminate a uint32 varint.
  std::vector<uint8_t> overlong(6, 0x80);
  size_t offset = 0;
  uint32_t value = 0;
  EXPECT_FALSE(TryReadVarByte(overlong, offset, value));

  // Exactly five bytes, but the fifth both continues and would shift data
  // past bit 31 — two independent reasons to reject.
  std::vector<uint8_t> continued{0x80, 0x80, 0x80, 0x80, 0x80, 0x00};
  offset = 0;
  EXPECT_FALSE(TryReadVarByte(continued, offset, value));

  // Five terminated bytes whose top nibble overflows uint32 (would encode
  // 2^35). A naive decoder shifts by 35 — UB — before noticing.
  std::vector<uint8_t> overflow{0x80, 0x80, 0x80, 0x80, 0x10};
  offset = 0;
  EXPECT_FALSE(TryReadVarByte(overflow, offset, value));
}

TEST(VarByteTest, TryReadAcceptsMaxValueAtShiftBoundary) {
  // UINT32_MAX uses all five bytes with the top nibble 0x0f — the largest
  // encoding the shift cap must still admit.
  std::vector<uint8_t> bytes;
  AppendVarByte(UINT32_MAX, bytes);
  ASSERT_EQ(bytes.size(), 5u);
  size_t offset = 0;
  uint32_t value = 0;
  ASSERT_TRUE(TryReadVarByte(bytes, offset, value));
  EXPECT_EQ(value, UINT32_MAX);
  EXPECT_EQ(offset, bytes.size());
}

TEST(VarByteTest, TryReadLeavesOffsetAtOffendingByteOnFailure) {
  std::vector<uint8_t> bytes;
  AppendVarByte(7, bytes);       // one clean value...
  bytes.push_back(0x80);         // ...then a truncated varint
  size_t offset = 0;
  uint32_t value = 0;
  ASSERT_TRUE(TryReadVarByte(bytes, offset, value));
  EXPECT_EQ(value, 7u);
  const size_t before_failure = offset;
  EXPECT_FALSE(TryReadVarByte(bytes, offset, value));
  EXPECT_GE(offset, before_failure);
  EXPECT_LE(offset, bytes.size());
}

TEST(VarByteDeathTest, ReadAbortsOnTruncatedInputInEveryBuildType) {
  // The headline bugfix: ReadVarByte on untrusted bytes must abort — not
  // read out of bounds — even in a plain Release build where assert() and
  // ASUP_CHECK compile out.
  std::vector<uint8_t> truncated{0x80, 0x80};
  size_t offset = 0;
  EXPECT_DEATH(ReadVarByte(truncated, offset), "varbyte");
}

TEST(VarByteDeathTest, ReadAbortsOnOverlongInput) {
  std::vector<uint8_t> overlong{0xff, 0xff, 0xff, 0xff, 0xff, 0x01};
  size_t offset = 0;
  EXPECT_DEATH(ReadVarByte(overlong, offset), "varbyte");
}

TEST(PostingListTest, EmptyList) {
  PostingList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_FALSE(list.begin().Valid());
  EXPECT_TRUE(list.Decode().empty());
}

TEST(PostingListTest, BuildAndDecode) {
  PostingList::Builder builder;
  builder.Add(3, 2);
  builder.Add(7, 1);
  builder.Add(1000000, 9);
  PostingList list = std::move(builder).Build();
  EXPECT_EQ(list.size(), 3u);
  const auto postings = list.Decode();
  ASSERT_EQ(postings.size(), 3u);
  EXPECT_EQ(postings[0], (Posting{3, 2}));
  EXPECT_EQ(postings[1], (Posting{7, 1}));
  EXPECT_EQ(postings[2], (Posting{1000000, 9}));
}

TEST(PostingListTest, IteratorWalk) {
  PostingList::Builder builder;
  for (uint32_t d = 0; d < 50; ++d) builder.Add(d * 3, d + 1);
  PostingList list = std::move(builder).Build();
  uint32_t expected = 0;
  for (auto it = list.begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.Get().local_doc, expected * 3);
    EXPECT_EQ(it.Get().freq, expected + 1);
    ++expected;
  }
  EXPECT_EQ(expected, 50u);
}

TEST(PostingListTest, SkipToLandsOnOrAfterTarget) {
  PostingList::Builder builder;
  for (uint32_t d = 0; d < 100; d += 10) builder.Add(d, 1);
  PostingList list = std::move(builder).Build();
  auto it = list.begin();
  it.SkipTo(35);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Get().local_doc, 40u);
  it.SkipTo(40);
  EXPECT_EQ(it.Get().local_doc, 40u);  // SkipTo is a no-op when satisfied
  it.SkipTo(95);
  EXPECT_FALSE(it.Valid());
}

TEST(PostingListTest, FirstDocCanBeZero) {
  PostingList::Builder builder;
  builder.Add(0, 5);
  PostingList list = std::move(builder).Build();
  auto it = list.begin();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Get().local_doc, 0u);
  EXPECT_EQ(it.Get().freq, 5u);
}

TEST(PostingListTest, CompressionIsCompactForDenseLists) {
  PostingList::Builder builder;
  for (uint32_t d = 0; d < 10000; ++d) builder.Add(d, 1);
  PostingList list = std::move(builder).Build();
  // Group-varint: 5 bytes per 4 one-byte values (tag + payload) in each of
  // the doc and freq streams, i.e. ~2.5 bytes per posting, plus 12 bytes
  // of skip entry per 128-posting block — the tag-byte density cost the
  // 4-at-a-time decode buys (DESIGN.md §17).
  EXPECT_LE(list.ByteSize(), 27000u);
}

TEST(PostingListTest, SkipEntriesPerBlock) {
  PostingList::Builder builder;
  const uint32_t n = PostingList::kPostingBlock * 3 + 10;
  for (uint32_t d = 0; d < n; ++d) builder.Add(d * 2, 1);
  PostingList list = std::move(builder).Build();
  EXPECT_EQ(list.NumSkipEntries(), 4u);  // one per block, first included
}

TEST(PostingListTest, ByteSizeCountsExactEncodedSkipBytes) {
  // Regression: ByteSize() must charge each skip entry its exact encoded
  // footprint (three 32-bit fields), not sizeof(SkipEntry) — struct
  // padding or layout changes must never leak into the reported format
  // cost (IndexStats::posting_bytes feeds fig15-style tables).
  static_assert(PostingList::kSkipEntryEncodedBytes == 12);
  PostingList::Builder builder;
  const uint32_t n = PostingList::kPostingBlock * 2 + 7;  // 3 blocks
  for (uint32_t d = 0; d < n; ++d) builder.Add(d * 3, 2);
  PostingList list = std::move(builder).Build();
  EXPECT_EQ(list.NumSkipEntries(), 3u);
  EXPECT_EQ(list.ByteSize(),
            list.PayloadBytes() +
                list.NumSkipEntries() * PostingList::kSkipEntryEncodedBytes);
}

TEST(PostingListTest, SkipToJumpsAcrossBlocks) {
  PostingList::Builder builder;
  const uint32_t n = PostingList::kPostingBlock * 8;
  for (uint32_t d = 0; d < n; ++d) builder.Add(d * 5, d % 9 + 1);
  PostingList list = std::move(builder).Build();

  auto it = list.begin();
  it.SkipTo(5 * (PostingList::kPostingBlock * 5 + 17));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Get().local_doc, 5 * (PostingList::kPostingBlock * 5 + 17));
  EXPECT_EQ(it.Get().freq, (PostingList::kPostingBlock * 5 + 17) % 9 + 1);
  // The jump went via the skip table, not a full scan.
  EXPECT_EQ(it.index(), PostingList::kPostingBlock * 5 + 17);
}

TEST(PostingListTest, SkipToNeverMovesBackward) {
  PostingList::Builder builder;
  for (uint32_t d = 0; d < 1000; ++d) builder.Add(d * 3, 1);
  PostingList list = std::move(builder).Build();
  auto it = list.begin();
  it.SkipTo(2400);
  const size_t index_after = it.index();
  it.SkipTo(100);  // earlier target: no-op
  EXPECT_EQ(it.index(), index_after);
  EXPECT_EQ(it.Get().local_doc, 2400u);
}

TEST(PostingListTest, SkipToAgainstLinearScanRandomized) {
  Rng rng(321);
  for (int round = 0; round < 10; ++round) {
    PostingList::Builder builder;
    std::vector<Posting> reference;
    uint32_t doc = 0;
    const size_t n = 200 + rng.UniformBelow(800);
    for (size_t i = 0; i < n; ++i) {
      doc += 1 + static_cast<uint32_t>(rng.UniformBelow(20));
      builder.Add(doc, 1 + static_cast<uint32_t>(rng.UniformBelow(5)));
      reference.push_back({doc, 0});
    }
    PostingList list = std::move(builder).Build();
    for (int probe = 0; probe < 50; ++probe) {
      const uint32_t target =
          static_cast<uint32_t>(rng.UniformBelow(doc + 10));
      auto it = list.begin();
      it.SkipTo(target);
      // Reference answer via binary search over the decoded ids.
      auto ref = std::lower_bound(
          reference.begin(), reference.end(), target,
          [](const Posting& p, uint32_t t) { return p.local_doc < t; });
      if (ref == reference.end()) {
        EXPECT_FALSE(it.Valid());
      } else {
        ASSERT_TRUE(it.Valid());
        EXPECT_EQ(it.Get().local_doc, ref->local_doc);
      }
    }
  }
}

// A list of `n` postings whose doc ids step by 1 + [0, max_gap) and by 9
// more across each block boundary, with random freqs; `reference` gets
// the same postings.
PostingList GappedList(size_t n, uint32_t max_gap, uint64_t seed,
                       std::vector<Posting>& reference) {
  Rng rng(seed);
  PostingList::Builder builder;
  uint32_t doc = 2;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) doc += 1 + static_cast<uint32_t>(rng.UniformBelow(max_gap));
    if (i > 0 && i % PostingList::kPostingBlock == 0) doc += 9;
    const uint32_t freq = 1 + static_cast<uint32_t>(rng.UniformBelow(7));
    builder.Add(doc, freq);
    reference.push_back({doc, freq});
  }
  return std::move(builder).Build();
}

// From each posting index in `starts`, SkipTo every target from 0 to two
// past the last doc must land on the first posting at or after it (or
// exhaust), and the iterator must keep walking from there.
void ExpectSkipToFromEveryStart(const PostingList& list,
                                const std::vector<Posting>& reference,
                                const std::vector<size_t>& starts) {
  const size_t n = reference.size();
  const uint32_t last = reference.back().local_doc;
  auto at_start = list.begin();
  for (const size_t start : starts) {
    while (at_start.index() < start) at_start.Next();
    ASSERT_EQ(at_start.index(), start);
    size_t expected = start;
    for (uint32_t target = 0; target <= last + 2; ++target) {
      while (expected < n && reference[expected].local_doc < target) {
        ++expected;
      }
      auto it = at_start;
      it.SkipTo(target);
      if (expected == n) {
        ASSERT_FALSE(it.Valid()) << "start " << start << " target " << target;
        continue;
      }
      ASSERT_TRUE(it.Valid()) << "start " << start << " target " << target;
      ASSERT_EQ(it.index(), expected)
          << "start " << start << " target " << target;
      ASSERT_EQ(it.Get(), reference[expected]);
      // The iterator keeps walking from where SkipTo left it.
      it.Next();
      if (expected + 1 < n) {
        ASSERT_TRUE(it.Valid());
        ASSERT_EQ(it.Get(), reference[expected + 1]);
      } else {
        ASSERT_FALSE(it.Valid());
      }
    }
  }
}

// Every start position x every target over a three-block list (the last
// block partial) whose docs have gaps of 1–4 and a wider gap before each
// block's first doc: SkipTo lands on the first posting at or after the
// start whose doc is >= target, in the block, at the next block's first
// posting (a target equal to, or in the gap before, that doc) and past it.
TEST(PostingListTest, SkipToExhaustiveOverThreeBlocksWithGaps) {
  std::vector<Posting> reference;
  const PostingList list =
      GappedList(2 * PostingList::kPostingBlock + 50, 4, 7, reference);
  ASSERT_EQ(list.NumSkipEntries(), 3u);
  std::vector<size_t> starts(reference.size());
  for (size_t i = 0; i < starts.size(); ++i) starts[i] = i;
  ExpectSkipToFromEveryStart(list, reference, starts);
}

// The block jump gallops over the skip table from the current block: over
// 66 blocks (the last one partial) a jump crosses several doublings, lands
// in each gap they leave, and runs off the table's end. Every posting of
// the first two, a middle and the last two blocks is a start, and so is
// every block's first and last posting.
TEST(PostingListTest, SkipToExhaustiveOverSixtySixBlocks) {
  constexpr size_t kB = PostingList::kPostingBlock;
  std::vector<Posting> reference;
  const PostingList list = GappedList(65 * kB + 37, 2, 11, reference);
  ASSERT_EQ(list.NumSkipEntries(), 66u);
  std::vector<size_t> starts;
  for (const size_t block : {size_t{0}, size_t{1}, size_t{33}, size_t{64},
                             size_t{65}}) {
    for (size_t i = block * kB; i < std::min((block + 1) * kB,
                                             reference.size());
         ++i) {
      starts.push_back(i);
    }
  }
  for (size_t block = 0; block < 66; ++block) {
    starts.push_back(block * kB);
    starts.push_back(std::min((block + 1) * kB, reference.size()) - 1);
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  ExpectSkipToFromEveryStart(list, reference, starts);
}

TEST(PostingListTest, InterleavedSkipAndNext) {
  PostingList::Builder builder;
  for (uint32_t d = 0; d < 600; ++d) builder.Add(d * 2, 1);
  PostingList list = std::move(builder).Build();
  auto it = list.begin();
  it.SkipTo(300);  // doc 300 = posting 150 (block 2)
  EXPECT_EQ(it.Get().local_doc, 300u);
  it.Next();
  EXPECT_EQ(it.Get().local_doc, 302u);
  it.SkipTo(1000);
  EXPECT_EQ(it.Get().local_doc, 1000u);
  it.Next();
  EXPECT_EQ(it.Get().local_doc, 1002u);
}

TEST(PostingListTest, RandomRoundTrip) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    std::vector<Posting> reference;
    uint32_t doc = 0;
    const size_t n = 1 + rng.UniformBelow(500);
    PostingList::Builder builder;
    for (size_t i = 0; i < n; ++i) {
      doc += 1 + static_cast<uint32_t>(rng.UniformBelow(1000));
      const uint32_t freq = 1 + static_cast<uint32_t>(rng.UniformBelow(30));
      builder.Add(doc, freq);
      reference.push_back({doc, freq});
    }
    PostingList list = std::move(builder).Build();
    EXPECT_EQ(list.Decode(), reference);
  }
}

// A list is dense exactly when kDenseRatio × size() >= last doc + 1.
TEST(PostingListDenseTest, DensityRuleAtTheBoundary) {
  const auto build = [](size_t count, uint32_t last) {
    PostingList::Builder builder;
    for (size_t i = 0; i + 1 < count; ++i) {
      builder.Add(static_cast<uint32_t>(i), 1);
    }
    builder.Add(last, 1);
    return std::move(builder).Build();
  };
  static_assert(PostingList::kDenseRatio == 8);
  EXPECT_TRUE(build(1, 0).dense());
  EXPECT_TRUE(build(1, 7).dense());
  EXPECT_FALSE(build(1, 8).dense());
  EXPECT_TRUE(build(300, 2399).dense());
  EXPECT_FALSE(build(300, 2400).dense());
  EXPECT_FALSE(PostingList().dense());
}

// Contains/Rank over every id up to past the last doc, and RankedFreqs
// over every posting, against the list's own postings; the encoded bytes
// are those of its blocks alone, as for a sparse list.
void ExpectMembershipMatchesPostings(const PostingList& list,
                                     const std::vector<Posting>& reference) {
  ASSERT_TRUE(list.dense());
  const PostingList::Membership membership = list.membership();
  const uint32_t last = reference.back().local_doc;
  size_t rank = 0;
  for (uint32_t local = 0; local <= last + 130; ++local) {
    const bool listed =
        rank < reference.size() && reference[rank].local_doc == local;
    ASSERT_EQ(membership.Contains(local), listed) << "local " << local;
    ASSERT_EQ(membership.Rank(local), rank) << "local " << local;
    if (listed) ++rank;
  }
  ASSERT_EQ(rank, reference.size());

  PostingList::RankedFreqs ascending(&list);
  for (const Posting& posting : reference) {
    ASSERT_EQ(ascending.FreqOf(posting.local_doc), posting.freq);
  }
  // Any order reads the right frequency; it only decodes more blocks.
  PostingList::RankedFreqs descending(&list);
  for (auto it = reference.rbegin(); it != reference.rend(); ++it) {
    ASSERT_EQ(descending.FreqOf(it->local_doc), it->freq);
  }

  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < reference.size(); i += PostingList::kPostingBlock) {
    const size_t end =
        std::min(i + PostingList::kPostingBlock, reference.size());
    blockcodec::EncodeBlock(
        std::span<const Posting>(reference.data() + i, end - i), bytes);
  }
  EXPECT_EQ(list.PayloadBytes(), bytes.size());
  EXPECT_EQ(list.Decode(), reference);
}

TEST(PostingListDenseTest, MembershipRankAndFreqsMatchThePostings) {
  Rng rng(5);
  // Last docs on either side of a word boundary (63 and 64 mod 64), and
  // sizes with a full and a partial last block.
  for (const uint32_t last : {63u, 64u, 1023u, 1024u, 4159u, 4160u}) {
    for (const double density : {0.13, 0.5, 1.0}) {
      std::vector<Posting> reference;
      PostingList::Builder builder;
      for (uint32_t local = 0; local < last; ++local) {
        if (!rng.Bernoulli(density)) continue;
        const uint32_t freq = 1 + static_cast<uint32_t>(rng.UniformBelow(300));
        builder.Add(local, freq);
        reference.push_back({local, freq});
      }
      builder.Add(last, 2);
      reference.push_back({last, 2});
      const PostingList list = std::move(builder).Build();
      SCOPED_TRACE(testing::Message() << "last " << last << ", "
                                      << reference.size() << " postings");
      if (PostingList::kDenseRatio * reference.size() < last + 1u) {
        EXPECT_FALSE(list.dense());
        continue;
      }
      ExpectMembershipMatchesPostings(list, reference);
    }
  }
}

}  // namespace
}  // namespace asup
