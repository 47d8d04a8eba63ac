// Regenerates the checked-in seed corpora under fuzz/corpus/.
//
//   ./build/fuzz/make_seed_corpora <repo>/fuzz/corpus
//
// Seeds matter most for the binary-format harnesses: a coverage-guided
// fuzzer mutating a *valid* snapshot penetrates far past the magic/
// fingerprint checks that reject random bytes immediately. The state-io
// seeds are produced by the exact rig configuration the harness uses
// (fuzz_rig.h), so their embedded fingerprints match at replay time.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asup/engine/query.h"
#include "asup/index/block_codec.h"
#include "asup/index/corpus_io.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/state_io.h"
#include "fuzz_rig.h"

namespace {

namespace fs = std::filesystem;

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", (dir / name).c_str());
    std::exit(1);
  }
}

/// Single- and two-word queries drawn from actual documents, so they match.
std::vector<asup::KeywordQuery> RigQueries(const asup_fuzz::Rig& rig) {
  std::vector<asup::KeywordQuery> queries;
  const auto& docs = rig.corpus.documents();
  for (size_t i = 0; i < docs.size() && queries.size() < 8; i += 11) {
    const auto& terms = docs[i].terms();
    if (terms.empty()) continue;
    queries.push_back(asup::KeywordQuery::FromTerms(rig.corpus.vocabulary(),
                                                    {terms.front().term}));
    if (terms.size() >= 2) {
      queries.push_back(asup::KeywordQuery::FromTerms(
          rig.corpus.vocabulary(), {terms.front().term, terms.back().term}));
    }
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <fuzz/corpus output dir>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);

  // --- fuzz_tokenizer: representative text shapes -------------------------
  const fs::path tokenizer_dir = root / "fuzz_tokenizer";
  WriteSeed(tokenizer_dir, "prose",
            "Aggregate suppression FOR enterprise search engines, "
            "SIGMOD 2012.");
  WriteSeed(tokenizer_dir, "punctuation", "a--b..c//d\\e(f)g[h]i{j}k;l:m!");
  WriteSeed(tokenizer_dir, "digits", "2012 0x1f 3.14159 007 42nd-street");
  WriteSeed(tokenizer_dir, "high_bytes", std::string("caf\xc3\xa9 "
                                                     "na\xc3\xafve \xff\xfe"));
  WriteSeed(tokenizer_dir, "whitespace", " \t\r\n  spaced \t out \n");
  WriteSeed(tokenizer_dir, "repeats", "echo echo ECHO eChO echo");

  // --- fuzz_query: canonicalization-relevant shapes -----------------------
  const fs::path query_dir = root / "fuzz_query";
  WriteSeed(query_dir, "known_words", "enterprise search engine");
  WriteSeed(query_dir, "case_and_dups", "SIGMOD sigmod SiGmOd 2012 2012");
  WriteSeed(query_dir, "unknown_word", "aggregate zzzunknownzzz suppression");
  WriteSeed(query_dir, "letters", "c b a a b c z y x");
  WriteSeed(query_dir, "empty", "");
  WriteSeed(query_dir, "separators_only", "-- .. // !! ??");

  // --- fuzz_corpus_io: valid corpus files + near-valid mutants ------------
  asup_fuzz::Rig rig;
  const fs::path corpus_dir = root / "fuzz_corpus_io";
  {
    asup::SyntheticCorpusConfig small = asup_fuzz::RigCorpusConfig();
    small.vocabulary_size = 60;
    small.num_topics = 2;
    small.words_per_topic = 10;
    asup::SyntheticCorpusGenerator generator(small);
    const asup::Corpus tiny = generator.Generate(12);
    std::ostringstream out;
    if (!asup::SaveCorpus(tiny, out)) return 1;
    const std::string bytes = out.str();
    WriteSeed(corpus_dir, "valid_corpus", bytes);
    WriteSeed(corpus_dir, "truncated", bytes.substr(0, bytes.size() / 2));
    std::string bad_magic = bytes;
    bad_magic[0] ^= 0x20;
    WriteSeed(corpus_dir, "bad_magic", bad_magic);
    std::ostringstream empty_out;
    const asup::Corpus empty = generator.Generate(0);
    if (!asup::SaveCorpus(empty, empty_out)) return 1;
    WriteSeed(corpus_dir, "empty_corpus", empty_out.str());
  }
  {
    // Regression inputs for validation the saver can never produce
    // (mirrors the crafted cases in tests/index_corpus_io_test.cc).
    auto append_var = [](uint32_t value, std::string& out) {
      while (value >= 0x80) {
        out.push_back(static_cast<char>(value | 0x80));
        value >>= 7;
      }
      out.push_back(static_cast<char>(value));
    };
    std::string header = "ASUP";
    header += std::string("\x01\x00\x00\x00", 4);
    append_var(2, header);  // vocab: "aa", "bb"
    append_var(2, header);
    header += "aa";
    append_var(2, header);
    header += "bb";

    std::string duplicate_ids = header;
    append_var(2, duplicate_ids);
    for (int copy = 0; copy < 2; ++copy) {
      append_var(7, duplicate_ids);  // same doc id twice
      append_var(3, duplicate_ids);
      append_var(1, duplicate_ids);
      append_var(0, duplicate_ids);
      append_var(3, duplicate_ids);
    }
    WriteSeed(corpus_dir, "duplicate_doc_ids", duplicate_ids);

    std::string repeated_term = header;
    append_var(1, repeated_term);
    append_var(1, repeated_term);
    append_var(4, repeated_term);
    append_var(2, repeated_term);
    append_var(1, repeated_term);  // term 1
    append_var(2, repeated_term);
    append_var(0, repeated_term);  // zero delta: term 1 again
    append_var(2, repeated_term);
    WriteSeed(corpus_dir, "repeated_term_id", repeated_term);

    std::string huge_count = header;
    append_var(1u << 28, huge_count);  // claims 2^28 docs, provides none
    WriteSeed(corpus_dir, "huge_doc_count", huge_count);

    // Varbyte-decoder regressions (the ReadVarByte hardening): a varint
    // cut mid-continuation, and overlong encodings a canonical encoder
    // never emits — six continuation bytes and a five-byte value whose
    // top nibble overflows uint32. The loader must reject, not read past
    // the buffer or shift past bit 31.
    std::string truncated_varint = header;
    truncated_varint += '\x80';  // doc count promises a next byte that...
    WriteSeed(corpus_dir, "truncated_varint", truncated_varint);

    std::string overlong_varint = header;
    overlong_varint += std::string("\x80\x80\x80\x80\x80\x01", 6);
    WriteSeed(corpus_dir, "overlong_varint", overlong_varint);

    std::string shift_overflow_varint = header;
    shift_overflow_varint += std::string("\x80\x80\x80\x80\x10", 5);
    WriteSeed(corpus_dir, "shift_overflow_varint", shift_overflow_varint);
  }

  // --- fuzz_block_codec: valid blocks + crafted malformed ones ------------
  // Harness input shape: byte 0 selects the posting count, the rest is the
  // candidate block payload (see fuzz_block_codec.cc).
  {
    const fs::path block_dir = root / "fuzz_block_codec";
    auto encode = [](const std::vector<asup::Posting>& postings) {
      std::vector<uint8_t> bytes;
      asup::blockcodec::EncodeBlock(postings, bytes);
      std::string out;
      // count byte 1..128 maps from (count - 1); count <= 128 here.
      out.push_back(static_cast<char>(postings.size() - 1));
      out.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
      return out;
    };

    // Tail-only block (count < 4: pure scalar varbyte path).
    WriteSeed(block_dir, "tail_only",
              encode({{5, 1}, {6, 2}, {300, 9}}));
    // One exact group, no tail.
    WriteSeed(block_dir, "one_group",
              encode({{0, 1}, {1, 1}, {70000, 130}, {70001, 70000}}));
    // Groups plus tail, mixed byte widths.
    {
      std::vector<asup::Posting> postings;
      uint32_t doc = 3;
      for (uint32_t i = 0; i < 11; ++i) {
        postings.push_back({doc, 1 + (i * i) % 1000});
        doc += 1 + (i % 3 == 0 ? 1u << 17 : 2u);
      }
      WriteSeed(block_dir, "groups_and_tail", encode(postings));
    }
    // Full block of kMaxBlockPostings postings.
    {
      std::vector<asup::Posting> postings;
      for (uint32_t i = 0; i < asup::blockcodec::kMaxBlockPostings; ++i) {
        postings.push_back({i * 7, 1 + i % 5});
      }
      WriteSeed(block_dir, "full_block", encode(postings));
    }
    // Malformed mutants: truncation, non-canonical group padding,
    // zero delta, zero freq — the reject paths the Try-variant must take
    // without reading out of bounds.
    {
      const std::string valid = encode({{5, 1}, {6, 2}, {300, 9}, {301, 4}});
      WriteSeed(block_dir, "truncated", valid.substr(0, valid.size() / 2));
      WriteSeed(block_dir, "padded_group",
                std::string("\x03", 1) +
                    std::string("\x01\x05\x00\x01\x01\x01"
                                "\x00\x01\x01\x01\x01",
                                11));
      WriteSeed(block_dir, "zero_delta",
                std::string("\x01\x05\x00\x01\x01", 5));
      WriteSeed(block_dir, "zero_freq",
                std::string("\x01\x05\x01\x01\x00", 5));
      WriteSeed(block_dir, "garbage",
                std::string("\x7f\xff\xff\xff\xff\xff\xff\xff", 8));
    }
  }

  // --- fuzz_state_io: defense snapshots from the harness's own rig --------
  const fs::path state_dir = root / "fuzz_state_io";
  const std::vector<asup::KeywordQuery> queries = RigQueries(rig);
  {
    asup::AsSimpleEngine simple(rig.engine, asup::AsSimpleConfig{});
    std::ostringstream fresh;
    if (!asup::SaveDefenseState(simple, fresh)) return 1;
    WriteSeed(state_dir, "simple_fresh", fresh.str());
    for (const auto& query : queries) simple.Search(query);
    for (const auto& query : queries) simple.Search(query);  // re-issue
    std::ostringstream warm;
    if (!asup::SaveDefenseState(simple, warm)) return 1;
    const std::string bytes = warm.str();
    WriteSeed(state_dir, "simple_warm", bytes);
    WriteSeed(state_dir, "simple_truncated",
              bytes.substr(0, bytes.size() - bytes.size() / 4));
  }
  {
    asup::AsArbiEngine arbi(rig.engine, asup::AsArbiConfig{});
    for (const auto& query : queries) arbi.Search(query);
    for (const auto& query : queries) arbi.Search(query);  // re-issue
    std::ostringstream warm;
    if (!asup::SaveDefenseState(arbi, warm)) return 1;
    const std::string bytes = warm.str();
    WriteSeed(state_dir, "arbi_warm", bytes);
    std::string flipped = bytes;
    flipped[bytes.size() / 2] ^= 0x01;
    WriteSeed(state_dir, "arbi_bitflip", flipped);
  }
  {
    asup::AsDeclineEngine decline(rig.engine, asup::AsDeclineConfig{});
    for (const auto& query : queries) decline.Search(query);
    for (const auto& query : queries) decline.Search(query);  // re-issue
    std::ostringstream warm;
    if (!asup::SaveDefenseState(decline, warm)) return 1;
    WriteSeed(state_dir, "decline_warm", warm.str());
  }

  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}
