#include "asup/suppress/state_io.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace asup {

namespace {

// Format v2 adds the epoch content fingerprint after the config
// fingerprint; the body is unchanged. v1 snapshots still load.
constexpr char kSimpleMagicV2[4] = {'A', 'S', 'S', '2'};

using CacheEntries = std::vector<std::pair<std::string, SearchResult>>;

// The third magic byte names the defense: 'S'imple, 'A'rbi, 'D'ecline.
char KindOf(DefenseAlgorithm defense) {
  switch (defense) {
    case DefenseAlgorithm::kSimple:
      return 'S';
    case DefenseAlgorithm::kArbi:
      return 'A';
    case DefenseAlgorithm::kDecline:
      return 'D';
  }
  return '?';
}

void PutU64(uint64_t value, std::ostream& out) {
  for (int i = 0; i < 8; ++i) out.put(static_cast<char>(value >> (8 * i)));
}

bool GetU64(std::istream& in, uint64_t& value) {
  value = 0;
  for (int i = 0; i < 8; ++i) {
    const int byte = in.get();
    if (byte == EOF) return false;
    value |= static_cast<uint64_t>(byte) << (8 * i);
  }
  return true;
}

void PutDouble(double value, std::ostream& out) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits, out);
}

bool GetDouble(std::istream& in, double& value) {
  uint64_t bits = 0;
  if (!GetU64(in, bits)) return false;
  std::memcpy(&value, &bits, sizeof(value));
  return true;
}

void PutString(const std::string& s, std::ostream& out) {
  PutU64(s.size(), out);
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool GetString(std::istream& in, std::string& s) {
  uint64_t length = 0;
  if (!GetU64(in, length) || length > (1u << 24)) return false;
  s.resize(length);
  in.read(s.data(), static_cast<std::streamsize>(length));
  return static_cast<bool>(in);
}

void PutResult(const SearchResult& result, std::ostream& out) {
  out.put(static_cast<char>(result.status));
  PutU64(result.docs.size(), out);
  for (const ScoredDoc& scored : result.docs) {
    PutU64(scored.doc, out);
    PutDouble(scored.score, out);
  }
}

bool GetResult(std::istream& in, SearchResult& result) {
  const int status = in.get();
  if (status == EOF || status > static_cast<int>(QueryStatus::kDeclined)) {
    return false;
  }
  result.status = static_cast<QueryStatus>(status);
  uint64_t count = 0;
  if (!GetU64(in, count) || count > (1u << 20)) return false;
  // The count is untrusted until the payload behind it parses: grow the
  // vector as entries validate instead of resizing to a claimed size.
  result.docs.clear();
  result.docs.reserve(std::min<uint64_t>(count, 4096));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t doc = 0;
    double score = 0.0;
    if (!GetU64(in, doc) || !GetDouble(in, score)) return false;
    result.docs.push_back({static_cast<DocId>(doc), score});
  }
  return true;
}

// Configuration fingerprint (v1 and v2): a snapshot only replays under the
// same corpus size, γ, and coin key. v2 appends the epoch *content*
// fingerprint — document ids, lengths and term frequencies, deliberately
// not the epoch counter, so incrementally maintained and freshly built
// engines over the same corpus interoperate byte-for-byte.
void PutFingerprint(const DefendedEngine& engine,
                    const CorpusSnapshot& snapshot, std::ostream& out) {
  PutU64(engine.segment().corpus_size(), out);
  PutDouble(engine.config().simple.gamma, out);
  PutU64(engine.config().simple.secret_key, out);
  PutU64(snapshot.Fingerprint(), out);
}

bool CheckFingerprint(const DefendedEngine& engine,
                      const CorpusSnapshot& snapshot, std::istream& in,
                      bool check_content) {
  uint64_t corpus_size = 0;
  double gamma = 0.0;
  uint64_t key = 0;
  if (!GetU64(in, corpus_size) || !GetDouble(in, gamma) || !GetU64(in, key)) {
    return false;
  }
  if (corpus_size != engine.segment().corpus_size() ||
      gamma != engine.config().simple.gamma ||
      key != engine.config().simple.secret_key) {
    return false;
  }
  if (!check_content) return true;  // v1 snapshot: size check only
  uint64_t content = 0;
  if (!GetU64(in, content)) return false;
  return content == snapshot.Fingerprint();
}

// Reads a 4-byte magic with defense letter `kind` and reports the format
// version, or 0 on mismatch.
int ReadVersion(std::istream& in, char kind) {
  char magic[4];
  in.read(magic, 4);
  if (!in || magic[0] != 'A' || magic[1] != 'S' || magic[2] != kind) return 0;
  if (magic[3] == '1') return 1;
  if (magic[3] == '2') return 2;
  return 0;
}

void PutCache(const CacheEntries& entries, std::ostream& out) {
  PutU64(entries.size(), out);
  for (const auto& [canonical, result] : entries) {
    PutString(canonical, out);
    PutResult(result, out);
  }
}

// Staged in snapshot order (a vector, not a hash map: restore order is
// part of the deterministic-replay story and must match the file).
bool GetCache(std::istream& in, CacheEntries& entries) {
  uint64_t count = 0;
  if (!GetU64(in, count)) return false;
  for (uint64_t i = 0; i < count; ++i) {
    std::string canonical;
    SearchResult result;
    if (!GetString(in, canonical) || !GetResult(in, result)) return false;
    entries.emplace_back(std::move(canonical), std::move(result));
  }
  return true;
}

}  // namespace

// Quiesced by contract (see state_io.h): guarded state is read lock-free.
bool SaveDefenseState(const DefendedEngine& engine, std::ostream& out)
    ASUP_NO_THREAD_SAFETY_ANALYSIS {
  const char kind = KindOf(engine.defense());
  const CacheEntries cache = engine.answer_cache_.Snapshot();
  if (kind != 'S') {
    const char magic[4] = {'A', 'S', kind, '2'};
    out.write(magic, 4);
  }
  out.write(kSimpleMagicV2, 4);
  // Θ_R is stored as universe document ids (stable across restarts and
  // epochs); the engine's atomic bitmap is indexed by dense local id of
  // the *state's* pinned epoch.
  const CorpusSnapshot& snapshot = *engine.snapshot_;
  PutFingerprint(engine, snapshot, out);
  const std::vector<size_t> locals = engine.returned_before_.SetBits();
  PutU64(locals.size(), out);
  for (size_t local : locals) {
    PutU64(snapshot.LocalToId(static_cast<uint32_t>(local)), out);
  }
  if (kind == 'S') {
    PutCache(cache, out);
  } else {
    // The cover defenses keep their answers in the trailing section; the
    // nested AS-SIMPLE section's cache is always empty.
    PutCache({}, out);
    const HistoryStore& history = engine.history_.UnlockedStore();
    PutU64(history.NumQueries(), out);
    for (size_t i = 0; i < history.NumQueries(); ++i) {
      const auto& entry = history.QueryAt(i);
      PutString(entry.query.canonical(), out);
      PutU64(entry.answer.size(), out);
      for (DocId doc : entry.answer) PutU64(doc, out);
    }
    PutCache(cache, out);
  }
  out.flush();
  return static_cast<bool>(out);
}

// Quiesced by contract (see state_io.h): guarded state is written lock-free.
bool LoadDefenseState(DefendedEngine& engine, std::istream& in)
    ASUP_NO_THREAD_SAFETY_ANALYSIS {
  const char kind = KindOf(engine.defense());
  if (kind != 'S' && ReadVersion(in, kind) == 0) return false;
  const int version = ReadVersion(in, 'S');
  if (version == 0) return false;
  const CorpusSnapshot& snapshot = *engine.snapshot_;
  if (!CheckFingerprint(engine, snapshot, in,
                        /*check_content=*/version >= 2)) {
    return false;
  }

  // Parse (and validate) everything before touching the engine, so a
  // corrupt snapshot leaves it unchanged.
  std::vector<DocId> returned;
  uint64_t count = 0;
  if (!GetU64(in, count) || count > snapshot.NumDocuments()) return false;
  returned.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t doc = 0;
    if (!GetU64(in, doc)) return false;
    if (!snapshot.Contains(static_cast<DocId>(doc))) return false;
    returned.push_back(static_cast<DocId>(doc));
  }
  CacheEntries cache;
  if (!GetCache(in, cache)) return false;

  HistoryStore history;
  if (kind != 'S') {
    // Only the trailing section's answers are served; the nested one is
    // empty in every snapshot a cover defense writes.
    cache.clear();
    const Vocabulary& vocabulary = snapshot.corpus().vocabulary();
    uint64_t num_queries = 0;
    if (!GetU64(in, num_queries) || num_queries > (1u << 26)) return false;
    for (uint64_t i = 0; i < num_queries; ++i) {
      std::string canonical;
      if (!GetString(in, canonical)) return false;
      uint64_t answer_size = 0;
      if (!GetU64(in, answer_size) || answer_size > (1u << 20)) return false;
      std::vector<DocId> answer(answer_size);
      for (uint64_t d = 0; d < answer_size; ++d) {
        uint64_t doc = 0;
        if (!GetU64(in, doc)) return false;
        answer[d] = static_cast<DocId>(doc);
      }
      history.Record(KeywordQuery::Parse(vocabulary, canonical),
                     std::move(answer));
    }
    if (!GetCache(in, cache)) return false;
  }

  // Everything parsed: commit.
  engine.returned_before_.ClearAll();
  for (DocId doc : returned) {
    engine.returned_before_.Set(snapshot.LocalOf(doc));
  }
  if (kind != 'S') engine.history_.Replace(std::move(history));
  engine.answer_cache_.Clear();
  for (auto& [canonical, result] : cache) {
    engine.answer_cache_.Insert(canonical, snapshot.epoch(),
                                std::move(result));
  }
  return true;
}

}  // namespace asup
