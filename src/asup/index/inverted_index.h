#ifndef ASUP_INDEX_INVERTED_INDEX_H_
#define ASUP_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <vector>

#include "asup/index/postings.h"
#include "asup/text/corpus.h"

namespace asup {

/// Summary statistics of an index.
struct IndexStats {
  size_t num_documents = 0;
  size_t num_terms = 0;          // terms with non-empty posting lists
  uint64_t num_postings = 0;     // total (term, doc) pairs
  uint64_t posting_bytes = 0;    // compressed size of all posting lists
  double average_doc_length = 0.0;
};

/// A contiguous range [lo, hi) of an index's local ids: the whole index, or
/// one scatter partition of it (index/sharded_index.h).
struct DocRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
};

/// Immutable inverted index over a corpus: the storage layer of the
/// enterprise search engine substrate.
///
/// Documents get dense *local ids* assigned in ascending universe-DocId
/// order, so iteration and intersection results are deterministic and
/// id-ordered regardless of corpus insertion order. The index borrows the
/// corpus, which must outlive it.
class InvertedIndex {
 public:
  /// Builds the index over the whole corpus; O(total tokens).
  explicit InvertedIndex(const Corpus& corpus);

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Number of indexed documents.
  size_t NumDocuments() const { return docs_by_local_.size(); }

  /// The range of every local id, [0, NumDocuments()).
  DocRange AllDocs() const {
    return {0, static_cast<uint32_t>(docs_by_local_.size())};
  }

  /// The indexed corpus.
  const Corpus& corpus() const { return *corpus_; }

  /// Document for a local id. Requires local < NumDocuments().
  const Document& DocAt(uint32_t local) const {
    return *docs_by_local_[local];
  }

  /// Universe DocId for a local id.
  DocId LocalToId(uint32_t local) const { return ids_by_local_[local]; }

  /// Token count of the document at a local id, from the flat length
  /// column: equal to DocAt(local).length() without touching the Document.
  uint32_t LengthAt(uint32_t local) const { return lengths_by_local_[local]; }

  /// Local id for a universe DocId; aborts if the document is not indexed.
  /// Binary-searches the flat id array, touching no Document.
  uint32_t LocalOf(DocId id) const;

  /// Posting list of `term`; empty list if the term does not occur.
  const PostingList& Postings(TermId term) const;

  /// Document frequency of `term` in this corpus.
  size_t DocumentFrequency(TermId term) const {
    return Postings(term).size();
  }

  // Matching is not the index's job: queries compile to iterator trees
  // over Postings() and execute in the engine layer (engine/doc_iterator.h
  // — ForEachMatch / ExecuteMatch / ExecuteCount).

  /// Corpus-wide statistics.
  const IndexStats& stats() const { return stats_; }

 private:
  /// Uninitialized shell for CorpusManager's incremental epoch merge, which
  /// fills the members directly from the previous epoch's posting lists
  /// (see index/corpus_manager.cc) instead of re-scanning document tokens.
  InvertedIndex() = default;
  friend class CorpusManager;

  /// Sets docs_by_local_ and its flat columns ids_by_local_ and
  /// lengths_by_local_.
  void SetDocsByLocal(std::vector<const Document*> docs);

  const Corpus* corpus_ = nullptr;
  std::vector<const Document*> docs_by_local_;
  /// docs_by_local_[local]->id(), ascending: LocalOf and LocalToId read
  /// this instead of dereferencing one Document per step.
  std::vector<DocId> ids_by_local_;
  /// docs_by_local_[local]->length(): the match walk scores each match
  /// from the two flat columns, never from its Document.
  std::vector<uint32_t> lengths_by_local_;
  std::vector<PostingList> postings_;  // indexed by TermId
  PostingList empty_list_;
  IndexStats stats_;
};

}  // namespace asup

#endif  // ASUP_INDEX_INVERTED_INDEX_H_
