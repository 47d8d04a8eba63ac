#include "asup/index/inverted_index.h"

#include <algorithm>
#include <cmath>

#include "asup/util/check.h"

namespace asup {

InvertedIndex::InvertedIndex(const Corpus& corpus) : corpus_(&corpus) {
  std::vector<const Document*> docs;
  docs.reserve(corpus.size());
  for (const auto& doc : corpus.documents()) docs.push_back(&doc);
  std::sort(docs.begin(), docs.end(),
            [](const Document* a, const Document* b) {
              return a->id() < b->id();
            });
  SetDocsByLocal(std::move(docs));

  postings_.resize(corpus.vocabulary().size());
  std::vector<PostingList::Builder> builders(postings_.size());
  uint64_t total_length = 0;
  for (uint32_t local = 0; local < docs_by_local_.size(); ++local) {
    const Document& doc = *docs_by_local_[local];
    total_length += doc.length();
    for (const TermFreq& entry : doc.terms()) {
      ASUP_DCHECK(entry.term < builders.size());
      builders[entry.term].Add(local, entry.freq);
    }
  }

  stats_.num_documents = docs_by_local_.size();
  // An empty corpus has average length 0 by definition — the 0/0 NaN
  // would otherwise leak through BM25 into CSV reports.
  stats_.average_doc_length =
      docs_by_local_.empty()
          ? 0.0
          : static_cast<double>(total_length) /
                static_cast<double>(docs_by_local_.size());
  ASUP_CHECK(std::isfinite(stats_.average_doc_length));
  ASUP_CHECK(stats_.average_doc_length >= 0.0);
  for (size_t term = 0; term < builders.size(); ++term) {
    const size_t df = builders[term].size();
    if (df == 0) continue;
    postings_[term] = std::move(builders[term]).Build();
    ++stats_.num_terms;
    stats_.num_postings += df;
    stats_.posting_bytes += postings_[term].ByteSize();
  }
}

void InvertedIndex::SetDocsByLocal(std::vector<const Document*> docs) {
  docs_by_local_ = std::move(docs);
  ids_by_local_.clear();
  lengths_by_local_.clear();
  ids_by_local_.reserve(docs_by_local_.size());
  lengths_by_local_.reserve(docs_by_local_.size());
  for (const Document* doc : docs_by_local_) {
    ids_by_local_.push_back(doc->id());
    lengths_by_local_.push_back(doc->length());
  }
}

uint32_t InvertedIndex::LocalOf(DocId id) const {
  const auto it =
      std::lower_bound(ids_by_local_.begin(), ids_by_local_.end(), id);
  ASUP_CHECK(it != ids_by_local_.end() && *it == id);
  return static_cast<uint32_t>(it - ids_by_local_.begin());
}

const PostingList& InvertedIndex::Postings(TermId term) const {
  if (term >= postings_.size()) return empty_list_;
  return postings_[term];
}

}  // namespace asup
