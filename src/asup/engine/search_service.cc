#include "asup/engine/search_service.h"

#include <algorithm>

namespace asup {

std::vector<DocId> SearchResult::DocIds() const {
  std::vector<DocId> ids;
  ids.reserve(docs.size());
  for (const auto& scored : docs) ids.push_back(scored.doc);
  return ids;
}

bool SearchResult::Returned(DocId doc) const {
  return std::any_of(docs.begin(), docs.end(),
                     [doc](const ScoredDoc& s) { return s.doc == doc; });
}

SearchResult ClientTaggingService::Search(const KeywordQuery& query) {
  // A query already carrying this client's tag passes through uncopied.
  if (query.client_id() == client_id_) return SearchTagged(query);
  KeywordQuery tagged = query;
  tagged.set_client_id(client_id_);
  return SearchTagged(tagged);
}

SearchResult ClientTaggingService::SearchTagged(const KeywordQuery& tagged) {
  return FrameTaggedQuery(tagged, [&] { return base_->Search(tagged); });
}

}  // namespace asup
