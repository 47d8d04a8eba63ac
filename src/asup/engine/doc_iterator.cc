#include "asup/engine/doc_iterator.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "asup/util/check.h"

namespace asup {

// ---------------------------------------------------------------------------
// FlatOrIterator

FlatOrIterator::FlatOrIterator(
    std::vector<std::unique_ptr<DocIterator>> children)
    : children_(std::move(children)) {
  ASUP_CHECK(children_.size() >= 2);
  FindMin();
}

void FlatOrIterator::FindMin() {
  valid_ = false;
  uint32_t best = 0;
  for (const auto& child : children_) {
    if (!child->Valid()) continue;
    if (!valid_ || child->Doc() < best) {
      best = child->Doc();
      valid_ = true;
    }
  }
  doc_ = best;
}

void FlatOrIterator::Next() {
  ASUP_DCHECK(valid_);
  for (auto& child : children_) {
    if (child->Valid() && child->Doc() == doc_) child->Next();
  }
  FindMin();
}

void FlatOrIterator::SkipTo(uint32_t target) {
  if (!valid_ || doc_ >= target) return;
  for (auto& child : children_) child->SkipTo(target);
  FindMin();
}

size_t FlatOrIterator::CostEstimate() const {
  size_t total = 0;
  for (const auto& child : children_) {
    const size_t cost = child->CostEstimate();
    if (total > std::numeric_limits<size_t>::max() - cost) {
      return std::numeric_limits<size_t>::max();
    }
    total += cost;
  }
  return total;
}

// ---------------------------------------------------------------------------
// HeapOrIterator

HeapOrIterator::HeapOrIterator(
    std::vector<std::unique_ptr<DocIterator>> children)
    : children_(std::move(children)) {
  ASUP_CHECK(children_.size() >= 2);
  heap_.reserve(children_.size());
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i]->Valid()) heap_.push_back({children_[i]->Doc(), i});
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const Entry& a, const Entry& b) { return a.doc > b.doc; });
}

template <typename Advance>
void HeapOrIterator::ReplaceTop(Advance&& advance) {
  const auto greater = [](const Entry& a, const Entry& b) {
    return a.doc > b.doc;
  };
  std::pop_heap(heap_.begin(), heap_.end(), greater);
  const size_t child = heap_.back().child;
  heap_.pop_back();
  advance(*children_[child]);
  if (children_[child]->Valid()) {
    heap_.push_back({children_[child]->Doc(), child});
    std::push_heap(heap_.begin(), heap_.end(), greater);
  }
}

void HeapOrIterator::Next() {
  ASUP_DCHECK(Valid());
  const uint32_t current = heap_.front().doc;
  while (!heap_.empty() && heap_.front().doc == current) {
    ReplaceTop([](DocIterator& child) { child.Next(); });
  }
}

void HeapOrIterator::SkipTo(uint32_t target) {
  if (heap_.empty() || heap_.front().doc >= target) return;
  while (!heap_.empty() && heap_.front().doc < target) {
    ReplaceTop([target](DocIterator& child) { child.SkipTo(target); });
  }
}

size_t HeapOrIterator::CostEstimate() const {
  size_t total = 0;
  for (const auto& child : children_) {
    const size_t cost = child->CostEstimate();
    if (total > std::numeric_limits<size_t>::max() - cost) {
      return std::numeric_limits<size_t>::max();
    }
    total += cost;
  }
  return total;
}

// ---------------------------------------------------------------------------
// NotIterator

NotIterator::NotIterator(std::unique_ptr<DocIterator> child,
                         uint32_t num_docs)
    : child_(std::move(child)), num_docs_(num_docs) {
  Align();
}

void NotIterator::Align() {
  while (doc_ < num_docs_) {
    child_->SkipTo(doc_);
    if (!child_->Valid() || child_->Doc() != doc_) return;
    ++doc_;
  }
}

void NotIterator::Next() {
  ASUP_DCHECK(Valid());
  ++doc_;
  Align();
}

void NotIterator::SkipTo(uint32_t target) {
  if (!Valid() || doc_ >= target) return;
  doc_ = target;
  Align();
}

// ---------------------------------------------------------------------------
// Compilation

namespace {

std::unique_ptr<DocIterator> MakeEmpty() {
  return std::make_unique<EmptyIterator>();
}

std::unique_ptr<DocIterator> MakeOr(
    std::vector<std::unique_ptr<DocIterator>> children,
    OrStrategy strategy) {
  const bool heap = strategy == OrStrategy::kHeap ||
                    (strategy == OrStrategy::kAdaptive &&
                     children.size() >= kOrHeapCrossoverChildren);
  if (heap) return std::make_unique<HeapOrIterator>(std::move(children));
  return std::make_unique<FlatOrIterator>(std::move(children));
}

/// Rarest-first, stably (equal costs keep child order, for determinism).
void SortByCost(std::vector<std::unique_ptr<DocIterator>>& children) {
  std::stable_sort(children.begin(), children.end(),
                   [](const std::unique_ptr<DocIterator>& a,
                      const std::unique_ptr<DocIterator>& b) {
                     return a->CostEstimate() < b->CostEstimate();
                   });
}

/// True for the shapes KeywordQuery lowers to: a bare term or a
/// conjunction whose children are all terms.
bool IsConjunctionOfTerms(const QueryNode& node) {
  if (node.kind() == QueryNode::Kind::kTerm) return true;
  if (node.kind() != QueryNode::Kind::kAnd) return false;
  for (const QueryNode& child : node.children()) {
    if (child.kind() != QueryNode::Kind::kTerm) return false;
  }
  return true;
}

/// Compiles a conjunction of terms (IsConjunctionOfTerms) to its concrete
/// form: Empty if any term is unindexed, the TermIterator of its one
/// distinct term, else a TermAndIterator over its distinct terms
/// rarest-first. A matchable conjunction's term iterators, rarest-first,
/// go to `aligned`.
std::unique_ptr<DocIterator> CompileTermConjunction(
    const InvertedIndex& index, const QueryNode& node,
    std::vector<const TermIterator*>& aligned) {
  const std::span<const QueryNode> children =
      node.kind() == QueryNode::Kind::kTerm
          ? std::span<const QueryNode>(&node, 1)
          : std::span<const QueryNode>(node.children());
  std::vector<std::unique_ptr<TermIterator>> terms;
  terms.reserve(children.size());
  for (const QueryNode& child : children) {
    const TermId term = child.term();
    // Duplicate terms intersect to themselves: compile once.
    if (std::any_of(terms.begin(), terms.end(),
                    [&](const auto& it) { return it->term() == term; })) {
      continue;
    }
    const PostingList& list = index.Postings(term);
    if (list.empty()) return MakeEmpty();  // an unindexed term: no match
    terms.push_back(std::make_unique<TermIterator>(list, term));
  }
  // Rarest-first, stably (equal costs keep query order, for determinism).
  std::stable_sort(terms.begin(), terms.end(),
                   [](const std::unique_ptr<TermIterator>& a,
                      const std::unique_ptr<TermIterator>& b) {
                     return a->CostEstimate() < b->CostEstimate();
                   });
  aligned.reserve(terms.size());
  for (const auto& term : terms) aligned.push_back(term.get());
  if (terms.size() == 1) return std::move(terms.front());
  return std::make_unique<TermAndIterator>(std::move(terms));
}

std::unique_ptr<DocIterator> CompileNode(const InvertedIndex& index,
                                         const QueryNode& node,
                                         OrStrategy strategy) {
  if (IsConjunctionOfTerms(node)) {
    std::vector<const TermIterator*> aligned;
    return CompileTermConjunction(index, node, aligned);
  }
  switch (node.kind()) {
    case QueryNode::Kind::kAnd: {
      std::vector<std::unique_ptr<DocIterator>> children;
      std::vector<TermId> seen_terms;
      for (const QueryNode& child : node.children()) {
        if (child.kind() == QueryNode::Kind::kTerm) {
          // Duplicate terms intersect to themselves: compile once.
          if (std::find(seen_terms.begin(), seen_terms.end(), child.term()) !=
              seen_terms.end()) {
            continue;
          }
          seen_terms.push_back(child.term());
        }
        std::unique_ptr<DocIterator> compiled =
            CompileNode(index, child, strategy);
        // Iterators only move forward, so an initially-invalid child can
        // never produce a document: the whole intersection is empty.
        if (!compiled->Valid()) return MakeEmpty();
        children.push_back(std::move(compiled));
      }
      if (children.size() == 1) return std::move(children.front());
      SortByCost(children);
      return std::make_unique<AndIterator>(std::move(children));
    }
    case QueryNode::Kind::kOr: {
      std::vector<std::unique_ptr<DocIterator>> children;
      for (const QueryNode& child : node.children()) {
        std::unique_ptr<DocIterator> compiled =
            CompileNode(index, child, strategy);
        // An initially-invalid child contributes nothing to a union.
        if (!compiled->Valid()) continue;
        children.push_back(std::move(compiled));
      }
      if (children.empty()) return MakeEmpty();
      if (children.size() == 1) return std::move(children.front());
      return MakeOr(std::move(children), strategy);
    }
    case QueryNode::Kind::kNot: {
      ASUP_CHECK_EQ(node.children().size(), size_t{1});
      const uint32_t num_docs =
          static_cast<uint32_t>(index.NumDocuments());
      if (num_docs == 0) return MakeEmpty();
      return std::make_unique<NotIterator>(
          CompileNode(index, node.children().front(), strategy), num_docs);
    }
    case QueryNode::Kind::kTerm:  // a conjunction of terms, handled above
    case QueryNode::Kind::kEmpty:
      return MakeEmpty();
  }
  return MakeEmpty();  // unreachable; silences -Wreturn-type
}

}  // namespace

CompiledQuery CompileQuery(const InvertedIndex& index, const QueryNode& node,
                           OrStrategy strategy) {
  CompiledQuery out;
  // The conjunctive fast shape keeps its term iterators reachable, so
  // their aligned Freq() accessors serve every match.
  out.root = IsConjunctionOfTerms(node)
                 ? CompileTermConjunction(index, node, out.aligned_terms)
                 : CompileNode(index, node, strategy);
  return out;
}

// ---------------------------------------------------------------------------
// Execution

namespace detail {

MatchFreqReader::MatchFreqReader(const InvertedIndex& index,
                                 const CompiledQuery& query,
                                 std::span<const TermId> freq_terms)
    : index_(index),
      terms_(freq_terms),
      sources_(freq_terms.size()),
      freqs_(freq_terms.size(), 0) {
  const TermAndIterator* conjunction = query.TermConjunction();
  for (size_t pos = 0; pos < freq_terms.size(); ++pos) {
    for (const TermIterator* term : query.aligned_terms) {
      if (term->term() != freq_terms[pos]) continue;
      if (conjunction != nullptr && conjunction->IsProbed(term)) {
        sources_[pos].probed = ranked_.size();
        ranked_.emplace_back(&term->list());
      } else {
        sources_[pos].stepped = term;
      }
      break;
    }
  }
}

}  // namespace detail

MatchList ExecuteMatch(const InvertedIndex& index, const QueryNode& node,
                       std::span<const TermId> freq_terms,
                       OrStrategy strategy) {
  MatchList result;
  result.width = freq_terms.size();
  ForEachMatch(
      index, node, freq_terms,
      [&](uint32_t local, std::span<const uint32_t> freqs) {
        result.local_docs.push_back(local);
        result.freqs.insert(result.freqs.end(), freqs.begin(), freqs.end());
      },
      strategy);
  return result;
}

size_t ExecuteCountIn(const InvertedIndex& index, DocRange range,
                      const QueryNode& node, OrStrategy strategy) {
  // A single term's count over the whole index is its document frequency:
  // no iterator (whose constructor decodes the first block) is needed.
  if (node.kind() == QueryNode::Kind::kTerm && range.lo == 0 &&
      range.hi >= index.NumDocuments()) {
    return index.Postings(node.term()).size();
  }
  const CompiledQuery query = CompileQuery(index, node, strategy);
  size_t count = 0;
  const auto no_freqs = [](uint32_t) { return std::span<const uint32_t>(); };
  const auto tally = [&](uint32_t, std::span<const uint32_t>) { ++count; };
  detail::WithConcreteRoot(query, [&](auto& root) {
    detail::WalkRange(root, range, no_freqs, tally);
  });
  return count;
}

size_t ExecuteCount(const InvertedIndex& index, const QueryNode& node,
                    OrStrategy strategy) {
  return ExecuteCountIn(index, index.AllDocs(), node, strategy);
}

}  // namespace asup
