#include "asup/engine/doc_iterator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "asup/util/check.h"

namespace asup {

// ---------------------------------------------------------------------------
// AndIterator

AndIterator::AndIterator(std::vector<std::unique_ptr<DocIterator>> children)
    : children_(std::move(children)) {
  ASUP_CHECK(children_.size() >= 2);
  Leapfrog();
}

void AndIterator::Leapfrog() {
  DocIterator& driver = *children_[0];
  while (driver.Valid()) {
    const uint32_t candidate = driver.Doc();
    bool all = true;
    for (size_t i = 1; i < children_.size(); ++i) {
      children_[i]->SkipTo(candidate);
      if (!children_[i]->Valid()) {
        valid_ = false;  // some child exhausted: no more matches anywhere
        return;
      }
      if (children_[i]->Doc() != candidate) {
        // Blocked: the driver leaps to the blocker's doc, not just past
        // the candidate — the whole point of rarest-first leapfrogging.
        all = false;
        driver.SkipTo(children_[i]->Doc());
        break;
      }
    }
    if (all) {
      doc_ = candidate;
      valid_ = true;
      return;
    }
  }
  valid_ = false;
}

void AndIterator::Next() {
  ASUP_DCHECK(valid_);
  children_[0]->Next();
  Leapfrog();
}

void AndIterator::SkipTo(uint32_t target) {
  if (!valid_ || doc_ >= target) return;
  children_[0]->SkipTo(target);
  Leapfrog();
}

size_t AndIterator::CostEstimate() const {
  // The rarest child bounds the intersection.
  return children_[0]->CostEstimate();
}

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

std::unique_ptr<DocIterator> CompileNode(const InvertedIndex& index,
                                         const QueryNode& node,
                                         OrStrategy strategy) {
  switch (node.kind()) {
    case QueryNode::Kind::kTerm: {
      const PostingList& list = index.Postings(node.term());
      if (list.empty()) return MakeEmpty();
      return std::make_unique<TermIterator>(list, node.term());
    }
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
    case QueryNode::Kind::kEmpty:
      return MakeEmpty();
  }
  return MakeEmpty();  // unreachable; silences -Wreturn-type
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

}  // namespace

CompiledQuery CompileQuery(const InvertedIndex& index, const QueryNode& node,
                           OrStrategy strategy) {
  CompiledQuery out;
  if (!IsConjunctionOfTerms(node)) {
    out.root = CompileNode(index, node, strategy);
    return out;
  }
  // Conjunctive fast shape: build the term children by hand so their
  // aligned Freq() accessors stay reachable through the compiled root.
  std::vector<std::unique_ptr<TermIterator>> terms;
  std::vector<TermId> seen_terms;
  const auto add_term = [&](TermId term) -> bool {
    if (std::find(seen_terms.begin(), seen_terms.end(), term) !=
        seen_terms.end()) {
      return true;
    }
    seen_terms.push_back(term);
    const PostingList& list = index.Postings(term);
    if (list.empty()) return false;  // conjunction with an unindexed term
    terms.push_back(std::make_unique<TermIterator>(list, term));
    return true;
  };
  bool matchable = true;
  if (node.kind() == QueryNode::Kind::kTerm) {
    matchable = add_term(node.term());
  } else {
    for (const QueryNode& child : node.children()) {
      if (!(matchable = add_term(child.term()))) break;
    }
  }
  if (!matchable) {
    out.root = MakeEmpty();
    return out;
  }
  std::stable_sort(terms.begin(), terms.end(),
                   [](const std::unique_ptr<TermIterator>& a,
                      const std::unique_ptr<TermIterator>& b) {
                     return a->CostEstimate() < b->CostEstimate();
                   });
  out.aligned_terms.reserve(terms.size());
  for (const auto& term : terms) out.aligned_terms.push_back(term.get());
  if (terms.size() == 1) {
    out.root = std::move(terms.front());
    return out;
  }
  std::vector<std::unique_ptr<DocIterator>> children;
  children.reserve(terms.size());
  for (auto& term : terms) children.push_back(std::move(term));
  out.root = std::make_unique<AndIterator>(std::move(children));
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
      aligned_(freq_terms.size(), nullptr),
      freqs_(freq_terms.size(), 0) {
  for (size_t pos = 0; pos < freq_terms.size(); ++pos) {
    for (const TermIterator* term : query.aligned_terms) {
      if (term->term() == freq_terms[pos]) {
        aligned_[pos] = term;
        break;
      }
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
  CompiledQuery query = CompileQuery(index, node, strategy);
  // A range that reaches the end of the index skips the bound check: it
  // would cost the whole-index count loop a virtual Doc() call per match.
  const bool bounded = range.hi < index.NumDocuments();
  size_t count = 0;
  DocIterator& root = *query.root;
  for (root.SkipTo(range.lo); root.Valid(); root.Next()) {
    if (bounded && root.Doc() >= range.hi) break;
    ++count;
  }
  return count;
}

size_t ExecuteCount(const InvertedIndex& index, const QueryNode& node,
                    OrStrategy strategy) {
  return ExecuteCountIn(index, index.AllDocs(), node, strategy);
}

}  // namespace asup
