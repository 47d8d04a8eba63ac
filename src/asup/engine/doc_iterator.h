#ifndef ASUP_ENGINE_DOC_ITERATOR_H_
#define ASUP_ENGINE_DOC_ITERATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "asup/engine/query_node.h"
#include "asup/index/inverted_index.h"
#include "asup/util/check.h"

namespace asup {

/// The iterator algebra the match path executes: a QueryNode tree compiles
/// into a tree of DocIterators (Term / And / Or / Not / Empty), and every
/// engine entry point — MatchingEngine's walk of the whole index or of one
/// scatter partition, the pipeline match stage — drives the root. Iterators
/// stream ascending local doc ids; SkipTo obeys the same forward-only
/// contract as PostingList::Iterator::SkipTo (a target at or behind the
/// current doc is a no-op), which is what lets And leapfrog its children
/// against each other.
class DocIterator {
 public:
  virtual ~DocIterator() = default;

  /// True if the iterator points at a document.
  virtual bool Valid() const = 0;

  /// Current local doc id. Requires Valid().
  virtual uint32_t Doc() const = 0;

  /// Advances to the next matching document. Requires Valid().
  virtual void Next() = 0;

  /// Advances until Doc() >= target or exhaustion; forward-only (a target
  /// at or behind the current doc is a no-op).
  virtual void SkipTo(uint32_t target) = 0;

  /// Upper bound on the number of documents this iterator can produce —
  /// exact for Term, min/sum/range for And/Or/Not. Drives the rarest-first
  /// ordering of And children.
  virtual size_t CostEstimate() const = 0;
};

/// Leaf: streams one term's posting list, exposing the in-document
/// frequency the scoring function needs. Final, so a walk that holds the
/// concrete type (ForEachMatchIn's bare-term loop) steps it without
/// virtual calls.
class TermIterator final : public DocIterator {
 public:
  TermIterator(const PostingList& list, TermId term)
      : it_(&list), size_(list.size()), term_(term) {}

  bool Valid() const override { return it_.Valid(); }
  uint32_t Doc() const override { return it_.Get().local_doc; }
  void Next() override { it_.Next(); }
  void SkipTo(uint32_t target) override { it_.SkipTo(target); }
  size_t CostEstimate() const override { return size_; }

  /// Frequency of the term in the current document. Requires Valid().
  uint32_t Freq() const { return it_.Get().freq; }
  TermId term() const { return term_; }

 private:
  PostingList::Iterator it_;
  size_t size_;
  TermId term_;
};

/// Intersection: multi-way leapfrog over children ordered rarest-first
/// (the caller — CompileQuery — sorts them by CostEstimate). One
/// algorithm, two instantiations: over DocIterator for general trees
/// (AndIterator), and over the final TermIterator for a conjunction of
/// terms (TermAndIterator, every multi-word KeywordQuery), whose children
/// are stepped with direct, inlinable calls. Final, so a walk holding the
/// concrete type (detail::WalkRange) steps it without virtual calls.
template <typename Child>
class BasicAndIterator final : public DocIterator {
 public:
  explicit BasicAndIterator(std::vector<std::unique_ptr<Child>> children)
      : children_(std::move(children)) {
    ASUP_CHECK(children_.size() >= 2);
    Leapfrog();
  }

  bool Valid() const override { return valid_; }
  uint32_t Doc() const override { return doc_; }

  void Next() override {
    ASUP_DCHECK(valid_);
    children_[0]->Next();
    Leapfrog();
  }

  void SkipTo(uint32_t target) override {
    if (!valid_ || doc_ >= target) return;
    children_[0]->SkipTo(target);
    Leapfrog();
  }

  /// The rarest child bounds the intersection.
  size_t CostEstimate() const override {
    return children_[0]->CostEstimate();
  }

 private:
  /// From the driver's current position, leapfrogs to the next doc every
  /// child agrees on (or exhaustion).
  void Leapfrog() {
    Child& driver = *children_[0];
    const size_t n = children_.size();
    while (driver.Valid()) {
      const uint32_t candidate = driver.Doc();
      size_t i = 1;
      for (; i < n; ++i) {
        Child& child = *children_[i];
        child.SkipTo(candidate);
        if (!child.Valid()) {
          valid_ = false;  // some child exhausted: no more matches anywhere
          return;
        }
        if (child.Doc() != candidate) break;
      }
      if (i == n) {
        doc_ = candidate;
        valid_ = true;
        return;
      }
      // Blocked: the driver leaps to the blocker's doc, not just past the
      // candidate — the whole point of rarest-first leapfrogging.
      driver.SkipTo(children_[i]->Doc());
    }
    valid_ = false;
  }

  std::vector<std::unique_ptr<Child>> children_;  // rarest first
  uint32_t doc_ = 0;
  bool valid_ = false;
};

/// The intersection of general subtrees.
using AndIterator = BasicAndIterator<DocIterator>;

/// The intersection of two or more distinct indexed terms.
using TermAndIterator = BasicAndIterator<TermIterator>;

/// Union, flat variant: every Next/SkipTo scans all children for the
/// minimum. O(k) per step with no per-step allocation or heap churn —
/// wins for small child counts (see kOrHeapCrossoverChildren).
class FlatOrIterator : public DocIterator {
 public:
  explicit FlatOrIterator(std::vector<std::unique_ptr<DocIterator>> children);

  bool Valid() const override { return valid_; }
  uint32_t Doc() const override { return doc_; }
  void Next() override;
  void SkipTo(uint32_t target) override;
  size_t CostEstimate() const override;

 private:
  void FindMin();

  std::vector<std::unique_ptr<DocIterator>> children_;
  uint32_t doc_ = 0;
  bool valid_ = false;
};

/// Union, k-way-heap variant: children keyed by current doc in a binary
/// min-heap; each step pops/reinserts only the children at the minimum.
/// O(log k) per step — wins for large child counts.
class HeapOrIterator : public DocIterator {
 public:
  explicit HeapOrIterator(std::vector<std::unique_ptr<DocIterator>> children);

  bool Valid() const override { return !heap_.empty(); }
  uint32_t Doc() const override { return heap_.front().doc; }
  void Next() override;
  void SkipTo(uint32_t target) override;
  size_t CostEstimate() const override;

 private:
  struct Entry {
    uint32_t doc;
    size_t child;
  };

  /// Pops the heap's minimum entry, advances that child with `advance`,
  /// and reinserts it if still valid.
  template <typename Advance>
  void ReplaceTop(Advance&& advance);

  std::vector<std::unique_ptr<DocIterator>> children_;
  std::vector<Entry> heap_;
};

/// Complement: anti-join of the child against the local id range
/// [0, num_docs) — every indexed document not produced by the child.
class NotIterator : public DocIterator {
 public:
  NotIterator(std::unique_ptr<DocIterator> child, uint32_t num_docs);

  bool Valid() const override { return doc_ < num_docs_; }
  uint32_t Doc() const override { return doc_; }
  void Next() override;
  void SkipTo(uint32_t target) override;
  size_t CostEstimate() const override { return num_docs_; }

 private:
  /// Advances doc_ past documents the child produces.
  void Align();

  std::unique_ptr<DocIterator> child_;
  uint32_t num_docs_;
  uint32_t doc_ = 0;
};

/// The empty set (unindexed term, And with an empty child, ...).
class EmptyIterator : public DocIterator {
 public:
  bool Valid() const override { return false; }
  uint32_t Doc() const override { return 0; }
  void Next() override {}
  void SkipTo(uint32_t) override {}
  size_t CostEstimate() const override { return 0; }
};

/// Union execution strategy. kAdaptive picks flat below
/// kOrHeapCrossoverChildren children and the heap at or above it; the
/// forced variants exist for the crossover benchmarks and the property
/// tests (all three must agree on every tree).
enum class OrStrategy { kAdaptive, kFlat, kHeap };

/// Measured flat-vs-heap crossover (bench_micro_engine BM_OrCount*,
/// recorded in EXPERIMENTS.md). The two regimes disagree: over sparse,
/// mostly-disjoint lists the heap wins from 3 children on (1.7x at 3, 9x
/// at 32 — one pop/push beats a k-wide min-scan when only one child sits
/// at the minimum), while over dense overlapping lists the flat scan wins
/// at every measured fanout up to 64 (worst heap deficit 1.3x — most
/// children share each minimum, so the heap churns log k per child where
/// the flat scan pays one predictable pass). Child count is the only
/// signal available at compile time, so the constant is the minimax-regret
/// compromise: 3 is where the sparse heap's win (1.7x and growing) starts
/// dwarfing the dense flat scan's edge (a dead tie at 3, <=1.3x above).
inline constexpr size_t kOrHeapCrossoverChildren = 3;

/// A compiled query: the iterator tree plus, for the conjunctive fast
/// shape (a bare Term or an And of Terms — every KeywordQuery), the
/// aligned TermIterators whose Freq() is readable at each match without
/// any document lookup.
struct CompiledQuery {
  /// Never null; EmptyIterator when the tree cannot match.
  std::unique_ptr<DocIterator> root;

  /// Non-empty iff the tree is a pure conjunction of terms *and* every
  /// term is indexed: the distinct TermIterators, rarest-first, owned by
  /// `root` and aligned at root->Doc() whenever root is Valid().
  std::vector<const TermIterator*> aligned_terms;

  /// The root as its concrete TermIterator when the tree is one indexed
  /// term (its single aligned term is then the root itself); else null.
  TermIterator* BareTerm() const {
    return aligned_terms.size() == 1 ? static_cast<TermIterator*>(root.get())
                                     : nullptr;
  }

  /// The root as its concrete TermAndIterator when the tree is a
  /// conjunction of two or more distinct indexed terms; else null.
  TermAndIterator* TermConjunction() const {
    return aligned_terms.size() >= 2
               ? static_cast<TermAndIterator*>(root.get())
               : nullptr;
  }
};

/// Compiles `node` against `index`. Duplicate term children of an And are
/// deduplicated; children of an And run rarest-first; unindexed terms
/// compile to EmptyIterator (and erase a surrounding And). An And whose
/// children are all terms, at the root or nested, compiles to a
/// TermAndIterator.
CompiledQuery CompileQuery(const InvertedIndex& index, const QueryNode& node,
                           OrStrategy strategy = OrStrategy::kAdaptive);

namespace detail {

/// ForEachMatch's frequency reader: at each match of a compiled query,
/// reads the frequencies of the scoring terms (`freq_terms`, in query-term
/// order) into one per-query buffer. Conjunctions read frequencies from
/// the aligned iterators; other shapes fall back to the document's term
/// map.
class MatchFreqReader {
 public:
  MatchFreqReader(const InvertedIndex& index, const CompiledQuery& query,
                  std::span<const TermId> freq_terms);

  /// The frequencies at `local_doc`, which must be the compiled root's
  /// current document. The span is overwritten by the next call.
  std::span<const uint32_t> Read(uint32_t local_doc) {
    const Document* doc = nullptr;  // resolved lazily, once per match
    for (size_t pos = 0; pos < freqs_.size(); ++pos) {
      if (aligned_[pos] != nullptr) {
        // Aligned conjunction: the iterator sits on this very document.
        freqs_[pos] = aligned_[pos]->Freq();
      } else {
        // A scoring term outside the aligned conjunction (general trees).
        // NOLINTNEXTLINE(asup-walk-docat): term-map fallback, no column
        if (doc == nullptr) doc = &index_.DocAt(local_doc);
        freqs_[pos] = doc->FrequencyOf(terms_[pos]);
      }
    }
    return freqs_;
  }

 private:
  const InvertedIndex& index_;
  std::span<const TermId> terms_;
  std::vector<const TermIterator*> aligned_;  // per position; null = lookup
  std::vector<uint32_t> freqs_;
};

/// The one match loop: steps `root` from `range.lo` and calls
/// `visit(local_doc, read(local_doc))` for each match below `range.hi`.
/// Instantiated for the three concrete root types WithConcreteRoot
/// passes: TermIterator, TermAndIterator (both final, so every step is a
/// direct call) and DocIterator (general trees). Flattened: every call
/// the loop can see into (the iterators' steps and in-block skips, the
/// reader, the visitor and its scorer) is inlined into the loop, which
/// the inliner's size limits would otherwise stop short of once three
/// instantiations share one caller.
template <typename Iterator, typename Read, typename Visit>
[[gnu::flatten]] void WalkRange(Iterator& root, DocRange range, Read&& read,
                                Visit& visit) {
  for (root.SkipTo(range.lo); root.Valid(); root.Next()) {
    const uint32_t local = root.Doc();
    if (local >= range.hi) break;
    visit(local, read(local));
  }
}

/// Calls `walk(root)` with `query`'s root as its most concrete type: the
/// TermIterator of a bare term, the TermAndIterator of a conjunction of
/// terms, else the DocIterator tree.
template <typename Walk>
void WithConcreteRoot(const CompiledQuery& query, Walk&& walk) {
  if (TermIterator* term = query.BareTerm()) {
    walk(*term);
  } else if (TermAndIterator* conjunction = query.TermConjunction()) {
    walk(*conjunction);
  } else {
    walk(*query.root);
  }
}

}  // namespace detail

/// The one match walk: compiles `node` against `index`, skips to
/// `range.lo` through the posting lists' skip tables, and calls
/// `visit(local_doc, freqs)` for every match below `range.hi`, ascending,
/// where `freqs` holds the match's frequency of each of `freq_terms` (valid
/// during the call only). Nothing is materialized per match. The tree is
/// compiled against the whole index, so a Not complements over every
/// document and the range keeps exactly its own share of that complement:
/// the walks of disjoint covering ranges partition the whole walk.
///
/// A bare term (every one-word KeywordQuery) whose `freq_terms` are empty
/// or exactly that term reads the frequency off the current posting; every
/// other walk reads through MatchFreqReader. Either way the root is
/// stepped as its concrete type (WithConcreteRoot), so a KeywordQuery's
/// walk makes no virtual call per posting or per match.
template <typename Visit>
void ForEachMatchIn(const InvertedIndex& index, DocRange range,
                    const QueryNode& node, std::span<const TermId> freq_terms,
                    Visit&& visit,
                    OrStrategy strategy = OrStrategy::kAdaptive) {
  const CompiledQuery query = CompileQuery(index, node, strategy);
  TermIterator* term = query.BareTerm();
  if (term != nullptr &&
      (freq_terms.empty() ||
       (freq_terms.size() == 1 && freq_terms[0] == term->term()))) {
    uint32_t freq = 0;
    const auto read = [&](uint32_t) {
      freq = term->Freq();
      return std::span<const uint32_t>(&freq, freq_terms.size());
    };
    detail::WalkRange(*term, range, read, visit);
    return;
  }
  detail::MatchFreqReader reader(index, query, freq_terms);
  const auto read = [&](uint32_t local) { return reader.Read(local); };
  detail::WithConcreteRoot(query, [&](auto& root) {
    detail::WalkRange(root, range, read, visit);
  });
}

/// ForEachMatchIn over every document of `index`.
template <typename Visit>
void ForEachMatch(const InvertedIndex& index, const QueryNode& node,
                  std::span<const TermId> freq_terms, Visit&& visit,
                  OrStrategy strategy = OrStrategy::kAdaptive) {
  ForEachMatchIn(index, index.AllDocs(), node, freq_terms,
                 std::forward<Visit>(visit), strategy);
}

/// Every match of a query: local ids ascending, and each match's
/// frequencies stored contiguously in one flat buffer.
struct MatchList {
  std::vector<uint32_t> local_docs;
  /// `width` frequencies per match, in query-term order.
  std::vector<uint32_t> freqs;
  size_t width = 0;

  size_t size() const { return local_docs.size(); }
  bool empty() const { return local_docs.empty(); }

  /// Frequencies of match `i`.
  std::span<const uint32_t> FreqsOf(size_t i) const {
    return {freqs.data() + i * width, width};
  }
};

/// Executes `node` and returns every matching document ascending, with
/// per-position frequencies for `freq_terms` (the scoring inputs, in
/// query-term order). The same walk as the engine's streamed top-k.
MatchList ExecuteMatch(const InvertedIndex& index, const QueryNode& node,
                       std::span<const TermId> freq_terms,
                       OrStrategy strategy = OrStrategy::kAdaptive);

/// Number of matching documents in `range`, without materializing
/// anything; a bare term's count over the whole index is its posting
/// list's size.
size_t ExecuteCountIn(const InvertedIndex& index, DocRange range,
                      const QueryNode& node,
                      OrStrategy strategy = OrStrategy::kAdaptive);

/// ExecuteCountIn over every document of `index`.
size_t ExecuteCount(const InvertedIndex& index, const QueryNode& node,
                    OrStrategy strategy = OrStrategy::kAdaptive);

}  // namespace asup

#endif  // ASUP_ENGINE_DOC_ITERATOR_H_
