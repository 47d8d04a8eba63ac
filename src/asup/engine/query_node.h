#ifndef ASUP_ENGINE_QUERY_NODE_H_
#define ASUP_ENGINE_QUERY_NODE_H_

#include <vector>

#include "asup/engine/query.h"
#include "asup/text/vocabulary.h"

namespace asup {

/// Boolean query AST over vocabulary terms — the language the iterator
/// algebra (engine/doc_iterator.h) compiles and executes. A plain value
/// type: nodes own their children, copy freely, and carry no corpus or
/// index references, so one tree can be compiled against many indexes
/// (and once per partition of a scattered walk).
///
/// Semantics over an index's local doc ids:
///   Term(t)     documents containing t (empty set for an unindexed term)
///   And(c...)   intersection of the children (requires >= 1 child)
///   Or(c...)    union of the children (requires >= 1 child)
///   Not(c)      complement of the child within [0, NumDocuments)
///   Empty()     the empty set
///
/// The conjunctive KeywordQuery of the paper's interface lowers via
/// FromKeywords: one Term node per distinct term, wrapped in And when
/// there are several — so every existing caller's queries execute through
/// the same algebra, bitwise unchanged.
class QueryNode {
 public:
  enum class Kind { kTerm, kAnd, kOr, kNot, kEmpty };

  /// The empty set (also what an unanswerable query lowers to).
  QueryNode() = default;

  static QueryNode Term(TermId term);
  static QueryNode And(std::vector<QueryNode> children);
  static QueryNode Or(std::vector<QueryNode> children);
  static QueryNode Not(QueryNode child);
  static QueryNode MakeEmpty();

  /// Lowers a canonicalized conjunctive query: And of its distinct terms,
  /// a single Term node for one-word queries, Empty when the query is
  /// empty or contains an unknown word (conjunctive semantics: it matches
  /// nothing).
  static QueryNode FromKeywords(const KeywordQuery& query);

  Kind kind() const { return kind_; }

  /// The term id; requires kind() == kTerm.
  TermId term() const { return term_; }

  /// Child nodes; requires a composite kind (kAnd / kOr / kNot).
  const std::vector<QueryNode>& children() const { return children_; }

  /// All term ids appearing anywhere in the tree, sorted and deduplicated
  /// — the default scoring-term set for a boolean query.
  std::vector<TermId> CollectTerms() const;

 private:
  Kind kind_ = Kind::kEmpty;
  TermId term_ = 0;
  std::vector<QueryNode> children_;
};

}  // namespace asup

#endif  // ASUP_ENGINE_QUERY_NODE_H_
