#include "asup/suppress/cover_finder.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

CoverFinder::CoverFinder(const HistoryStore& history, size_t cover_size,
                         double cover_ratio)
    : history_(&history), cover_size_(cover_size), cover_ratio_(cover_ratio) {
  ASUP_CHECK(cover_size_ >= 1);
  ASUP_CHECK(cover_ratio_ > 0.0);
  ASUP_CHECK_LE(cover_ratio_, 1.0);
}

bool CoverFinder::PassesSignaturePrescreen(const std::vector<DocId>& match_ids,
                                           size_t need) const {
  // SUM the per-document binary vectors, then check whether the m largest
  // per-bit counts could possibly reach σ·|q|. Each historic query sets one
  // bit, so the count at its bit upper-bounds how many matching documents
  // that query's answer covers (collisions only make the bound looser).
  // The sum is kept sparse: only bits some matching document sets have a
  // nonzero count, and after sorting every set bit of every signature,
  // each count is the length of one run.
  std::vector<uint16_t> bits;
  for (DocId doc : match_ids) {
    const QuerySignature* signature = history_->SignatureOf(doc);
    if (signature == nullptr) continue;
    signature->ForEachSetBit(
        [&](size_t bit) { bits.push_back(static_cast<uint16_t>(bit)); });
  }
  std::sort(bits.begin(), bits.end());
  std::vector<uint32_t> counts;
  for (size_t run = 0; run < bits.size();) {
    size_t end = run + 1;
    while (end < bits.size() && bits[end] == bits[run]) ++end;
    counts.push_back(static_cast<uint32_t>(end - run));
    run = end;
  }
  if (cover_size_ < counts.size()) {
    std::nth_element(counts.begin(), counts.begin() + cover_size_,
                     counts.end(), std::greater<uint32_t>());
    counts.resize(cover_size_);
  }
  uint64_t best_possible = 0;
  for (uint32_t c : counts) best_possible += c;
  return best_possible >= need;
}

std::vector<CoverFinder::Candidate> CoverFinder::GatherCandidates(
    const std::vector<DocId>& match_ids) const {
  std::unordered_map<uint32_t, std::vector<uint32_t>> covers;
  for (uint32_t pos = 0; pos < match_ids.size(); ++pos) {
    const QueryIndexList* queries =
        history_->QueriesReturning(match_ids[pos]);
    if (queries == nullptr) continue;
    for (uint32_t qi : *queries) covers[qi].push_back(pos);
  }
  std::vector<Candidate> candidates;
  candidates.reserve(covers.size());
  // NOLINTNEXTLINE(asup-unordered-iteration): total sort below canonicalizes
  for (auto& [qi, positions] : covers) {
    candidates.push_back(Candidate{qi, std::move(positions)});
  }
  // Deterministic order (largest coverage first, ties by history index).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.positions.size() != b.positions.size()) {
                return a.positions.size() > b.positions.size();
              }
              return a.query_index < b.query_index;
            });
  return candidates;
}

CoverResult CoverFinder::Find(const std::vector<DocId>& match_ids) const {
  CoverResult result;
  if (match_ids.empty()) return result;
  const size_t need = static_cast<size_t>(
      std::ceil(cover_ratio_ * static_cast<double>(match_ids.size())));
  if (need == 0) return result;

  if (cover_ratio_ >= 1.0) {
    // Full cover requires every matching document to have history.
    for (DocId doc : match_ids) {
      if (history_->QueriesReturning(doc) == nullptr) return result;
    }
  }
  if (!PassesSignaturePrescreen(match_ids, need)) {
    ASUP_METRIC_COUNT("asup_suppress_prescreen_reject_total", 1);
    return result;
  }
  ASUP_METRIC_COUNT("asup_suppress_prescreen_pass_total", 1);

  const std::vector<Candidate> candidates = GatherCandidates(match_ids);
  ASUP_METRIC_OBSERVE_SIZE("asup_suppress_cover_candidates",
                           candidates.size());
  // NOLINTNEXTLINE(asup-record-once): the cover search's own diagnostics
  ASUP_TRACE_NOTE("cover_candidates", candidates.size());
  if (candidates.empty()) return result;

  if (cover_ratio_ >= 1.0) {
    return ExactCover(candidates, match_ids.size());
  }
  return GreedyPartialCover(candidates, match_ids.size(), need);
}

namespace {

/// State of the document-driven exact set-cover DFS.
struct ExactSearch {
  const std::vector<CoverFinder::Candidate>* candidates;
  /// candidate indices covering each position.
  std::vector<std::vector<uint32_t>> coverers;
  /// how many chosen candidates currently cover each position.
  std::vector<uint32_t> cover_count;
  std::vector<uint32_t> chosen;
  size_t uncovered;
  size_t max_depth;
  size_t max_candidate_size;
  /// DFS nodes visited — the enumeration size the metrics report.
  size_t nodes = 0;

  bool Dfs() {
    ++nodes;
    if (uncovered == 0) return true;
    if (chosen.size() >= max_depth) return false;
    // Admissible pruning: even perfectly disjoint picks cannot finish.
    if ((max_depth - chosen.size()) * max_candidate_size < uncovered) {
      return false;
    }
    // Branch on the uncovered position with the fewest covering candidates.
    size_t pivot = SIZE_MAX;
    size_t best_options = SIZE_MAX;
    for (size_t pos = 0; pos < cover_count.size(); ++pos) {
      if (cover_count[pos] > 0) continue;
      if (coverers[pos].size() < best_options) {
        best_options = coverers[pos].size();
        pivot = pos;
      }
    }
    if (pivot == SIZE_MAX || best_options == 0) return false;
    for (uint32_t ci : coverers[pivot]) {
      Apply(ci);
      if (Dfs()) return true;
      Undo(ci);
    }
    return false;
  }

  void Apply(uint32_t ci) {
    chosen.push_back(ci);
    for (uint32_t pos : (*candidates)[ci].positions) {
      if (cover_count[pos]++ == 0) --uncovered;
    }
  }

  void Undo(uint32_t ci) {
    chosen.pop_back();
    for (uint32_t pos : (*candidates)[ci].positions) {
      if (--cover_count[pos] == 0) ++uncovered;
    }
  }
};

}  // namespace

CoverResult CoverFinder::ExactCover(const std::vector<Candidate>& candidates,
                                    size_t num_positions) const {
  ExactSearch search;
  search.candidates = &candidates;
  search.coverers.resize(num_positions);
  for (uint32_t ci = 0; ci < candidates.size(); ++ci) {
    for (uint32_t pos : candidates[ci].positions) {
      search.coverers[pos].push_back(ci);
    }
  }
  search.cover_count.assign(num_positions, 0);
  search.uncovered = num_positions;
  search.max_depth = cover_size_;
  search.max_candidate_size = 0;
  for (const Candidate& c : candidates) {
    search.max_candidate_size =
        std::max(search.max_candidate_size, c.positions.size());
  }

  CoverResult result;
  const bool found = search.Dfs();
  ASUP_METRIC_OBSERVE_SIZE("asup_suppress_exact_cover_nodes", search.nodes);
  // NOLINTNEXTLINE(asup-record-once): the cover search's own diagnostics
  ASUP_TRACE_NOTE("exact_cover_nodes", search.nodes);
  if (!found) return result;
  // Exact-cover postcondition (σ = 100%): every matching document covered
  // by at most m chosen historic answers.
  ASUP_CHECK_EQ(search.uncovered, 0u);
  ASUP_CHECK_LE(search.chosen.size(), cover_size_);
  result.found = true;
  for (uint32_t ci : search.chosen) {
    result.query_indices.push_back(candidates[ci].query_index);
  }
  return result;
}

CoverResult CoverFinder::GreedyPartialCover(
    const std::vector<Candidate>& candidates, size_t num_positions,
    size_t need) const {
  std::vector<bool> covered(num_positions, false);
  size_t total_covered = 0;
  std::vector<uint32_t> picks;
  for (size_t round = 0; round < cover_size_ && total_covered < need;
       ++round) {
    size_t best = SIZE_MAX;
    size_t best_gain = 0;
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      size_t gain = 0;
      for (uint32_t pos : candidates[ci].positions) {
        if (!covered[pos]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = ci;
      }
    }
    if (best == SIZE_MAX || best_gain == 0) break;
    picks.push_back(static_cast<uint32_t>(best));
    for (uint32_t pos : candidates[best].positions) {
      if (!covered[pos]) {
        covered[pos] = true;
        ++total_covered;
      }
    }
  }

  CoverResult result;
  if (total_covered < need) return result;
  // Partial-cover postcondition: ≥ ⌈σ·|Sel(q)|⌉ matching documents covered
  // by at most m historic answers.
  ASUP_CHECK(total_covered >= need);
  ASUP_CHECK_LE(picks.size(), cover_size_);
  result.found = true;
  for (uint32_t ci : picks) {
    result.query_indices.push_back(candidates[ci].query_index);
  }
  return result;
}

}  // namespace asup
