#include "ilp/set_partition.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mbrc::ilp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A solve expands at most this many nodes, and so holds at most this many
// memo entries (~50 MB at the table's half-full load). It only stops
// instances the additive bound cannot prune -- dense subgraphs whose
// per-bit costs are nearly uniform. Real subgraphs stay far below it: the
// largest solve of the full debank bench expands 226k nodes. A solve that
// reaches it returns the best partition found so far, not proven optimal.
constexpr std::int64_t kMaxNodes = 1'000'000;

// What the search knows about completing one covered-element mask: the
// exact optimum (with the first candidate of an optimal completion, in
// branching order), or only a lower bound proven under some limit.
struct Completion {
  double value = 0.0;
  int choice = -1;  // set when exact; -1 when infeasible or a bound
  bool exact = false;
};

// Flat open-addressing map from a covered-element mask to its Completion.
// One table per solve, released with it.
class CompletionMemo {
 public:
  CompletionMemo() : keys_(kInitialSlots, kEmpty), entries_(kInitialSlots) {}

  const Completion* find(std::uint64_t mask) const {
    for (std::size_t i = slot(mask);; i = (i + 1) & (keys_.size() - 1)) {
      if (keys_[i] == mask) return &entries_[i];
      if (keys_[i] == kEmpty) return nullptr;
    }
  }

  // Records what one expansion of `mask` proved. An exact entry is final;
  // of two bounds the larger is kept.
  void record(std::uint64_t mask, const Completion& proved) {
    std::size_t i = slot(mask);
    for (; keys_[i] != kEmpty; i = (i + 1) & (keys_.size() - 1)) {
      if (keys_[i] != mask) continue;
      Completion& known = entries_[i];
      if (proved.exact || (!known.exact && proved.value > known.value))
        known = proved;
      return;
    }
    keys_[i] = mask;
    entries_[i] = proved;
    if (2 * ++size_ > keys_.size()) grow();
  }

  std::size_t size() const { return size_; }

 private:
  // Never a stored key: the all-covered mask is a leaf, and leaves are not
  // memoised.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 64;

  std::size_t slot(std::uint64_t mask) const {
    mask ^= mask >> 33;  // murmur3 finalizer
    mask *= 0xff51afd7ed558ccdULL;
    mask ^= mask >> 33;
    return static_cast<std::size_t>(mask) & (keys_.size() - 1);
  }

  void grow() {
    std::vector<std::uint64_t> keys(keys_.size() * 2, kEmpty);
    std::vector<Completion> entries(keys.size());
    keys.swap(keys_);
    entries.swap(entries_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == kEmpty) continue;
      std::size_t j = slot(keys[i]);
      while (keys_[j] != kEmpty) j = (j + 1) & (keys_.size() - 1);
      keys_[j] = keys[i];
      entries_[j] = entries[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<Completion> entries_;
  std::size_t size_ = 0;
};

struct Search {
  // Candidates are renumbered by (weight, input index), so walking a
  // candidate bitset in bit order visits candidates cheapest first.
  std::vector<int> input_index;  // search id -> problem.candidates index
  std::vector<std::uint64_t> element_mask;  // per candidate
  std::vector<double> weight;               // per candidate
  std::vector<double> ratio_sum;  // per candidate: sum of min_ratio over it

  std::uint64_t all_elements = 0;
  std::vector<double> min_ratio;       // per element: min w/|cover|
  std::vector<double> max_ratio_sum;   // per element: max ratio_sum covering it

  // Candidate bitsets, `words` 64-bit words each: covering[e] holds the
  // candidates that contain element e; alive[d] the candidates still
  // placeable at recursion depth d (no element already covered).
  int words = 0;
  std::vector<std::uint64_t> covering;
  std::vector<std::uint64_t> alive;

  CompletionMemo memo;
  std::vector<int> path;       // candidate entered at each depth
  std::vector<int> incumbent;  // best complete partition seen, search ids
  double incumbent_value = kInf;
  bool stopped = false;        // kMaxNodes reached
  std::int64_t nodes = 0;
  std::int64_t bound_prunes = 0;
  std::int64_t memo_hits = 0;

  const std::uint64_t* covering_of(int e) const {
    return covering.data() + static_cast<std::size_t>(e) * words;
  }
  std::uint64_t* alive_at(int depth) {
    return alive.data() + static_cast<std::size_t>(depth) * words;
  }

  explicit Search(const SetPartitionProblem& p) {
    const int n = p.element_count;
    MBRC_ASSERT_MSG(n <= 64, "set partition supports at most 64 elements");
    all_elements = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    min_ratio.assign(n, kInf);
    max_ratio_sum.assign(n, 0.0);

    std::vector<std::uint64_t> input_mask(p.candidates.size(), 0);
    for (std::size_t c = 0; c < p.candidates.size(); ++c) {
      const auto& cand = p.candidates[c];
      for (int e : cand.elements) {
        MBRC_ASSERT_MSG(e >= 0 && e < n, "element id out of range");
        MBRC_ASSERT_MSG(!((input_mask[c] >> e) & 1),
                        "duplicate element in candidate");
        input_mask[c] |= std::uint64_t{1} << e;
      }
      if (cand.elements.empty()) continue;
      // The additive bound charges every uncovered element min(w / |cover|),
      // which under-estimates the true cost only when weights are
      // non-negative. The MBR weights satisfy this by construction: the
      // paper's 1/b and b*2^n are positive, infinite weights are dropped at
      // enumeration, and the multi-objective extension (mbr/cost.hpp) only
      // adds non-negative power/area terms.
      MBRC_ASSERT_MSG(cand.weight >= 0.0 && cand.weight < kInf,
                      "set-partition weights must be finite and non-negative");
      input_index.push_back(static_cast<int>(c));
      const double ratio =
          cand.weight / static_cast<double>(cand.elements.size());
      for (int e : cand.elements) min_ratio[e] = std::min(min_ratio[e], ratio);
    }
    std::sort(input_index.begin(), input_index.end(), [&](int a, int b) {
      const double wa = p.candidates[a].weight;
      const double wb = p.candidates[b].weight;
      if (wa != wb) return wa < wb;
      return a < b;  // branching explores equal-weight candidates in id order
    });

    const int count = static_cast<int>(input_index.size());
    words = (count + 63) / 64;
    covering.assign(static_cast<std::size_t>(n) * words, 0);
    alive.assign(static_cast<std::size_t>(n + 1) * words, 0);
    path.resize(n);
    element_mask.resize(count);
    weight.resize(count);
    ratio_sum.resize(count);
    for (int c = 0; c < count; ++c) {
      const auto& cand = p.candidates[input_index[c]];
      element_mask[c] = input_mask[input_index[c]];
      weight[c] = cand.weight;
      double sum = 0.0;
      for (int e : cand.elements) sum += min_ratio[e];
      ratio_sum[c] = sum;
      for (int e : cand.elements) {
        covering[static_cast<std::size_t>(e) * words + c / 64] |=
            std::uint64_t{1} << (c % 64);
        max_ratio_sum[e] = std::max(max_ratio_sum[e], sum);
      }
      alive[c / 64] |= std::uint64_t{1} << (c % 64);
    }
  }

  bool every_element_coverable() const {
    return std::none_of(min_ratio.begin(), min_ratio.end(),
                        [](double r) { return r == kInf; });
  }

  double root_bound() const {
    return std::accumulate(min_ratio.begin(), min_ratio.end(), 0.0);
  }

  // Minimum-remaining-values branching: the uncovered element with the
  // fewest placeable candidates, lowest id on ties. Returns -1 when some
  // uncovered element has none (a dead end).
  int pick_element(std::uint64_t covered, const std::uint64_t* live) const {
    int best = -1;
    int best_count = std::numeric_limits<int>::max();
    for (std::uint64_t open = all_elements & ~covered; open != 0;
         open &= open - 1) {
      const int e = std::countr_zero(open);
      const std::uint64_t* cover = covering_of(e);
      int count = 0;
      for (int w = 0; w < words && count < best_count; ++w)
        count += std::popcount(cover[w] & live[w]);
      if (count == 0) return -1;
      if (count < best_count) {
        best_count = count;
        best = e;
      }
    }
    return best;
  }

  // Keeps path[0..depth) + c + the memoised optimal completion of
  // `covered` (which includes c) when its cost `total` beats the incumbent.
  void offer(int depth, int c, std::uint64_t covered, double total) {
    if (total >= incumbent_value) return;
    incumbent_value = total;
    incumbent.assign(path.begin(), path.begin() + depth);
    incumbent.push_back(c);
    while (covered != all_elements) {
      const int next = memo.find(covered)->choice;
      incumbent.push_back(next);
      covered |= element_mask[next];
    }
  }

  // Solves the completion of `covered` (not all covered; `bound` is the
  // additive lower bound on it, `path_cost` the weight chosen above it)
  // under `limit`: the result is the exact optimum when that is below
  // `limit`, otherwise a lower bound that is at least `limit`. Either way
  // it goes into the memo -- unless the node cap stopped the search, which
  // then unwinds without recording anything.
  Completion expand(int depth, std::uint64_t covered, double path_cost,
                    double bound, double limit) {
    if (nodes == kMaxNodes) stopped = true;
    if (stopped) return {kInf, -1, false};
    ++nodes;
    const std::uint64_t* live = alive_at(depth);
    const int element = pick_element(covered, live);
    Completion result{kInf, -1, true};  // a dead end is exactly infeasible
    if (element >= 0)
      result = branch(depth, covered, path_cost, bound, limit, element);
    if (!stopped) memo.record(covered, result);
    return result;
  }

  Completion branch(int depth, std::uint64_t covered, double path_cost,
                    double bound, double limit, int element) {
    double best = kInf;        // best completion found through a child
    int choice = -1;
    double unexplored = kInf;  // min lower bound over children not solved
    // Children come cheapest first, and a child's bound is at least
    // bound - max_ratio_sum[element], so once even that cannot beat the
    // cut-off no later child can either.
    const double bound_floor = bound - max_ratio_sum[element];
    const std::uint64_t* live = alive_at(depth);
    const std::uint64_t* cover = covering_of(element);
    std::uint64_t* next = alive_at(depth + 1);
    for (int w = 0; w < words; ++w) {
      for (std::uint64_t bits = cover[w] & live[w]; bits != 0;
           bits &= bits - 1) {
        const int c = w * 64 + std::countr_zero(bits);
        const double cut = std::min(limit, best);
        if (weight[c] + bound_floor >= cut) {
          unexplored = std::min(unexplored, weight[c] + bound_floor);
          return close(best, choice, unexplored, limit);
        }
        const std::uint64_t child_covered = covered | element_mask[c];
        Completion child{0.0, -1, true};
        if (child_covered != all_elements) {
          const double child_bound = bound - ratio_sum[c];
          const Completion* known = memo.find(child_covered);
          if (known != nullptr && known->exact) {
            ++memo_hits;
            child = *known;
          } else {
            const double lower = known != nullptr
                                     ? std::max(child_bound, known->value)
                                     : child_bound;
            if (weight[c] + lower >= cut) {
              ++bound_prunes;
              unexplored = std::min(unexplored, weight[c] + lower);
              continue;
            }
            std::copy(live, live + words, next);
            for (std::uint64_t m = element_mask[c]; m != 0; m &= m - 1) {
              const std::uint64_t* dead = covering_of(std::countr_zero(m));
              for (int k = 0; k < words; ++k) next[k] &= ~dead[k];
            }
            path[depth] = c;
            child = expand(depth + 1, child_covered, path_cost + weight[c],
                           child_bound, cut - weight[c]);
            if (stopped) return {kInf, -1, false};
          }
        }
        const double total = weight[c] + child.value;
        if (!child.exact) {
          unexplored = std::min(unexplored, total);
        } else if (total < best) {
          best = total;
          choice = c;
          offer(depth, c, child_covered, path_cost + total);
        }
      }
    }
    return close(best, choice, unexplored, limit);
  }

  // Every child not solved exactly was set aside for a lower bound of at
  // least the cut-off min(limit, best) in force at the time, so when best
  // is below `limit` it is the exact optimum; otherwise nothing under
  // `limit` exists and the smallest bound seen is proven.
  static Completion close(double best, int choice, double unexplored,
                          double limit) {
    if (best < limit) return {best, choice, true};
    return {std::min(best, unexplored), -1, false};
  }
};

}  // namespace

SetPartitionResult solve_set_partition(const SetPartitionProblem& problem,
                                       const SetPartitionOptions&) {
  SetPartitionResult result;
  if (problem.element_count == 0) {
    result.feasible = true;
    return result;
  }
  obs::Span span("ilp.set_partition");
  Search search(problem);
  if (!search.every_element_coverable()) return result;
  const Completion root =
      search.expand(0, 0, 0.0, search.root_bound(), kInf);
  result.nodes_explored = search.nodes;

  // One flush per solve: work counts, never wall time (DESIGN.md §11).
  static obs::Counter& c_solves = obs::counter("ilp.set_partition.solves");
  static obs::Counter& c_nodes = obs::counter("ilp.set_partition.nodes");
  static obs::Counter& c_prunes =
      obs::counter("ilp.set_partition.bound_prunes");
  static obs::Counter& c_memo_hits =
      obs::counter("ilp.set_partition.memo_hits");
  static obs::Counter& c_budget_hits =
      obs::counter("ilp.set_partition.budget_hits");
  static obs::Histogram& h_nodes =
      obs::histogram("ilp.set_partition.nodes_per_solve");
  static obs::Histogram& h_memo =
      obs::histogram("ilp.set_partition.memo_entries_per_solve");
  c_solves.add(1);
  c_nodes.add(search.nodes);
  c_prunes.add(search.bound_prunes);
  c_memo_hits.add(search.memo_hits);
  h_nodes.record(search.nodes);
  h_memo.record(static_cast<std::int64_t>(search.memo.size()));
  if (search.stopped) {
    c_budget_hits.add(1);
    result.budget_hit = true;
    if (search.incumbent.empty()) return result;
    result.feasible = true;
    for (int c : search.incumbent)
      result.chosen.push_back(search.input_index[c]);
    std::sort(result.chosen.begin(), result.chosen.end());
    for (int c : result.chosen)
      result.objective += problem.candidates[c].weight;
    return result;
  }
  if (root.value == kInf) return result;
  result.feasible = true;
  result.objective = root.value;
  // Walk the recorded first-optimal choices from the empty mask down.
  for (std::uint64_t covered = 0; covered != search.all_elements;) {
    const int c = search.memo.find(covered)->choice;
    result.chosen.push_back(search.input_index[c]);
    covered |= search.element_mask[c];
  }
  std::sort(result.chosen.begin(), result.chosen.end());
  return result;
}

}  // namespace mbrc::ilp
