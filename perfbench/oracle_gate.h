#ifndef VIEWJOIN_PERFBENCH_ORACLE_GATE_H_
#define VIEWJOIN_PERFBENCH_ORACLE_GATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace viewjoin::perfbench {

/// The oracle's answer to one query at one document epoch.
struct Expected {
  uint64_t match_count = 0;
  uint64_t result_hash = 0;
};

/// Expected answers per (epoch, query), filled from the naive evaluator
/// before any server exists. Epoch k is the document after k update
/// batches; a read-only workload has exactly one epoch.
///
/// A reply is accepted when it equals the oracle at some epoch in
/// [lo, hi]: lo = batches acknowledged before the query was sent (those are
/// certainly visible), hi = batches sent before its reply arrived (no later
/// batch can have reached the server). Anything else fails the run.
class EpochOracle {
 public:
  explicit EpochOracle(size_t queries) : queries_(queries) {}

  /// Appends the next epoch; `answers` holds one entry per query.
  void AddEpoch(const std::vector<Expected>& answers) {
    table_.insert(table_.end(), answers.begin(), answers.end());
  }

  size_t epochs() const { return queries_ == 0 ? 0 : table_.size() / queries_; }
  size_t queries() const { return queries_; }

  const Expected& At(size_t epoch, size_t query) const {
    return table_[epoch * queries_ + query];
  }
  Expected& MutableAt(size_t epoch, size_t query) {
    return table_[epoch * queries_ + query];
  }

  bool Accepts(size_t query, uint64_t match_count, uint64_t result_hash,
               size_t lo, size_t hi) const {
    if (query >= queries_ || epochs() == 0 || lo > hi) return false;
    if (hi >= epochs()) hi = epochs() - 1;
    for (size_t e = lo; e <= hi; ++e) {
      const Expected& want = At(e, query);
      if (want.match_count == match_count && want.result_hash == result_hash) {
        return true;
      }
    }
    return false;
  }

 private:
  size_t queries_;
  std::vector<Expected> table_;
};

}  // namespace viewjoin::perfbench

#endif  // VIEWJOIN_PERFBENCH_ORACLE_GATE_H_
