//===- complete/Candidate.h - Score-bucketed candidate streams --*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine realizes the paper's Algorithm 1 ("foreach score in [0, inf)")
/// with *score-bucketed candidate streams*: every partial expression
/// compiles to a stream that can produce, for each integer score S in
/// increasing order, exactly the completions whose total score is S.
/// Composite streams (unknown calls, comparisons, ...) combine child
/// buckets whose sums fit under S, score each combination from its parts,
/// and queue any overshoot by score until its bucket is drained, building
/// the expression only then — the paper's "compute completions not in
/// score order" and "cache subexpression scores" optimizations fall out of
/// this design.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_COMPLETE_CANDIDATE_H
#define PETAL_COMPLETE_CANDIDATE_H

#include "code/Expr.h"
#include "model/Ids.h"
#include "support/Arena.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace petal {

/// One completion candidate: an expression, its total ranking score, its
/// static type (InvalidId for don't-cares), and the number of lookup steps
/// already chained onto it (bounds star-suffix exploration).
struct Candidate {
  const Expr *E = nullptr;
  int Score = 0;
  TypeId Type = InvalidId;
  int Depth = 0;
};

/// The bucket container: candidates are POD, so backing these vectors with
/// the engine's per-query scratch arena makes the whole enumeration phase
/// allocate from bump storage that is reclaimed wholesale when the query
/// ends. A default-constructed CandidateVec (no arena) uses the heap,
/// which keeps streams usable standalone in tests.
using CandidateVec = std::vector<Candidate, ArenaAllocator<Candidate>>;

/// Per-query enumeration counters, shared by every stream of one query
/// (surfaced as CompletionEngine::QueryStats and summed into $/stats).
struct QueryCounters {
  /// Call, comparison and assignment combinations that type-checked and
  /// were scored.
  uint64_t CombosScored = 0;
  /// Combinations whose bucket was drained, so their expression was built
  /// (never more than CombosScored).
  uint64_t ExprsMaterialised = 0;
  /// Buckets filled, summed over every stream.
  uint64_t BucketsScanned = 0;
};

/// Base class of all candidate streams. bucket(S) returns the candidates of
/// exactly score S; buckets are computed on demand, strictly in order, and
/// cached so a stream may be consumed by several parents.
///
/// Bucket storage grows with the highest score requested, so every stream
/// carries a *score ceiling* (set from EngineState::ScoreCeiling at
/// construction): buckets beyond it are permanently empty and allocate
/// nothing, which cleanly terminates enumeration no matter how large a
/// MaxScore a caller asks for.
class CandidateStream {
public:
  virtual ~CandidateStream() = default;

  /// All candidates with score exactly \p S (deterministic order). Beyond
  /// the ceiling the bucket is empty and the hit flag latches.
  const CandidateVec &bucket(int S) {
    assert(S >= 0 && "negative score bucket");
    if (Ceiling >= 0 && S > Ceiling) {
      CeilingHit = true;
      return EmptyBucket;
    }
    while (static_cast<int>(Buckets.size()) <= S) {
      int Cur = static_cast<int>(Buckets.size());
      Buckets.emplace_back(ArenaAllocator<Candidate>(Scratch));
      if (Counters)
        ++Counters->BucketsScanned;
      fillBucket(Cur, Buckets.back());
    }
    return Buckets[S];
  }

  /// Caps bucket growth at score \p C (-1 = unlimited).
  void setCeiling(int C) { Ceiling = C; }
  int ceiling() const { return Ceiling; }

  /// Backs all future bucket storage with \p A (nullptr = heap). Streams
  /// set this from EngineState::Scratch at construction, so every bucket a
  /// query fills lives in the query's scratch arena.
  void setScratch(Arena *A) { Scratch = A; }
  Arena *scratch() const { return Scratch; }

  /// Counts this stream's bucket fills into \p C (nullptr = uncounted).
  void setCounters(QueryCounters *C) { Counters = C; }

  /// Whether a bucket beyond the ceiling was ever requested.
  bool ceilingHit() const { return CeilingHit; }

protected:
  /// Computes the candidates of score \p S into \p Out. Called exactly once
  /// per S, in increasing order.
  virtual void fillBucket(int S, CandidateVec &Out) = 0;

private:
  std::vector<CandidateVec> Buckets;
  Arena *Scratch = nullptr;
  QueryCounters *Counters = nullptr;
  int Ceiling = -1;
  bool CeilingHit = false;
  static inline const CandidateVec EmptyBucket{};
};

} // namespace petal

#endif // PETAL_COMPLETE_CANDIDATE_H
