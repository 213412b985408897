//===- complete/Streams.h - Concrete candidate streams ----------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream classes the engine composes to realize each partial
/// expression form:
///
///   ConcreteStream     a complete expression used verbatim
///   DontCareStream     `0`
///   VarsStream         locals, parameters, `this`, and globals (the `vars`
///                      of §4.2's interpretation of `?` as `vars.?*m`)
///   SuffixStream       `.?f` / `.?*f` / `.?m` / `.?*m` frontier expansion
///   UnknownCallStream  `?({...})` over the method index
///   KnownCallStream    `name(...)` over a resolved overload set
///   BinaryStream       `ee := ee` and `ee < ee` pairing
///   MergeStream        union of streams
///
/// These are internal to the engine but exposed for white-box testing.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_COMPLETE_STREAMS_H
#define PETAL_COMPLETE_STREAMS_H

#include "code/Code.h"
#include "code/ExprFactory.h"
#include "complete/Candidate.h"
#include "index/MemberCache.h"
#include "index/MethodIndex.h"
#include "index/ReachabilityIndex.h"
#include "partial/PartialExpr.h"
#include "rank/Ranking.h"

#include <memory>
#include <vector>

namespace petal {

/// Shared, per-query state threaded through all streams.
struct EngineState {
  TypeSystem *TS = nullptr;
  ExprFactory *Factory = nullptr; ///< allocates into the query arena
  const Ranker *Rank = nullptr;
  const MethodIndex *MIndex = nullptr;
  const MemberCache *Members = nullptr;
  const ReachabilityIndex *Reach = nullptr; ///< optional pruning index
  const CodeClass *Class = nullptr;
  const CodeMethod *Method = nullptr;
  size_t StmtIndex = static_cast<size_t>(-1);
  /// Exploration cap: buckets beyond this score are never requested.
  int MaxScore = 48;
  /// Hard ceiling stamped onto every stream (CandidateStream::setCeiling):
  /// bucket storage cannot grow past it regardless of MaxScore, so a
  /// hostile or misconfigured MaxScore cannot exhaust memory. The engine
  /// clamps its own loop to min(MaxScore, ScoreCeiling).
  int ScoreCeiling = 256;
  /// Star-suffix chain-length cap. The paper's generator is unbounded; a
  /// practical engine must bound the frontier because the number of chains
  /// grows exponentially with length. Values the experiments strip are at
  /// most three lookups deep, so this does not affect measured ranks.
  int MaxChainLen = 4;
  /// Safety valve on the per-bucket expansion frontier of one star suffix.
  size_t MaxPoolPerBucket = 4096;
  /// Per-query scratch arena backing the streams' bucket storage, expansion
  /// pools, pending combinations and their argument arrays (see
  /// CandidateVec). Distinct from the query
  /// *result* arena (ExprFactory's): the result arena is handed to the
  /// caller with the completions, while scratch dies with the query, so
  /// batched results do not retain dead enumeration storage. Null = heap.
  Arena *Scratch = nullptr;
  /// Enumeration counters of this query, fed by every stream.
  QueryCounters Counts;
};

/// Builds the stream for a partial expression. \p Target, when valid,
/// restricts *emitted* candidates to those implicitly convertible to it
/// (expansion may still pass through other types) and enables
/// reachability pruning.
std::unique_ptr<CandidateStream>
buildStream(EngineState &ES, const PartialExpr *PE, TypeId Target = InvalidId);

/// A single complete expression, emitted at its ranking score.
class ConcreteStream : public CandidateStream {
public:
  ConcreteStream(EngineState &ES, const Expr *E, TypeId Target);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  Candidate C;
  bool Suppressed;
};

/// The `0` placeholder: one DontCareExpr at score 0.
class DontCareStream : public CandidateStream {
public:
  explicit DontCareStream(EngineState &ES);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  Candidate C;
};

/// Locals, parameters, `this`, and globals (static fields and nullary
/// static methods of every type). Locals score 0; globals pay one lookup
/// step (`Type.Member` is one dot).
class VarsStream : public CandidateStream {
public:
  explicit VarsStream(EngineState &ES);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  EngineState &ES;
  bool EmittedLocals = false;
  bool EmittedGlobals = false;
};

/// `base.?f` / `.?*f` / `.?m` / `.?*m`: emits the base candidates (any
/// suffix may complete to nothing) plus one or, for the star forms, any
/// number of lookup steps. With a Target and a ReachabilityIndex, states
/// that can never reach a convertible type are pruned.
class SuffixStream : public CandidateStream {
public:
  SuffixStream(EngineState &ES, std::unique_ptr<CandidateStream> Base,
               SuffixKind Kind, TypeId Target);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  /// Appends \p C's single-step expansions (score += step) that are
  /// emitted to \p Out and, while \p Next holds fewer than \p NextCap,
  /// those worth expanding to \p Next. Only those are built.
  void expand(const Candidate &C, CandidateVec &Out, CandidateVec *Next,
              size_t NextCap);
  bool emits(const Candidate &C) const;
  bool worthExpanding(const Candidate &C) const;

  EngineState &ES;
  std::unique_ptr<CandidateStream> Base;
  SuffixKind Kind;
  TypeId Target;
  /// Pool[S]: all chain states (emitted or not) of score S, the expansion
  /// frontier for score S + step. Arena-backed like the buckets.
  std::vector<CandidateVec> Pool;
};

/// One scored combination waiting for its bucket. Its expression is built
/// only when the bucket is drained: until then it is the callee, the result
/// type, and an array of argument expressions — the call-signature
/// arguments (null where `0` fills a position) or the {lhs, rhs} pair.
struct PendingCombo {
  uint64_t Tie; ///< drain order within a bucket, when sorted (see drain())
  const Expr **Args;
  MethodId M;
  TypeId Type;
};

/// Shared machinery of the call and binary streams: combinations scored
/// from their parts wait in a bucket queue indexed by score (the paper's
/// "out of score order" buffer) and become expressions when their bucket
/// is drained. Scores beyond the stream's ceiling are never requested, so
/// such combinations are counted and dropped.
class ComboStream : public CandidateStream {
protected:
  explicit ComboStream(EngineState &ES);

  /// Queues a combination of score \p Score and returns its argument
  /// array of \p NumArgs slots for the caller to fill, or nullptr when
  /// the score lies beyond the ceiling. The array lives in the query
  /// scratch arena, or in an arena of this stream's own without one.
  const Expr **queue(int Score, uint64_t Tie, size_t NumArgs, MethodId M,
                     TypeId Type);

  /// Builds the combinations of score \p S into \p Out in queue order,
  /// or, with \p SortByTie, in Tie order (queue order among equal ties).
  void drain(int S, CandidateVec &Out, bool SortByTie);

  /// Builds the expression of a drained combination.
  virtual const Expr *materialise(const PendingCombo &C) = 0;

  EngineState &ES;

private:
  using ComboVec = std::vector<PendingCombo, ArenaAllocator<PendingCombo>>;
  std::vector<ComboVec> Pending; ///< Pending[S]: queued combinations of S
  std::unique_ptr<Arena> OwnArgs; ///< argument arrays without a scratch arena
};

/// `?({e1, ..., en})`: unknown-method calls over the method index. For each
/// new combination of argument candidates, the index bucket of the
/// most-selective argument type is scanned, arguments are placed injectively
/// into call-signature positions (best-scoring placement per method), and
/// unfilled positions become `0`.
class UnknownCallStream : public ComboStream {
public:
  UnknownCallStream(EngineState &ES,
                    std::vector<std::unique_ptr<CandidateStream>> Args,
                    TypeId Target);

  /// An argument candidate with its abstract-type variable looked up once.
  struct Pick {
    const Expr *E;
    int Score;
    TypeId Type;
    uint32_t Var;
  };

private:
  void fillBucket(int S, CandidateVec &Out) override;
  const Expr *materialise(const PendingCombo &C) override;
  const std::vector<Pick> &picks(size_t I, int S);
  void enumerateMethods(const Pick *const *Combo, int ArgScore);
  void tryMethod(MethodId M, const Pick *const *Combo, int ArgScore);

  std::vector<std::unique_ptr<CandidateStream>> Args;
  TypeId Target;
  std::vector<std::vector<std::vector<Pick>>> Picks; ///< [arg][score]
  int CombosDone = -1; ///< all combos with sum <= this were processed
  uint64_t Seq = 0;
  /// Placement search buffers, reused across methods.
  std::vector<int> StepCost, PosOfArg, BestPos, CostAt;
};

/// `name(e1, ..., en)` for one resolved method: positional matching of the
/// call-signature arguments.
class KnownCallStream : public ComboStream {
public:
  KnownCallStream(EngineState &ES, MethodId M,
                  std::vector<std::unique_ptr<CandidateStream>> Args,
                  TypeId Target);

  /// A type-correct argument candidate with its per-argument costs (type
  /// distance plus abstract type, and its namespace similarity), computed
  /// once per candidate.
  struct Pick {
    const Expr *E;
    int Score;
    int Cost;
    int NsSim;
    TypeId Type;
  };

private:
  void fillBucket(int S, CandidateVec &Out) override;
  const Expr *materialise(const PendingCombo &C) override;
  const std::vector<Pick> &picks(size_t I, int S);
  void scoreCombo(const Pick *const *Combo, int ArgScore);

  MethodId M;
  std::vector<std::unique_ptr<CandidateStream>> Args;
  std::vector<std::vector<std::vector<Pick>>> Picks; ///< [arg][score]
  /// The return type never converts to the target: nothing to enumerate.
  bool Dead;
  /// No declared parameters: the call scores as one lookup step on its
  /// receiver, exactly as Ranker::scoreExpr treats it.
  bool LookupStep;
  /// The abstract cost of declared arguments depends on the receiver's
  /// type, so it is charged per combination.
  bool ReceiverDependent;
  int CallCost; ///< the call's own dot plus, for real calls, in-scope static
  int CombosDone = -1;
};

/// `ee := ee` / `ee < ee`: pairs left and right candidates, grouped by
/// type so compatibility is checked once per type pair.
class BinaryStream : public ComboStream {
public:
  /// \p IsCompare selects comparison semantics; otherwise assignment.
  BinaryStream(EngineState &ES, bool IsCompare, CompareOp Op,
               std::unique_ptr<CandidateStream> Lhs,
               std::unique_ptr<CandidateStream> Rhs, TypeId Target);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  const Expr *materialise(const PendingCombo &C) override;
  void crossJoin(const CandidateVec &L, const CandidateVec &R);
  void scorePair(const Candidate &L, const Candidate &R);

  bool IsCompare;
  CompareOp Op;
  std::unique_ptr<CandidateStream> Lhs, Rhs;
  TypeId Target;
  int DiagDone = -1;
};

/// Union of several streams (used for overload sets of known calls).
class MergeStream : public CandidateStream {
public:
  MergeStream(EngineState &ES,
              std::vector<std::unique_ptr<CandidateStream>> Children)
      : Children(std::move(Children)) {
    setCeiling(ES.ScoreCeiling);
    setScratch(ES.Scratch);
    setCounters(&ES.Counts);
  }

private:
  void fillBucket(int S, CandidateVec &Out) override {
    for (auto &C : Children) {
      const auto &B = C->bucket(S);
      Out.insert(Out.end(), B.begin(), B.end());
    }
  }
  std::vector<std::unique_ptr<CandidateStream>> Children;
};

} // namespace petal

#endif // PETAL_COMPLETE_STREAMS_H
