//===- rank/Ranking.h - The Fig. 7 ranking function -------------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's ranking function (§4.1, Fig. 7). Scores are non-negative
/// integers; lower is better. The total score of a completion is the sum of:
///
///  * subexpression scores — arguments of calls and operands of binary
///    operators are scored recursively;
///  * type distance (t) — td(type(arg), type(param)) per argument, with the
///    receiver as call-signature argument 0; binary operators use the
///    distance between the two operand types (towards the more general);
///  * abstract type distance (a) — +1 per argument whose inferred abstract
///    type differs from the parameter's (two undefined abstract types count
///    as different, per the paper's note);
///  * depth (d) — 2 × dots(expr), where dots counts the member accesses on
///    the expression's own spine (dots inside subexpressions are not
///    recounted). A lookup chain such as `this.bar.ToBaz()` therefore costs
///    2 per step; zero-argument method steps inside chains are pure lookups
///    and do NOT receive the call tweaks below (this matches Fig. 3, where
///    `shapeStyle.GetSampleGlyph().RenderTransformOrigin` ties with
///    two-field chains);
///  * in-scope static (s) — +1 if the callee is an instance method or a
///    static method not callable unqualified from the enclosing type;
///  * common namespace (n) — 3 − min(3, |common namespace prefix|) over the
///    defining class and all non-primitive argument types; the similarity
///    is forced to 0 when at most one argument is non-primitive (string
///    counts as primitive here);
///  * matching name (m) — +3 on comparisons whose sides do not end in
///    same-named lookups (constants have no name and always pay it).
///
/// Each term can be disabled independently (RankingOptions) to reproduce
/// the paper's Table 2 sensitivity analysis. Disabling the type-distance
/// term never disables type *checking* — candidates must still be
/// well-typed; only the cost contribution is dropped.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_RANK_RANKING_H
#define PETAL_RANK_RANKING_H

#include "code/Code.h"
#include "code/Expr.h"
#include "infer/AbstractTypes.h"
#include "model/TypeSystem.h"
#include "rank/ScoreCard.h"
#include "support/Arena.h"
#include "support/Span.h"

#include <cstdint>
#include <string>
#include <vector>

namespace petal {

/// Feature toggles for the ranking function, named after the paper's
/// Table 2 column letters.
struct RankingOptions {
  bool UseNamespace = true;     ///< n
  bool UseInScopeStatic = true; ///< s
  bool UseDepth = true;         ///< d
  bool UseMatchingName = true;  ///< m
  bool UseTypeDistance = true;  ///< t
  bool UseAbstractTypes = true; ///< a

  /// The full ranking function ("All").
  static RankingOptions all() { return RankingOptions(); }

  /// No terms at all (rank is purely type-correctness + tie order).
  static RankingOptions none() {
    RankingOptions O;
    O.UseNamespace = O.UseInScopeStatic = O.UseDepth = O.UseMatchingName =
        O.UseTypeDistance = O.UseAbstractTypes = false;
    return O;
  }

  /// Parses a Table 2 style spec: "all", "none", "-nd" (all minus terms),
  /// or "+ta" (only those terms). Duplicate letters are accepted and
  /// normalized; an unknown letter (or a spec that is neither a keyword nor
  /// sign-prefixed) is rejected with a message in \p Error.
  static bool fromSpec(const std::string &Spec, RankingOptions &Out,
                       std::string &Error);

  /// Convenience overload for specs known valid at the call site (literals
  /// in tests and benches). Asserts on an invalid spec.
  static RankingOptions fromSpec(const std::string &Spec);

  /// The Table 2 style spec string of this option set.
  std::string spec() const;

  /// The toggle owning \p T (so term-generic code need not switch on six
  /// booleans).
  bool &use(ScoreTerm T);
  bool uses(ScoreTerm T) const;
};

/// Scores completions. One Ranker is configured per query: it needs the
/// type system, the feature toggles, and (for the abstract-type term) the
/// solved inference plus the enclosing method and type of the query site.
class Ranker {
public:
  Ranker(const TypeSystem &TS, RankingOptions Opts)
      : TS(TS), Opts(Opts) {}

  /// Enables the abstract-type term. \p Infer and \p Solution must outlive
  /// the Ranker; \p ContextMethod is the method enclosing the query (used
  /// to resolve local-variable abstract types).
  void setAbstractTypes(const AbstractTypeInference *Infer,
                        const AbsTypeSolution *Solution,
                        const CodeMethod *ContextMethod) {
    this->Infer = Infer;
    this->Solution = Solution;
    this->ContextMethod = ContextMethod;
  }

  /// Sets the enclosing type of the query site, which determines which
  /// static methods are "in scope".
  void setSelfType(TypeId T) { SelfType = T; }

  /// Backs the standalone scorers' transient per-call argument buffers with
  /// \p A (the engine passes its per-query scratch arena). This is what
  /// makes the post-hoc explain pass (scoreCard over every survivor) cheap:
  /// each call node visited used to heap-allocate its argument vector; with
  /// a scratch arena they bump-allocate instead. Null = heap.
  void setScratchArena(Arena *A) { Scratch = A; }
  Arena *scratchArena() const { return Scratch; }

  const RankingOptions &options() const { return Opts; }
  const TypeSystem &typeSystem() const { return TS; }
  const AbstractTypeInference *abstractInference() const { return Infer; }
  const AbsTypeSolution *abstractSolution() const { return Solution; }
  const CodeMethod *contextMethod() const { return ContextMethod; }
  TypeId selfType() const { return SelfType; }

  //===--------------------------------------------------------------------===
  // Incremental pieces (used by the completion engine)
  //
  // Each piece funds exactly one ScoreTerm, so the engine's incremental
  // score and the structured ScoreCard are sums of the same named costs:
  //   lookupStepCost            -> ScoreTerm::Depth
  //   typeDistanceCost,
  //   operandDistanceCost       -> ScoreTerm::TypeDistance
  //   abstractArgCost,
  //   abstractOperandCost       -> ScoreTerm::AbstractType
  //   inScopeStaticCost         -> ScoreTerm::InScopeStatic
  //   namespaceCost             -> ScoreTerm::Namespace
  //   compareNameCost           -> ScoreTerm::MatchingName
  //===--------------------------------------------------------------------===

  /// Cost of one lookup step (a dot): 2, or 0 with depth disabled.
  int lookupStepCost() const { return Opts.UseDepth ? 2 : 0; }

  /// Type-distance cost of using a \p From value where \p To is expected.
  /// The conversion must exist (asserted); returns 0 with the term off.
  int typeDistanceCost(TypeId From, TypeId To) const;

  /// Distance between two binary-operator operands (towards the more
  /// general type).
  int operandDistanceCost(TypeId A, TypeId B) const;

  /// Abstract-type mismatch cost between an argument expression and a
  /// call-signature parameter of \p M (receiver type \p RecvTy selects
  /// Object-method specializations).
  int abstractArgCost(const Expr *Arg, MethodId M, size_t CallParamIdx,
                      TypeId RecvTy) const {
    return abstractArgCostOfVar(abstractVarOf(Arg), M, CallParamIdx, RecvTy);
  }

  /// The abstract-type variable of \p E at the query site (NoVar with the
  /// term off), so a stream can look it up once per candidate.
  uint32_t abstractVarOf(const Expr *E) const;

  /// abstractArgCost for an argument whose variable is \p ArgVar.
  int abstractArgCostOfVar(uint32_t ArgVar, MethodId M, size_t CallParamIdx,
                           TypeId RecvTy) const;

  /// True when abstractArgCost of \p M's declared parameters depends on
  /// the receiver's type (an instance method declared on Object, whose
  /// abstract types are specialized per receiver type).
  bool abstractArgCostVariesWithReceiver(MethodId M) const;

  /// Abstract-type mismatch cost between two operand expressions.
  int abstractOperandCost(const Expr *A, const Expr *B) const;

  /// The in-scope-static penalty for a call to \p M: +1 unless the callee
  /// is a static method callable unqualified from the enclosing type.
  int inScopeStaticCost(MethodId M) const;

  /// The common-namespace penalty for a call to \p M whose call-signature
  /// arguments are \p CallArgs (receiver included for instance methods;
  /// DontCare arguments are skipped). Takes a Span so arena-backed and
  /// plain vectors both pass without conversion.
  int namespaceCost(MethodId M, Span<const Expr *> CallArgs) const;

  /// One call-signature argument's part in the namespace term of a call to
  /// a method owned by \p Owner: -1 when \p Arg takes no part (don't-care,
  /// untyped, primitive, or string), else how many leading namespace
  /// segments its type shares with \p Owner's, capped at
  /// NamespaceInfo::MaxPrefix. Fixed per (owner, argument), so streams
  /// compute it once per candidate.
  int namespaceSimilarity(TypeId Owner, const Expr *Arg) const;

  /// Folds namespaceSimilarity values into the namespace term.
  struct NamespaceTally {
    int Count = 0; ///< arguments taking part
    int Min = static_cast<int>(NamespaceInfo::MaxPrefix);
    void add(int Sim) {
      if (Sim < 0)
        return;
      ++Count;
      Min = Sim < Min ? Sim : Min;
    }
  };

  /// The namespace penalty of a tallied call: similarity is forced to 0
  /// when at most one argument takes part; 0 with the term off.
  int namespaceCost(const NamespaceTally &T) const {
    if (!Opts.UseNamespace)
      return 0;
    return static_cast<int>(NamespaceInfo::MaxPrefix) -
           (T.Count >= 2 ? T.Min : 0);
  }

  /// The matching-name penalty for a comparison of \p L and \p R.
  int compareNameCost(const Expr *L, const Expr *R) const;

  //===--------------------------------------------------------------------===
  // Standalone scorers (the executable specification)
  //===--------------------------------------------------------------------===

  /// Scores a complete expression exactly as the engine's incremental
  /// computation would. Used by tests as the oracle and by clients that
  /// want to score expressions they built themselves.
  int scoreExpr(const Expr *E) const;

  /// The per-term decomposition of scoreExpr(E): the same single traversal
  /// with a structured accumulator, so scoreCard(E).total() == scoreExpr(E)
  /// bit-for-bit under every RankingOptions configuration. Terms disabled
  /// in the options contribute zero.
  ScoreCard scoreCard(const Expr *E) const;

private:
  const TypeSystem &TS;
  RankingOptions Opts;
  const AbstractTypeInference *Infer = nullptr;
  const AbsTypeSolution *Solution = nullptr;
  const CodeMethod *ContextMethod = nullptr;
  TypeId SelfType = InvalidId;
  Arena *Scratch = nullptr;
};

} // namespace petal

#endif // PETAL_RANK_RANKING_H
