//===- rank/Ranking.cpp - The Fig. 7 ranking function ---------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "rank/Ranking.h"

#include <algorithm>
#include <cassert>

using namespace petal;

//===----------------------------------------------------------------------===//
// RankingOptions
//===----------------------------------------------------------------------===//

bool &RankingOptions::use(ScoreTerm T) {
  switch (T) {
  case ScoreTerm::TypeDistance:
    return UseTypeDistance;
  case ScoreTerm::AbstractType:
    return UseAbstractTypes;
  case ScoreTerm::Depth:
    return UseDepth;
  case ScoreTerm::InScopeStatic:
    return UseInScopeStatic;
  case ScoreTerm::Namespace:
    return UseNamespace;
  case ScoreTerm::MatchingName:
    return UseMatchingName;
  }
  return UseTypeDistance; // unreachable
}

bool RankingOptions::uses(ScoreTerm T) const {
  return const_cast<RankingOptions *>(this)->use(T);
}

bool RankingOptions::fromSpec(const std::string &Spec, RankingOptions &Out,
                              std::string &Error) {
  if (Spec == "all" || Spec.empty()) {
    Out = all();
    return true;
  }
  if (Spec == "none") {
    Out = none();
    return true;
  }
  if (Spec[0] != '+' && Spec[0] != '-') {
    Error = "ranking spec must be 'all', 'none', or '+'/'-' followed by "
            "term letters (got '" +
            Spec + "')";
    return false;
  }
  if (Spec.size() == 1) {
    Error = "ranking spec '" + Spec +
            "' names no terms (expected letters from 'tadsnm')";
    return false;
  }
  bool Add = Spec[0] == '+';
  RankingOptions O = Add ? none() : all();
  for (size_t I = 1; I < Spec.size(); ++I) {
    bool Known = false;
    for (ScoreTerm T : AllScoreTerms) {
      if (Spec[I] == scoreTermLetter(T)) {
        O.use(T) = Add; // duplicates normalize to the same state
        Known = true;
        break;
      }
    }
    if (!Known) {
      Error = std::string("unknown ranking term letter '") + Spec[I] +
              "' in spec '" + Spec + "' (valid letters: t a d s n m)";
      return false;
    }
  }
  Out = O;
  return true;
}

RankingOptions RankingOptions::fromSpec(const std::string &Spec) {
  RankingOptions O;
  std::string Error;
  bool Ok = fromSpec(Spec, O, Error);
  assert(Ok && "invalid ranking spec literal");
  (void)Ok;
  return O;
}

std::string RankingOptions::spec() const {
  int On = UseNamespace + UseInScopeStatic + UseDepth + UseMatchingName +
           UseTypeDistance + UseAbstractTypes;
  if (On == 6)
    return "all";
  if (On == 0)
    return "none";
  bool Add = On <= 3;
  std::string S(1, Add ? '+' : '-');
  auto Emit = [&](bool Flag, char C) {
    if (Flag == Add)
      S.push_back(C);
  };
  Emit(UseNamespace, 'n');
  Emit(UseInScopeStatic, 's');
  Emit(UseDepth, 'd');
  Emit(UseMatchingName, 'm');
  Emit(UseTypeDistance, 't');
  Emit(UseAbstractTypes, 'a');
  return S;
}

//===----------------------------------------------------------------------===//
// Incremental pieces
//===----------------------------------------------------------------------===//

int Ranker::typeDistanceCost(TypeId From, TypeId To) const {
  if (!Opts.UseTypeDistance)
    return 0;
  auto D = TS.typeDistance(From, To);
  assert(D && "typeDistanceCost on a non-convertible pair");
  return D ? *D : 0;
}

int Ranker::operandDistanceCost(TypeId A, TypeId B) const {
  if (!Opts.UseTypeDistance)
    return 0;
  auto D = TS.operandDistance(A, B);
  assert(D && "operandDistanceCost on an unrelated pair");
  return D ? *D : 0;
}

uint32_t Ranker::abstractVarOf(const Expr *E) const {
  if (!Opts.UseAbstractTypes || !Infer || !Solution)
    return AbstractTypeInference::NoVar;
  return Infer->varOfExpr(E, ContextMethod);
}

int Ranker::abstractArgCostOfVar(uint32_t ArgVar, MethodId M,
                                 size_t CallParamIdx, TypeId RecvTy) const {
  if (!Opts.UseAbstractTypes || !Infer || !Solution)
    return 0;
  uint32_t ParamVar = Infer->varOfCallParam(M, CallParamIdx, RecvTy);
  return Solution->sameAbstractType(ArgVar, ParamVar) ? 0 : 1;
}

bool Ranker::abstractArgCostVariesWithReceiver(MethodId M) const {
  if (!Opts.UseAbstractTypes || !Infer || !Solution || TS.method(M).IsStatic)
    return false;
  return TS.method(Infer->baseDeclaration(M)).Owner == TS.objectType();
}

int Ranker::abstractOperandCost(const Expr *A, const Expr *B) const {
  if (!Opts.UseAbstractTypes || !Infer || !Solution)
    return 0;
  uint32_t VA = Infer->varOfExpr(A, ContextMethod);
  uint32_t VB = Infer->varOfExpr(B, ContextMethod);
  return Solution->sameAbstractType(VA, VB) ? 0 : 1;
}

int Ranker::inScopeStaticCost(MethodId M) const {
  if (!Opts.UseInScopeStatic)
    return 0;
  // +1 unless the callee is a static method callable unqualified from the
  // enclosing type (its owner is the enclosing type or an ancestor).
  const MethodInfo &MI = TS.method(M);
  bool InScopeStatic = MI.IsStatic && isValidId(SelfType) &&
                       TS.implicitlyConvertible(SelfType, MI.Owner);
  return InScopeStatic ? 0 : 1;
}

int Ranker::namespaceSimilarity(TypeId Owner, const Expr *Arg) const {
  if (isa<DontCareExpr>(Arg) || !isValidId(Arg->type()) ||
      TS.isPrimitiveLike(Arg->type()))
    return -1;
  return TS.commonNamespacePrefix(Owner, Arg->type());
}

int Ranker::namespaceCost(MethodId M, Span<const Expr *> CallArgs) const {
  if (!Opts.UseNamespace)
    return 0;
  // Common namespace prefix over the owner and all non-primitive argument
  // types. Each argument's prefix with the owner's bounds the prefix common
  // to all of them, so the minimum over the arguments is that prefix.
  TypeId Owner = TS.method(M).Owner;
  NamespaceTally T;
  for (const Expr *Arg : CallArgs)
    T.add(namespaceSimilarity(Owner, Arg));
  return namespaceCost(T);
}

int Ranker::compareNameCost(const Expr *L, const Expr *R) const {
  if (!Opts.UseMatchingName)
    return 0;
  std::string NL = finalLookupName(TS, L);
  std::string NR = finalLookupName(TS, R);
  if (!NL.empty() && NL == NR)
    return 0;
  return 3;
}

//===----------------------------------------------------------------------===//
// Standalone scorers
//===----------------------------------------------------------------------===//

namespace {

/// The two accumulators the shared traversal below is instantiated with.
/// ScalarCost is the hot-path representation (one int, exactly the
/// historical arithmetic); CardCost tags every charge with its ScoreTerm.
/// One traversal, two views — which is what makes scoreCard().total()
/// bit-identical to scoreExpr() under every option set.
struct ScalarCost {
  int V = 0;
  void charge(ScoreTerm, int Cost) { V += Cost; }
  /// Folds a finished subexpression cost into this one. \p Rollup marks
  /// charges that cross a subexpression boundary (ignored here).
  void fold(const ScalarCost &Sub, bool Rollup) {
    (void)Rollup;
    V += Sub.V;
  }
  int total() const { return V; }
};

struct CardCost {
  ScoreCard C;
  void charge(ScoreTerm T, int Cost) { C.term(T) += Cost; }
  void fold(const CardCost &Sub, bool Rollup) {
    for (size_t I = 0; I != NumScoreTerms; ++I)
      C.Terms[I] += Sub.C.Terms[I];
    // The rollup axis tracks the top-level node's *immediate*
    // subexpressions only; nested rollups stay inside their own card.
    if (Rollup)
      C.Subexpr += Sub.C.total();
  }
  int total() const { return C.total(); }
};

/// Cost of \p E plus the number of member accesses on E's own spine.
template <class Cost> struct Spine {
  Cost C;
  int Dots = 0;
};

template <class Cost> Cost scoreExprT(const Ranker &R, const Expr *E);

template <class Cost> Spine<Cost> scoreSpineT(const Ranker &R, const Expr *E) {
  const TypeSystem &TS = R.typeSystem();
  switch (E->kind()) {
  case ExprKind::Var:
  case ExprKind::This:
  case ExprKind::TypeRef:
  case ExprKind::Literal:
  case ExprKind::DontCare:
    return {};

  case ExprKind::FieldAccess: {
    Spine<Cost> S = scoreSpineT<Cost>(R, cast<FieldAccessExpr>(E)->base());
    ++S.Dots;
    return S;
  }

  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(E);
    if (C->args().empty()) {
      // A pure lookup step (`.?m`-style zero-argument call, or a global
      // static nullary method); no call tweaks apply.
      Spine<Cost> S = C->receiver() ? scoreSpineT<Cost>(R, C->receiver())
                                    : Spine<Cost>{};
      ++S.Dots;
      return S;
    }

    // A genuine call with arguments: full call scoring. Its own dot is
    // charged here; the spine above it restarts at zero.
    const MethodInfo &MI = TS.method(C->method());
    TypeId RecvTy = C->receiver() && isValidId(C->receiver()->type())
                        ? C->receiver()->type()
                        : MI.Owner;
    // Per-call argument buffer: bump-allocated from the engine's scratch
    // arena when one is attached, which is what keeps the post-hoc explain
    // pass (one full scoreCard traversal per returned result) off the heap.
    using ArgVec = std::vector<const Expr *, ArenaAllocator<const Expr *>>;
    ArgVec CallArgs{ArenaAllocator<const Expr *>(R.scratchArena())};
    CallArgs.reserve(C->args().size() + 1);
    if (C->receiver())
      CallArgs.push_back(C->receiver());
    CallArgs.insert(CallArgs.end(), C->args().begin(), C->args().end());

    Spine<Cost> S;
    for (size_t I = 0; I != CallArgs.size(); ++I) {
      const Expr *Arg = CallArgs[I];
      S.C.fold(scoreExprT<Cost>(R, Arg), /*Rollup=*/true);
      if (isa<DontCareExpr>(Arg))
        continue;
      S.C.charge(ScoreTerm::TypeDistance,
                 R.typeDistanceCost(Arg->type(),
                                    TS.callParamType(C->method(), I)));
      S.C.charge(ScoreTerm::AbstractType,
                 R.abstractArgCost(Arg, C->method(), I, RecvTy));
    }
    S.C.charge(ScoreTerm::Depth, R.lookupStepCost()); // the call's own dot
    S.C.charge(ScoreTerm::InScopeStatic, R.inScopeStaticCost(C->method()));
    S.C.charge(ScoreTerm::Namespace, R.namespaceCost(C->method(), CallArgs));
    return S;
  }

  case ExprKind::Compare: {
    const auto *C = cast<CompareExpr>(E);
    Spine<Cost> S;
    S.C.fold(scoreExprT<Cost>(R, C->lhs()), /*Rollup=*/true);
    S.C.fold(scoreExprT<Cost>(R, C->rhs()), /*Rollup=*/true);
    if (!isa<DontCareExpr>(C->lhs()) && !isa<DontCareExpr>(C->rhs())) {
      S.C.charge(ScoreTerm::TypeDistance,
                 R.operandDistanceCost(C->lhs()->type(), C->rhs()->type()));
      S.C.charge(ScoreTerm::AbstractType,
                 R.abstractOperandCost(C->lhs(), C->rhs()));
      S.C.charge(ScoreTerm::MatchingName,
                 R.compareNameCost(C->lhs(), C->rhs()));
    }
    return S;
  }

  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    Spine<Cost> S;
    S.C.fold(scoreExprT<Cost>(R, A->lhs()), /*Rollup=*/true);
    S.C.fold(scoreExprT<Cost>(R, A->rhs()), /*Rollup=*/true);
    if (!isa<DontCareExpr>(A->lhs()) && !isa<DontCareExpr>(A->rhs())) {
      S.C.charge(ScoreTerm::TypeDistance,
                 R.typeDistanceCost(A->rhs()->type(), A->lhs()->type()));
      S.C.charge(ScoreTerm::AbstractType,
                 R.abstractOperandCost(A->lhs(), A->rhs()));
    }
    return S;
  }
  }
  return {};
}

template <class Cost> Cost scoreExprT(const Ranker &R, const Expr *E) {
  Spine<Cost> S = scoreSpineT<Cost>(R, E);
  S.C.charge(ScoreTerm::Depth, R.lookupStepCost() * S.Dots);
  return S.C;
}

} // namespace

int Ranker::scoreExpr(const Expr *E) const {
  return scoreExprT<ScalarCost>(*this, E).V;
}

ScoreCard Ranker::scoreCard(const Expr *E) const {
  return scoreExprT<CardCost>(*this, E).C;
}
