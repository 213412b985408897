//===- complete/Streams.cpp - Concrete candidate streams ------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "complete/Streams.h"

#include <algorithm>
#include <cstdint>

using namespace petal;

/// Stamps the query's ceiling, scratch arena and counters onto \p S.
static void attach(CandidateStream &S, EngineState &ES) {
  S.setCeiling(ES.ScoreCeiling);
  S.setScratch(ES.Scratch);
  S.setCounters(&ES.Counts);
}

//===----------------------------------------------------------------------===//
// ConcreteStream
//===----------------------------------------------------------------------===//

ConcreteStream::ConcreteStream(EngineState &ES, const Expr *E, TypeId Target) {
  attach(*this, ES);
  C.E = E;
  C.Score = ES.Rank->scoreExpr(E);
  C.Type = E->type();
  Suppressed = isValidId(Target) && !isa<DontCareExpr>(E) &&
               !ES.TS->implicitlyConvertible(C.Type, Target);
}

void ConcreteStream::fillBucket(int S, CandidateVec &Out) {
  if (!Suppressed && S == C.Score)
    Out.push_back(C);
}

//===----------------------------------------------------------------------===//
// DontCareStream
//===----------------------------------------------------------------------===//

DontCareStream::DontCareStream(EngineState &ES) {
  attach(*this, ES);
  C.E = ES.Factory->dontCare();
  C.Score = 0;
  C.Type = InvalidId;
}

void DontCareStream::fillBucket(int S, CandidateVec &Out) {
  if (S == 0)
    Out.push_back(C);
}

//===----------------------------------------------------------------------===//
// VarsStream
//===----------------------------------------------------------------------===//

VarsStream::VarsStream(EngineState &ES) : ES(ES) { attach(*this, ES); }

void VarsStream::fillBucket(int S, CandidateVec &Out) {
  const TypeSystem &TS = *ES.TS;
  int GlobalScore = ES.Rank->lookupStepCost(); // `Type.Member` is one dot

  if (S == 0 && !EmittedLocals) {
    EmittedLocals = true;
    if (ES.Method) {
      size_t Limit = std::min(ES.StmtIndex, ES.Method->body().size());
      for (unsigned Slot : ES.Method->localsInScopeAt(Limit)) {
        const Expr *V = ES.Factory->var(*ES.Method, Slot);
        Out.push_back({V, 0, V->type()});
      }
      if (!TS.method(ES.Method->decl()).IsStatic) {
        const Expr *This = ES.Factory->thisRef(ES.Method->owner());
        Out.push_back({This, 0, This->type()});
      }
    }
  }

  if (S == GlobalScore && !EmittedGlobals) {
    EmittedGlobals = true;
    // Globals: every static field (enum members included) and every
    // parameterless static method returning a value (§4.2).
    for (size_t F = 0; F != TS.numFields(); ++F) {
      const FieldInfo &FI = TS.field(static_cast<FieldId>(F));
      if (!FI.IsStatic)
        continue;
      const Expr *Access = ES.Factory->fieldAccess(
          ES.Factory->typeRef(FI.Owner), static_cast<FieldId>(F));
      Out.push_back({Access, GlobalScore, FI.Type});
    }
    for (size_t M = 0; M != TS.numMethods(); ++M) {
      const MethodInfo &MI = TS.method(static_cast<MethodId>(M));
      if (!MI.IsStatic || !MI.Params.empty() ||
          MI.ReturnType == TS.voidType())
        continue;
      const Expr *Call =
          ES.Factory->call(static_cast<MethodId>(M), nullptr, {});
      Out.push_back({Call, GlobalScore, MI.ReturnType});
    }
  }
}

//===----------------------------------------------------------------------===//
// SuffixStream
//===----------------------------------------------------------------------===//

SuffixStream::SuffixStream(EngineState &ES,
                           std::unique_ptr<CandidateStream> Base,
                           SuffixKind Kind, TypeId Target)
    : ES(ES), Base(std::move(Base)), Kind(Kind), Target(Target) {
  attach(*this, ES);
}

bool SuffixStream::emits(const Candidate &C) const {
  if (!isValidId(Target))
    return true;
  if (!isValidId(C.Type)) // don't-care passes any expected type
    return true;
  return ES.TS->implicitlyConvertible(C.Type, Target);
}

bool SuffixStream::worthExpanding(const Candidate &C) const {
  if (!isValidId(C.Type))
    return false; // cannot look up members on a don't-care
  if (C.Depth >= ES.MaxChainLen)
    return false; // chain-length exploration bound
  if (!isValidId(Target) || !ES.Reach)
    return true;
  // Reachability pruning: drop states that can never produce a value
  // convertible to the target, no matter how many lookups follow.
  return ES.Reach
      ->minLookupsToConvertible(C.Type, Target, suffixAllowsMethods(Kind))
      .has_value();
}

void SuffixStream::expand(const Candidate &C, CandidateVec &Out,
                          CandidateVec *Next, size_t NextCap) {
  int Step = ES.Rank->lookupStepCost();
  const auto Edges = ES.Members->edges(C.Type);
  size_t Limit = suffixAllowsMethods(Kind) ? Edges.size()
                                           : ES.Members->numFieldEdges(C.Type);
  for (size_t I = 0; I != Limit; ++I) {
    const LookupEdge &E = Edges[I];
    // Decide on the child's type and depth first; most children are
    // neither emitted nor expanded and are never built.
    Candidate Child{nullptr, C.Score + Step, E.ResultType, C.Depth + 1};
    bool Emit = emits(Child);
    bool Keep = Next && Next->size() < NextCap && worthExpanding(Child);
    if (!Emit && !Keep)
      continue;
    Child.E = E.IsField ? static_cast<const Expr *>(
                              ES.Factory->fieldAccess(C.E, E.Field))
                        : ES.Factory->call(E.Method, C.E, {});
    if (Emit)
      Out.push_back(Child);
    if (Keep)
      Next->push_back(Child);
  }
}

void SuffixStream::fillBucket(int S, CandidateVec &Out) {
  int Step = ES.Rank->lookupStepCost();
  const CandidateVec &BaseBucket = Base->bucket(S);
  ArenaAllocator<Candidate> Alloc(scratch());

  if (Step == 0) {
    // Depth term disabled: chains no longer change the score, so bound the
    // expansion by chain length instead of by score.
    CandidateVec Frontier(Alloc);
    for (const Candidate &C : BaseBucket) {
      if (emits(C))
        Out.push_back(C);
      if (worthExpanding(C))
        Frontier.push_back(C);
    }
    int MaxLen = isStarSuffix(Kind) ? ES.MaxChainLen : 1;
    for (int Len = 0; Len != MaxLen && !Frontier.empty(); ++Len) {
      // The last round's frontier is never expanded, so it is not kept.
      CandidateVec Next(Alloc);
      bool Last = Len + 1 == MaxLen;
      for (const Candidate &C : Frontier)
        expand(C, Out, Last ? nullptr : &Next, SIZE_MAX);
      Frontier.swap(Next);
    }
    return;
  }

  while (Pool.size() <= static_cast<size_t>(S))
    Pool.emplace_back(Alloc);

  // Base candidates: emitted as-is (a `.?` suffix may complete to nothing)
  // and pooled as chain starting points.
  for (const Candidate &C : BaseBucket) {
    if (emits(C))
      Out.push_back(C);
    if (worthExpanding(C))
      Pool[S].push_back(C);
  }

  // Lookup expansions of the frontier one step below.
  if (S - Step >= 0)
    for (const Candidate &C : Pool[S - Step])
      expand(C, Out, isStarSuffix(Kind) ? &Pool[S] : nullptr,
             ES.MaxPoolPerBucket);
}

//===----------------------------------------------------------------------===//
// Combination enumeration
//===----------------------------------------------------------------------===//

/// Visits every choice of one pick per argument whose scores sum to \p Sum,
/// where \p Picks(I, S) lists argument I's picks of score S. The order is a
/// depth-first walk: argument 0's buckets 0..Sum in order, each bucket's
/// picks in order, then argument 1's likewise, and so on; the last argument
/// takes the one bucket that completes the sum. \p Visit receives the
/// chosen picks, one per argument.
template <class PickT, class PicksFn, class VisitFn>
static void forEachCombo(size_t K, int Sum, PicksFn &&Picks, VisitFn &&Visit) {
  if (K == 0) {
    if (Sum == 0)
      Visit(static_cast<const PickT *const *>(nullptr));
    return;
  }
  std::vector<const PickT *> Chosen(K);
  // Argument I stands at position Pos[I] of its bucket Score[I], with
  // Rem[I] of the sum left for arguments I..K-1.
  std::vector<int> Score(K, 0), Rem(K, 0);
  std::vector<size_t> Pos(K, 0);
  size_t I = 0;
  Rem[0] = Sum;
  while (true) {
    if (I + 1 == K) {
      for (const PickT &P : Picks(I, Rem[I])) {
        Chosen[I] = &P;
        Visit(Chosen.data());
      }
    } else {
      const std::vector<PickT> *B = &Picks(I, Score[I]);
      while (Pos[I] == B->size() && Score[I] < Rem[I]) {
        Pos[I] = 0;
        B = &Picks(I, ++Score[I]);
      }
      if (Pos[I] != B->size()) {
        Chosen[I] = &(*B)[Pos[I]];
        Rem[I + 1] = Rem[I] - Score[I];
        ++I;
        Score[I] = 0;
        Pos[I] = 0;
        continue;
      }
    }
    // Argument I is exhausted: advance the one before it.
    if (I == 0)
      return;
    --I;
    ++Pos[I];
  }
}

/// Grows the per-score pick lists \p ByScore of one argument up to \p S,
/// turning each bucket of \p Arg into picks with \p Make (which returns
/// false to drop a candidate), and returns the list of score \p S.
template <class PickT, class MakeFn>
static const std::vector<PickT> &
picksOf(std::vector<std::vector<PickT>> &ByScore, CandidateStream &Arg, int S,
        MakeFn &&Make) {
  while (ByScore.size() <= static_cast<size_t>(S)) {
    std::vector<PickT> &Out = ByScore.emplace_back();
    int Score = static_cast<int>(ByScore.size()) - 1;
    for (const Candidate &C : Arg.bucket(Score)) {
      PickT P;
      if (Make(C, P))
        Out.push_back(P);
    }
  }
  return ByScore[S];
}

//===----------------------------------------------------------------------===//
// ComboStream
//===----------------------------------------------------------------------===//

ComboStream::ComboStream(EngineState &ES) : ES(ES) { attach(*this, ES); }

const Expr **ComboStream::queue(int Score, uint64_t Tie, size_t NumArgs,
                                MethodId M, TypeId Type) {
  ++ES.Counts.CombosScored;
  if (ceiling() >= 0 && Score > ceiling())
    return nullptr; // that bucket is never filled
  if (Pending.size() <= static_cast<size_t>(Score))
    Pending.resize(Score + 1,
                   ComboVec(ArenaAllocator<PendingCombo>(scratch())));
  Arena *A = scratch();
  if (!A) {
    if (!OwnArgs)
      OwnArgs = std::make_unique<Arena>();
    A = OwnArgs.get();
  }
  auto **Args = static_cast<const Expr **>(
      A->allocate(NumArgs * sizeof(const Expr *), alignof(const Expr *)));
  Pending[Score].push_back({Tie, Args, M, Type});
  return Args;
}

void ComboStream::drain(int S, CandidateVec &Out, bool SortByTie) {
  if (Pending.size() <= static_cast<size_t>(S))
    return;
  ComboVec &Bucket = Pending[S];
  if (SortByTie)
    std::stable_sort(Bucket.begin(), Bucket.end(),
              [](const PendingCombo &A, const PendingCombo &B) {
                return A.Tie < B.Tie;
              });
  for (const PendingCombo &C : Bucket)
    Out.push_back({materialise(C), S, C.Type, 0});
  ES.Counts.ExprsMaterialised += Bucket.size();
  ComboVec(ArenaAllocator<PendingCombo>(scratch())).swap(Bucket);
}

/// Builds the call of \p M over its call-signature arguments \p CallArgs
/// (the receiver first for an instance method).
static const Expr *buildCall(EngineState &ES, MethodId M,
                             const Expr *const *CallArgs) {
  const MethodInfo &MI = ES.TS->method(M);
  const Expr *Receiver = MI.IsStatic ? nullptr : CallArgs[0];
  const Expr *const *Decl = CallArgs + (MI.IsStatic ? 0 : 1);
  return ES.Factory->call(
      M, Receiver,
      std::vector<const Expr *>(Decl, Decl + MI.Params.size()));
}

//===----------------------------------------------------------------------===//
// UnknownCallStream
//===----------------------------------------------------------------------===//

UnknownCallStream::UnknownCallStream(
    EngineState &ES, std::vector<std::unique_ptr<CandidateStream>> Args,
    TypeId Target)
    : ComboStream(ES), Args(std::move(Args)), Target(Target),
      Picks(this->Args.size()) {}

void UnknownCallStream::fillBucket(int S, CandidateVec &Out) {
  for (int Sum = CombosDone + 1; Sum <= S; ++Sum)
    forEachCombo<Pick>(
        Args.size(), Sum,
        [this](size_t I, int Sc) -> const std::vector<Pick> & {
          return picks(I, Sc);
        },
        [this, Sum](const Pick *const *Combo) {
          enumerateMethods(Combo, Sum);
        });
  CombosDone = S;
  drain(S, Out, /*SortByTie=*/true);
}

const std::vector<UnknownCallStream::Pick> &
UnknownCallStream::picks(size_t I, int S) {
  return picksOf(Picks[I], *Args[I], S, [this](const Candidate &C, Pick &P) {
    P = {C.E, C.Score, C.Type,
         isValidId(C.Type) ? ES.Rank->abstractVarOf(C.E)
                           : AbstractTypeInference::NoVar};
    return true;
  });
}

void UnknownCallStream::enumerateMethods(const Pick *const *Combo,
                                         int ArgScore) {
  // Scan the index bucket of the most selective argument type (§4.2).
  // Don't-cares and null literals constrain nothing, so they cannot drive
  // the index choice.
  MethodCandidates Methods;
  bool Constrained = false;
  for (size_t I = 0; I != Args.size(); ++I) {
    TypeId T = Combo[I]->Type;
    if (!isValidId(T) || T == ES.TS->nullType())
      continue;
    MethodCandidates Set = ES.MIndex->candidatesForArgType(T);
    if (!Constrained || Set.size() < Methods.size()) {
      Methods = Set;
      Constrained = true;
    }
  }
  if (!Constrained)
    Methods = ES.MIndex->allMethods();
  for (MethodId M : Methods)
    tryMethod(M, Combo, ArgScore);
}

void UnknownCallStream::tryMethod(MethodId M, const Pick *const *Combo,
                                  int ArgScore) {
  const TypeSystem &TS = *ES.TS;
  const Ranker &R = *ES.Rank;
  const MethodInfo &MI = TS.method(M);
  size_t NP = TS.numCallParams(M);
  size_t K = Args.size();
  if (NP < K || NP > 62)
    return;

  // Known expected type: filter by return type (void must match void).
  if (isValidId(Target)) {
    if (Target == TS.voidType()) {
      if (MI.ReturnType != TS.voidType())
        return;
    } else if (!TS.implicitlyConvertible(MI.ReturnType, Target)) {
      return;
    }
  }

  // StepCost[I * NP + Pos]: placing argument I at call-signature position
  // Pos (type distance plus abstract type), or -1 when its type does not
  // convert. Don't-cares fit anywhere for free.
  StepCost.assign(K * NP, 0);
  for (size_t I = 0; I != K; ++I) {
    const Pick &P = *Combo[I];
    if (!isValidId(P.Type))
      continue;
    for (size_t Pos = 0; Pos != NP; ++Pos) {
      auto D = TS.typeDistance(P.Type, TS.callParamType(M, Pos));
      StepCost[I * NP + Pos] =
          D ? (R.options().UseTypeDistance ? *D : 0) +
                  R.abstractArgCostOfVar(P.Var, M, Pos, MI.Owner)
            : -1;
    }
  }

  // Find the cheapest injective placement of the K arguments into the NP
  // positions: a depth-first branch-and-bound over argument I's position
  // PosOfArg[I], keeping the first placement of least cost. An instance
  // method's receiver slot (position 0) must be filled by a real argument,
  // never by `0`.
  bool Found = false;
  int BestCost = 0;
  uint64_t Used = 0;
  auto Reached = [&](size_t Depth, int Cost) {
    if (Found && Cost >= BestCost)
      return false; // branch-and-bound
    if (Depth != K)
      return true;
    if (!MI.IsStatic && !(Used & 1))
      return false; // receiver unfilled
    Found = true;
    BestCost = Cost;
    BestPos.assign(PosOfArg.begin(), PosOfArg.end());
    return false;
  };
  PosOfArg.assign(K, -1);
  CostAt.assign(K + 1, 0);
  if (Reached(0, 0)) {
    size_t I = 0;
    while (true) {
      if (PosOfArg[I] >= 0)
        Used &= ~(1ull << PosOfArg[I]);
      size_t Pos = static_cast<size_t>(PosOfArg[I] + 1);
      while (Pos != NP &&
             ((Used >> Pos & 1) || StepCost[I * NP + Pos] < 0))
        ++Pos;
      if (Pos == NP) {
        PosOfArg[I] = -1;
        if (I == 0)
          break;
        --I;
        continue;
      }
      PosOfArg[I] = static_cast<int>(Pos);
      Used |= 1ull << Pos;
      int Cost = CostAt[I] + StepCost[I * NP + Pos];
      if (Reached(I + 1, Cost)) {
        CostAt[++I] = Cost;
        PosOfArg[I] = -1;
      }
    }
  }
  if (!Found)
    return;

  // The score of the chosen call, term by term as the standalone scorer
  // charges it. Without declared parameters it is a lookup step on its
  // receiver; otherwise the placement cost (recomputed for the actual
  // receiver type when that specializes the abstract types) plus the
  // call's own dot, in-scope static and namespace terms.
  int Score = ArgScore + R.lookupStepCost();
  if (!MI.Params.empty()) {
    int Placed = BestCost;
    if (R.abstractArgCostVariesWithReceiver(M)) {
      TypeId RecvTy = MI.Owner;
      for (size_t I = 0; I != K; ++I)
        if (BestPos[I] == 0 && isValidId(Combo[I]->Type))
          RecvTy = Combo[I]->Type;
      Placed = 0;
      for (size_t I = 0; I != K; ++I) {
        const Pick &P = *Combo[I];
        if (!isValidId(P.Type))
          continue;
        Placed += R.typeDistanceCost(P.Type, TS.callParamType(M, BestPos[I]));
        Placed += R.abstractArgCostOfVar(P.Var, M, BestPos[I], RecvTy);
      }
    }
    Ranker::NamespaceTally NS;
    for (size_t I = 0; I != K; ++I)
      NS.add(R.namespaceSimilarity(MI.Owner, Combo[I]->E));
    Score += Placed + R.inScopeStaticCost(M) + R.namespaceCost(NS);
  }

  // Ties break towards fewer parameters (fewer `0` fills), then by method
  // declaration order. Deliberately NOT by index-visit order: the index BFS
  // visits nearer types first, which would smuggle a type-distance signal
  // into tie-breaking and mask the Table 2 ablation of the t term.
  uint64_t Tie = (static_cast<uint64_t>(NP) << 56) |
                 (static_cast<uint64_t>(static_cast<uint32_t>(M)) << 24) |
                 (Seq++ & 0xFFFFFF);
  if (const Expr **CallArgs = queue(Score, Tie, NP, M, MI.ReturnType)) {
    std::fill(CallArgs, CallArgs + NP, nullptr);
    for (size_t I = 0; I != K; ++I)
      CallArgs[BestPos[I]] = Combo[I]->E;
  }
}

const Expr *UnknownCallStream::materialise(const PendingCombo &C) {
  // Positions no argument was placed in become `0` (the paper makes no
  // attempt to fill them, §3).
  size_t NP = ES.TS->numCallParams(C.M);
  for (size_t Pos = 0; Pos != NP; ++Pos)
    if (!C.Args[Pos])
      C.Args[Pos] = ES.Factory->dontCare();
  return buildCall(ES, C.M, C.Args);
}

//===----------------------------------------------------------------------===//
// KnownCallStream
//===----------------------------------------------------------------------===//

KnownCallStream::KnownCallStream(
    EngineState &ES, MethodId M,
    std::vector<std::unique_ptr<CandidateStream>> Args, TypeId Target)
    : ComboStream(ES), M(M), Args(std::move(Args)), Picks(this->Args.size()) {
  const TypeSystem &TS = *ES.TS;
  const MethodInfo &MI = TS.method(M);
  assert(this->Args.size() == TS.numCallParams(M) &&
         "argument count must match the call signature");
  Dead = isValidId(Target) && !TS.implicitlyConvertible(MI.ReturnType, Target);
  LookupStep = MI.Params.empty();
  ReceiverDependent =
      !LookupStep && ES.Rank->abstractArgCostVariesWithReceiver(M);
  CallCost = ES.Rank->lookupStepCost() +
             (LookupStep ? 0 : ES.Rank->inScopeStaticCost(M));
}

void KnownCallStream::fillBucket(int S, CandidateVec &Out) {
  if (!Dead)
    for (int Sum = CombosDone + 1; Sum <= S; ++Sum)
      forEachCombo<Pick>(
          Args.size(), Sum,
          [this](size_t I, int Sc) -> const std::vector<Pick> & {
            return picks(I, Sc);
          },
          [this, Sum](const Pick *const *Combo) { scoreCombo(Combo, Sum); });
  CombosDone = S;
  drain(S, Out, /*SortByTie=*/false);
}

const std::vector<KnownCallStream::Pick> &KnownCallStream::picks(size_t I,
                                                                 int S) {
  return picksOf(Picks[I], *Args[I], S, [this, I](const Candidate &C, Pick &P) {
    const TypeSystem &TS = *ES.TS;
    const Ranker &R = *ES.Rank;
    const MethodInfo &MI = TS.method(M);
    P = {C.E, C.Score, 0, -1, C.Type};
    if (!isValidId(C.Type))
      return true; // don't-care argument
    auto D = TS.typeDistance(C.Type, TS.callParamType(M, I));
    if (!D)
      return false; // type-incorrect candidate
    if (LookupStep)
      return true; // a lookup step charges nothing per argument
    P.Cost = R.options().UseTypeDistance ? *D : 0;
    // The receiver's own type selects Object-method specializations; a
    // declared argument's cost is charged per combination when it varies
    // with the receiver.
    if (I == 0 && !MI.IsStatic)
      P.Cost += R.abstractArgCost(C.E, M, I, C.Type);
    else if (!ReceiverDependent)
      P.Cost += R.abstractArgCost(C.E, M, I, MI.Owner);
    P.NsSim = R.namespaceSimilarity(MI.Owner, C.E);
    return true;
  });
}

void KnownCallStream::scoreCombo(const Pick *const *Combo, int ArgScore) {
  size_t K = Args.size();
  int Score = ArgScore + CallCost;
  if (!LookupStep) {
    const Ranker &R = *ES.Rank;
    Ranker::NamespaceTally NS;
    for (size_t I = 0; I != K; ++I) {
      Score += Combo[I]->Cost;
      NS.add(Combo[I]->NsSim);
    }
    Score += R.namespaceCost(NS);
    if (ReceiverDependent) {
      TypeId RecvTy = isValidId(Combo[0]->Type) ? Combo[0]->Type
                                                : ES.TS->method(M).Owner;
      for (size_t I = 1; I != K; ++I)
        if (isValidId(Combo[I]->Type))
          Score += R.abstractArgCost(Combo[I]->E, M, I, RecvTy);
    }
  }
  // Ties keep discovery order: the queue drains first-in, first-out.
  if (const Expr **CallArgs =
          queue(Score, /*Tie=*/0, K, M, ES.TS->method(M).ReturnType))
    for (size_t I = 0; I != K; ++I)
      CallArgs[I] = Combo[I]->E;
}

const Expr *KnownCallStream::materialise(const PendingCombo &C) {
  return buildCall(ES, M, C.Args);
}

//===----------------------------------------------------------------------===//
// BinaryStream
//===----------------------------------------------------------------------===//

BinaryStream::BinaryStream(EngineState &ES, bool IsCompare, CompareOp Op,
                           std::unique_ptr<CandidateStream> Lhs,
                           std::unique_ptr<CandidateStream> Rhs, TypeId Target)
    : ComboStream(ES), IsCompare(IsCompare), Op(Op), Lhs(std::move(Lhs)),
      Rhs(std::move(Rhs)), Target(Target) {}

void BinaryStream::fillBucket(int S, CandidateVec &Out) {
  for (int Diag = DiagDone + 1; Diag <= S; ++Diag)
    for (int SL = 0; SL <= Diag; ++SL)
      crossJoin(Lhs->bucket(SL), Rhs->bucket(Diag - SL));
  DiagDone = S;
  drain(S, Out, /*SortByTie=*/false);
}

void BinaryStream::crossJoin(const CandidateVec &L, const CandidateVec &R) {
  if (L.empty() || R.empty())
    return;
  for (const Candidate &CL : L)
    for (const Candidate &CR : R)
      scorePair(CL, CR);
}

void BinaryStream::scorePair(const Candidate &L, const Candidate &R) {
  const TypeSystem &TS = *ES.TS;
  const Ranker &Rank = *ES.Rank;
  bool LWild = !isValidId(L.Type);
  bool RWild = !isValidId(R.Type);

  int Score = L.Score + R.Score;
  if (IsCompare) {
    if (!LWild && !RWild) {
      if (!TS.comparable(L.Type, R.Type))
        return;
      Score += Rank.operandDistanceCost(L.Type, R.Type);
      Score += Rank.abstractOperandCost(L.E, R.E);
      Score += Rank.compareNameCost(L.E, R.E);
    }
  } else {
    if (!LWild && !isLValue(L.E))
      return; // assignment target must be assignable
    if (!LWild && !RWild) {
      if (!TS.assignable(L.Type, R.Type))
        return;
      Score += Rank.typeDistanceCost(R.Type, L.Type);
      Score += Rank.abstractOperandCost(L.E, R.E);
    }
  }

  TypeId ResultTy = IsCompare ? TS.boolType() : L.Type;
  if (isValidId(Target) && isValidId(ResultTy) &&
      !TS.implicitlyConvertible(ResultTy, Target))
    return;

  if (const Expr **Pair = queue(Score, /*Tie=*/0, 2, InvalidId, ResultTy)) {
    Pair[0] = L.E;
    Pair[1] = R.E;
  }
}

const Expr *BinaryStream::materialise(const PendingCombo &C) {
  Arena &A = ES.Factory->arena();
  if (IsCompare)
    return A.create<CompareExpr>(Op, C.Args[0], C.Args[1], ES.TS->boolType());
  return A.create<AssignExpr>(C.Args[0], C.Args[1]);
}

//===----------------------------------------------------------------------===//
// buildStream
//===----------------------------------------------------------------------===//

/// Methods in the whole type system named \p Name with \p NumCallArgs
/// call-signature parameters (engine-side fallback when a KnownCallPE was
/// built programmatically without a resolved overload set).
static std::vector<MethodId> resolveByName(const TypeSystem &TS,
                                           const std::string &Name,
                                           size_t NumCallArgs) {
  std::vector<MethodId> Out;
  for (size_t M = 0; M != TS.numMethods(); ++M) {
    MethodId Id = static_cast<MethodId>(M);
    if (TS.method(Id).Name == Name && TS.numCallParams(Id) == NumCallArgs)
      Out.push_back(Id);
  }
  return Out;
}

std::unique_ptr<CandidateStream>
petal::buildStream(EngineState &ES, const PartialExpr *PE, TypeId Target) {
  switch (PE->kind()) {
  case PartialKind::Hole:
    // `?` is interpreted as vars.?*m (§4.2).
    return std::make_unique<SuffixStream>(
        ES, std::make_unique<VarsStream>(ES), SuffixKind::MemberStar, Target);

  case PartialKind::DontCare:
    return std::make_unique<DontCareStream>(ES);

  case PartialKind::Concrete:
    return std::make_unique<ConcreteStream>(
        ES, cast<ConcretePE>(PE)->expr(), Target);

  case PartialKind::Suffix: {
    const auto *S = cast<SuffixPE>(PE);
    return std::make_unique<SuffixStream>(ES, buildStream(ES, S->base()),
                                          S->suffix(), Target);
  }

  case PartialKind::UnknownCall: {
    const auto *U = cast<UnknownCallPE>(PE);
    std::vector<std::unique_ptr<CandidateStream>> Args;
    for (const PartialExpr *Arg : U->args())
      Args.push_back(buildStream(ES, Arg));
    return std::make_unique<UnknownCallStream>(ES, std::move(Args), Target);
  }

  case PartialKind::KnownCall: {
    const auto *K = cast<KnownCallPE>(PE);
    std::vector<MethodId> Methods = K->resolved();
    if (Methods.empty())
      Methods = resolveByName(*ES.TS, K->name(), K->args().size());
    std::vector<std::unique_ptr<CandidateStream>> PerMethod;
    for (MethodId M : Methods) {
      if (ES.TS->numCallParams(M) != K->args().size())
        continue;
      std::vector<std::unique_ptr<CandidateStream>> Args;
      for (size_t I = 0; I != K->args().size(); ++I)
        Args.push_back(
            buildStream(ES, K->args()[I], ES.TS->callParamType(M, I)));
      PerMethod.push_back(
          std::make_unique<KnownCallStream>(ES, M, std::move(Args), Target));
    }
    return std::make_unique<MergeStream>(ES, std::move(PerMethod));
  }

  case PartialKind::Compare: {
    const auto *C = cast<ComparePE>(PE);
    return std::make_unique<BinaryStream>(ES, /*IsCompare=*/true, C->op(),
                                          buildStream(ES, C->lhs()),
                                          buildStream(ES, C->rhs()), Target);
  }

  case PartialKind::Assign: {
    const auto *A = cast<AssignPE>(PE);
    return std::make_unique<BinaryStream>(
        ES, /*IsCompare=*/false, CompareOp::Lt, buildStream(ES, A->lhs()),
        buildStream(ES, A->rhs()), Target);
  }
  }
  return nullptr;
}
