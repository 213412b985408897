//===- index/ReachabilityIndex.cpp - Type reachability via lookups --------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "index/ReachabilityIndex.h"

#include <cassert>

using namespace petal;

// The tables index by From * DenseN + Target in size_t; keep the 32-bit id
// assumption visible for anything that packs id pairs:
static_assert(sizeof(TypeId) == 4,
              "TypeId must stay 32-bit; pair-packed and dense row-major "
              "indexes assume it");

void ReachabilityIndex::freeze() {
  if (DenseN != 0)
    return;
  assert(Members.frozen() && "freeze the member cache first");
  size_t N = TS.numTypes();
  size_t Rows = N - NumBaseTypes;

  // BFS scratch reused by every row: Dist holds the lookup distance of
  // each type the current row reached (NoReach elsewhere), Reached lists
  // those types in BFS order, and both are reset after the row.
  std::vector<int16_t> Dist(N, NoReach);
  std::vector<TypeId> Reached;

  for (int K = 0; K != 2; ++K) {
    bool MethodsAllowed = K == 1;
    std::vector<int16_t> Table(Rows * N, NoReach);
    for (size_t F = NumBaseTypes; F != N; ++F) {
      Reached.assign(1, static_cast<TypeId>(F));
      Dist[F] = 0;
      for (size_t I = 0; I != Reached.size(); ++I) {
        TypeId Cur = Reached[I];
        int D = Dist[Cur];
        if (D >= MaxDepth)
          continue;
        const auto Edges = Members.edges(Cur);
        size_t Limit =
            MethodsAllowed ? Edges.size() : Members.numFieldEdges(Cur);
        for (size_t J = 0; J != Limit; ++J) {
          TypeId Next = Edges[J].ResultType;
          if (Dist[Next] != NoReach)
            continue;
          assert(D + 1 <= INT16_MAX && "lookup distance overflows int16");
          Dist[Next] = static_cast<int16_t>(D + 1);
          Reached.push_back(Next);
        }
      }
      // Reached is in BFS order — nondecreasing distance — so the first
      // reached type convertible to a target sets that target's minimum.
      // The targets a type converts to are its ancestor row; `null`, whose
      // row is just itself, converts to every reference type.
      int16_t *Row = Table.data() + (F - NumBaseTypes) * N;
      for (TypeId Ty : Reached) {
        if (Ty == TS.nullType()) {
          for (size_t Tgt = 0; Tgt != N; ++Tgt)
            if (Row[Tgt] == NoReach &&
                TS.isReferenceType(static_cast<TypeId>(Tgt)))
              Row[Tgt] = Dist[Ty];
        } else {
          for (const AncestorEntry &A : TS.ancestors(Ty))
            if (Row[A.Type] == NoReach)
              Row[A.Type] = Dist[Ty];
        }
        Dist[Ty] = NoReach;
      }
    }
    ConvM[K] = std::move(Table);
    ConvV[K] = ConvM[K].data();
  }
  DenseN = N;
}

void ReachabilityIndex::adoptFrozen(
    const int16_t *ConvFields, const int16_t *ConvMethods, size_t N,
    std::shared_ptr<const void> KeepAliveHandle) {
  assert(DenseN == 0 && "reachability index already frozen");
  assert(!BaseReach &&
         "snapshot tables adopt into the base layer, not overlays");
  assert(N == TS.numTypes() &&
         "snapshot reachability tables sized for a different type "
         "population");
  ConvV[0] = ConvFields;
  ConvV[1] = ConvMethods;
  KeepAlive = std::move(KeepAliveHandle);
  DenseN = N;
}

std::optional<int>
ReachabilityIndex::minLookupsToConvertible(TypeId From, TypeId Target,
                                           bool MethodsAllowed) const {
  if (BaseReach && static_cast<size_t>(From) < NumBaseTypes) {
    // Base-type closures are sealed inside the base layer: every lookup
    // edge from a base type lands on a base type. Check Target's layer
    // *before* delegating — the base table has no column for overlay ids.
    if (static_cast<size_t>(Target) >= NumBaseTypes) {
      // The only base-layer values convertible to an overlay target are
      // null literals (reference targets only), and only null converts to
      // null, so the answer is the base's own null column — 0 when From
      // *is* null, unreachable otherwise (no member has the null type).
      if (!TS.isReferenceType(Target))
        return std::nullopt;
      return BaseReach->minLookupsToConvertible(From, TS.nullType(),
                                                MethodsAllowed);
    }
    return BaseReach->minLookupsToConvertible(From, Target, MethodsAllowed);
  }
  assert(DenseN != 0 && "reachability index queried before freeze()");
  assert(static_cast<size_t>(From) < DenseN &&
         static_cast<size_t>(Target) < DenseN && "bad TypeId");
  int16_t D = ConvV[MethodsAllowed ? 1 : 0]
                   [(static_cast<size_t>(From) - NumBaseTypes) * DenseN +
                    static_cast<size_t>(Target)];
  if (D == NoReach)
    return std::nullopt;
  return static_cast<int>(D);
}

size_t ReachabilityIndex::memoryBytes() const {
  return (ConvM[0].capacity() + ConvM[1].capacity()) * sizeof(int16_t);
}
