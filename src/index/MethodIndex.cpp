//===- index/MethodIndex.cpp - Param-type-keyed method index --------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "index/MethodIndex.h"

using namespace petal;

/// Files methods [First, numMethods()) into \p Buckets, once per distinct
/// call-parameter type, and lists them in \p All.
static void bucketMethods(const TypeSystem &TS, size_t First,
                          std::vector<std::vector<MethodId>> &Buckets,
                          std::vector<MethodId> &All) {
  Buckets.resize(TS.numTypes());
  All.reserve(TS.numMethods() - First);
  for (size_t M = First; M != TS.numMethods(); ++M) {
    MethodId Id = static_cast<MethodId>(M);
    All.push_back(Id);
    size_t N = TS.numCallParams(Id);
    for (size_t I = 0; I != N; ++I) {
      TypeId T = TS.callParamType(Id, I);
      std::vector<MethodId> &B = Buckets[T];
      if (B.empty() || B.back() != Id)
        B.push_back(Id);
    }
  }
}

MethodIndex::MethodIndex(const TypeSystem &TS) : TS(TS) {
  bucketMethods(TS, 0, Buckets, All);
}

MethodIndex::MethodIndex(const TypeSystem &TS,
                         std::shared_ptr<const MethodIndex> BaseIdxIn)
    : TS(TS), BaseIdx(std::move(BaseIdxIn)),
      NumBaseTypes(TS.numBaseTypes()) {
  assert(BaseIdx && "overlay constructor requires a base index");
  assert(BaseIdx->frozen() && "the base index must be frozen before overlays "
                              "attach (concurrent readers)");
  // Bucket only this layer's methods; base methods stay in the shared base
  // buckets. Bucket vectors are still indexed by absolute TypeId (an
  // overlay method may well take base-typed parameters).
  bucketMethods(TS, TS.numBaseMethods(), Buckets, All);
}

void MethodIndex::freeze() {
  if (frozen())
    return;

  // One row per local type: walk T and all transitive supertypes (BFS),
  // merging their exact buckets. The BFS order makes results from closer
  // types (lower type distance) appear first, which matches the paper's
  // observation that "each method index visited gives progressively worse
  // ranked results". In overlay mode each visited type's bucket is the
  // base bucket followed by the overlay bucket — exactly the id-order
  // bucket content a monolithic build would hold. The stamp arrays mark
  // visited types and emitted methods of the current row (stamp = row + 1),
  // so rows need no clearing and no hashing.
  size_t N = Buckets.size();
  size_t First = BaseIdx ? NumBaseTypes : 0;
  std::vector<uint32_t> TypeStamp(N, 0);
  std::vector<uint32_t> MethodStamp(TS.numMethods(), 0);
  std::vector<TypeId> Work;
  UnionOffsets.assign(1, 0);
  UnionData.clear();
  for (size_t T = First; T != N; ++T) {
    uint32_t Stamp = static_cast<uint32_t>(T - First + 1);
    auto Emit = [&](Span<const MethodId> Bucket) {
      for (MethodId M : Bucket)
        if (MethodStamp[M] != Stamp) {
          MethodStamp[M] = Stamp;
          UnionData.push_back(M);
        }
    };
    Work.assign(1, static_cast<TypeId>(T));
    TypeStamp[T] = Stamp;
    for (size_t I = 0; I != Work.size(); ++I) {
      TypeId Cur = Work[I];
      if (BaseIdx)
        Emit(BaseIdx->bucketSpan(Cur));
      Emit(bucketSpan(Cur));
      for (TypeId S : TS.immediateSupertypes(Cur))
        if (TypeStamp[S] != Stamp) {
          TypeStamp[S] = Stamp;
          Work.push_back(S);
        }
    }
    assert(UnionData.size() <= UINT32_MAX &&
           "method-union size overflows CSR offsets");
    UnionOffsets.push_back(static_cast<uint32_t>(UnionData.size()));
  }
  UnionData.shrink_to_fit();

  if (BaseIdx) {
    // An overlay method joins base type T's candidates iff one of its
    // call-parameter types S lies in T's supertype closure. The closure of
    // a base type is sealed inside the base layer, so only base S qualify,
    // and (for T != null) membership is exactly "td(T, S) is defined". The
    // null literal is the one base type whose td (0 to every reference
    // type, by its explicit rule) is *wider* than its closure and its
    // ancestor row ({null} itself — null has no supertype edges), so it
    // gets no appendage.
    AppOffsets.assign(1, 0);
    AppData.clear();
    for (size_t T = 0; T != NumBaseTypes; ++T) {
      if (static_cast<TypeId>(T) != TS.nullType())
        for (MethodId M : All)
          for (size_t I = 0, NP = TS.numCallParams(M); I != NP; ++I) {
            TypeId S = TS.callParamType(M, I);
            if (static_cast<size_t>(S) < NumBaseTypes &&
                TS.typeDistance(static_cast<TypeId>(T), S).has_value()) {
              AppData.push_back(M);
              break;
            }
          }
      AppOffsets.push_back(static_cast<uint32_t>(AppData.size()));
    }
    AppData.shrink_to_fit();
  }

  UnionV = UnionData.data();
  NumUnion = UnionData.size();
  NumTypesFrozen = N - First;
  // Publish UOffV last: frozen() keys off it.
  UOffV = UnionOffsets.data();
}

void MethodIndex::adoptFrozen(
    const MethodId *Data, size_t DataCount, const uint32_t *Offs,
    size_t NumTypes, std::shared_ptr<const void> KeepAliveHandle) {
  assert(!frozen() && "method index already frozen");
  assert(!BaseIdx && "snapshot tables adopt into the base layer, not overlays");
  assert(NumTypes == TS.numTypes() &&
         "snapshot method unions sized for a different type population");
  UnionV = Data;
  NumUnion = DataCount;
  NumTypesFrozen = NumTypes;
  KeepAlive = std::move(KeepAliveHandle);
  UOffV = Offs;
}

MethodCandidates MethodIndex::exactBucket(TypeId T) const {
  if (BaseIdx)
    return MethodCandidates(BaseIdx->bucketSpan(T), bucketSpan(T));
  return MethodCandidates(bucketSpan(T));
}

Span<const MethodId> MethodIndex::overlayAppendage(TypeId T) const {
  assert(BaseIdx && static_cast<size_t>(T) < NumBaseTypes);
  assert(frozen() && "method index queried before freeze()");
  uint32_t B = AppOffsets[T], E = AppOffsets[static_cast<size_t>(T) + 1];
  return Span<const MethodId>(AppData.data() + B, E - B);
}

MethodCandidates MethodIndex::candidatesForArgType(TypeId T) const {
  assert(frozen() && "method index queried before freeze()");
  if (!BaseIdx) {
    if (T < 0 || static_cast<size_t>(T) >= NumTypesFrozen)
      return MethodCandidates();
    return MethodCandidates(unionSlot(static_cast<size_t>(T)));
  }
  if (T < 0 || static_cast<size_t>(T) >= TS.numTypes())
    return MethodCandidates();
  if (static_cast<size_t>(T) < NumBaseTypes)
    return MethodCandidates(BaseIdx->unionSlot(static_cast<size_t>(T)),
                            overlayAppendage(T));
  return MethodCandidates(unionSlot(static_cast<size_t>(T) - NumBaseTypes));
}

size_t MethodIndex::memoryBytes() const {
  size_t Bytes = Buckets.capacity() * sizeof(std::vector<MethodId>) +
                 All.capacity() * sizeof(MethodId) +
                 UnionData.capacity() * sizeof(MethodId) +
                 UnionOffsets.capacity() * sizeof(uint32_t) +
                 AppData.capacity() * sizeof(MethodId) +
                 AppOffsets.capacity() * sizeof(uint32_t);
  for (const auto &B : Buckets)
    Bytes += B.capacity() * sizeof(MethodId);
  return Bytes;
}
