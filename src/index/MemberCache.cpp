//===- index/MemberCache.cpp - Lookup edges per type ----------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "index/MemberCache.h"

using namespace petal;

void MemberCache::freeze() {
  if (frozen())
    return;

  // In overlay mode the CSR covers local types only (slot T - NumBaseTypes);
  // base-type queries keep forwarding to the shared base arrays.
  // visibleFields/visibleMethods run over the layered TypeSystem, so an
  // overlay type's edges include its inherited base members in exactly the
  // order a monolithic build would produce.
  size_t N = TS.numTypes() - NumBaseTypes;
  Offsets.assign(N + 1, 0);
  FieldCounts.assign(N, 0);
  EdgeData.clear();
  for (size_t Slot = 0; Slot != N; ++Slot) {
    TypeId T = static_cast<TypeId>(NumBaseTypes + Slot);
    Offsets[Slot] = static_cast<uint32_t>(EdgeData.size());
    for (FieldId F : TS.visibleFields(T)) {
      const FieldInfo &FI = TS.field(F);
      if (FI.IsStatic)
        continue;
      LookupEdge E;
      E.IsField = true;
      E.Field = F;
      E.ResultType = FI.Type;
      EdgeData.push_back(E);
    }
    FieldCounts[Slot] = EdgeData.size() - Offsets[Slot];
    for (MethodId M : TS.visibleMethods(T)) {
      const MethodInfo &MI = TS.method(M);
      if (MI.IsStatic || !MI.Params.empty() || MI.ReturnType == TS.voidType())
        continue;
      LookupEdge E;
      E.IsField = false;
      E.Method = M;
      E.ResultType = MI.ReturnType;
      EdgeData.push_back(E);
    }
  }
  assert(EdgeData.size() <= UINT32_MAX &&
         "member edge count overflows CSR offsets");
  Offsets[N] = static_cast<uint32_t>(EdgeData.size());
  EdgeData.shrink_to_fit();

  EdgeV = EdgeData.data();
  NumEdges = EdgeData.size();
  NumTypesFrozen = N;
  // Publish OffV last: frozen() keys off it.
  OffV = Offsets.data();
}

void MemberCache::adoptFrozen(
    const LookupEdge *Edges, size_t EdgeCount, const uint32_t *Offs,
    size_t NumTypes, std::vector<size_t> FieldCountsIn,
    std::shared_ptr<const void> KeepAliveHandle) {
  assert(!frozen() && "member cache already frozen");
  assert(!BaseCache && "snapshot tables adopt into the base layer, not overlays");
  assert(NumTypes == TS.numTypes() &&
         "snapshot member CSR sized for a different type population");
  assert(FieldCountsIn.size() == NumTypes && "field counts mis-sized");
  FieldCounts = std::move(FieldCountsIn);
  EdgeV = Edges;
  NumEdges = EdgeCount;
  NumTypesFrozen = NumTypes;
  KeepAlive = std::move(KeepAliveHandle);
  OffV = Offs;
}

Span<const LookupEdge> MemberCache::edges(TypeId T) const {
  // Base types delegate to the shared base cache: a document cannot add
  // members to a base type, so its edge list is exactly the base's.
  if (static_cast<size_t>(T) < NumBaseTypes)
    return BaseCache->edges(T);
  assert(frozen() && "member cache queried before freeze()");
  size_t Slot = static_cast<size_t>(T) - NumBaseTypes;
  assert(Slot < NumTypesFrozen && "bad TypeId");
  uint32_t B = OffV[Slot], E = OffV[Slot + 1];
  return Span<const LookupEdge>(EdgeV + B, E - B);
}

size_t MemberCache::memoryBytes() const {
  return EdgeData.capacity() * sizeof(LookupEdge) +
         Offsets.capacity() * sizeof(uint32_t) +
         FieldCounts.capacity() * sizeof(size_t);
}
