//===- index/MemberCache.h - Lookup edges per type --------------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For each type, the lookup steps a `.?f` / `.?m` suffix may take from a
/// value of that type: instance fields/properties (including inherited) and,
/// for the `m` forms, zero-argument non-void instance methods. Tabled per
/// type; shared by the completion engine's star expansion and the
/// reachability index.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_INDEX_MEMBERCACHE_H
#define PETAL_INDEX_MEMBERCACHE_H

#include "model/TypeSystem.h"
#include "support/Span.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace petal {

/// One possible lookup step from a value: `.field` or `.method()`.
struct LookupEdge {
  bool IsField = true;
  FieldId Field = InvalidId;
  MethodId Method = InvalidId;
  TypeId ResultType = InvalidId;
};

/// The lookup edges of every type, in one CSR table: all edges contiguous,
/// per-type [Offsets[T], Offsets[T+1]) windows. Field edges always precede
/// method edges, so `.?f` consumers can stop at the first method edge.
///
/// freeze() — called by CompletionIndexes::freeze() — builds the table
/// straight from the TypeSystem; adoptFrozen() installs one mapped from a
/// snapshot. Before either the cache holds no table and its accessors
/// assert. Afterwards every accessor is a pure read of immutable flat
/// storage, safe for any number of concurrent readers, and a whole-frontier
/// star expansion walks memory linearly. A frozen instance depends only on
/// the TypeSystem it was built over, so incremental document rebuilds
/// share it wholesale across versions whose type graph is unchanged
/// (CompletionIndexes' sharing constructor); frozen() is the reuse
/// precondition.
/// An overlay MemberCache (base/overlay workspace, DESIGN.md §14) layers
/// over a frozen base instance: base-type lookups forward to the shared
/// base storage (documents cannot add members to base types, so those edge
/// lists are final), and only overlay types get local rows, indexed
/// T - numBaseTypes().
class MemberCache {
public:
  explicit MemberCache(const TypeSystem &TS) : TS(TS) {}

  /// Overlay constructor: \p BaseCacheIn was built over TS.baseLayer() and
  /// frozen, and answers every base-type lookup.
  MemberCache(const TypeSystem &TS, std::shared_ptr<const MemberCache> BaseCacheIn)
      : TS(TS), BaseCache(std::move(BaseCacheIn)),
        NumBaseTypes(TS.numBaseTypes()) {
    assert(BaseCache && "overlay constructor requires a base cache");
  }

  /// All edges from a value of type \p T (fields first, then zero-arg
  /// methods), in deterministic declaration order.
  Span<const LookupEdge> edges(TypeId T) const;

  /// Builds the CSR table of this layer's types; idempotent.
  void freeze();
  bool frozen() const { return OffV != nullptr; }

  /// Number of leading field edges of edges(T).
  size_t numFieldEdges(TypeId T) const {
    if (static_cast<size_t>(T) < NumBaseTypes)
      return BaseCache->numFieldEdges(T);
    assert(frozen() && "member cache queried before freeze()");
    return FieldCounts[T - NumBaseTypes];
  }

  /// The frozen CSR arrays: all edges contiguous, and the numTypes()+1
  /// offsets windowing them per type. Empty before freeze().
  /// Snapshot-writer access.
  Span<const LookupEdge> frozenEdges() const {
    return Span<const LookupEdge>(EdgeV, NumEdges);
  }
  Span<const uint32_t> frozenOffsets() const {
    return Span<const uint32_t>(OffV, frozen() ? NumTypesFrozen + 1 : 0);
  }
  /// Per-type leading-field-edge counts.
  Span<const size_t> frozenFieldCounts() const { return FieldCounts; }

  /// Installs externally owned CSR arrays (the snapshot loader's
  /// zero-copy path: \p Edges and \p Offs point into the read-only
  /// mapping \p KeepAlive pins; \p Offs holds \p NumTypes + 1 entries).
  /// FieldCounts is copied rather than aliased — it is O(numTypes), and
  /// owning it keeps the on-disk width (u64) independent of size_t.
  /// The snapshot's content hashes guarantee the arrays describe this
  /// TypeSystem exactly.
  void adoptFrozen(const LookupEdge *Edges, size_t EdgeCount,
                   const uint32_t *Offs, size_t NumTypes,
                   std::vector<size_t> FieldCountsIn,
                   std::shared_ptr<const void> KeepAliveHandle);

  /// Approximate heap bytes owned by this layer (the shared base is not
  /// re-counted).
  size_t memoryBytes() const;

private:
  const TypeSystem &TS;
  /// Overlay mode: the shared base cache and the number of types it
  /// covers. Local storage below is indexed T - NumBaseTypes.
  std::shared_ptr<const MemberCache> BaseCache;
  size_t NumBaseTypes = 0;
  // The CSR table: edges of type T are
  // EdgeData[Offsets[T] .. Offsets[T+1]). Readers go through the view
  // pointers, which alias the owned vectors (in-process freeze) or an
  // adopted snapshot mapping pinned by KeepAlive; OffV doubles as the
  // frozen() flag and is published last.
  std::vector<LookupEdge> EdgeData;
  std::vector<uint32_t> Offsets;
  const LookupEdge *EdgeV = nullptr;
  const uint32_t *OffV = nullptr;
  size_t NumEdges = 0;
  size_t NumTypesFrozen = 0;
  std::shared_ptr<const void> KeepAlive;
  std::vector<size_t> FieldCounts;
};

} // namespace petal

#endif // PETAL_INDEX_MEMBERCACHE_H
