//===- index/MethodIndex.h - Param-type-keyed method index ------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's method index (§4.2, Fig. 8): a map from every type to the set
/// of methods with at least one call-signature parameter (receiver included)
/// of *exactly* that type, organized so that looking up a type also walks
/// the indexes of its supertypes. Given `?({e1, e2})`, the engine looks up
/// each argument type and scans only the smallest candidate set, which is
/// "almost always orders of magnitude smaller than the set of all methods".
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_INDEX_METHODINDEX_H
#define PETAL_INDEX_METHODINDEX_H

#include "model/TypeSystem.h"
#include "support/Span.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

namespace petal {

/// A possibly two-segment view over method candidates: a head span (the
/// base layer's frozen CSR window, or the whole answer for a monolithic
/// index) followed by an optional tail span (the overlay appendage). The
/// segments are concatenated, never interleaved — the engine's candidate
/// consumers depend only on the *set* (smallest-set selection compares
/// sizes; same-score ordering ties break on method id, not visit order),
/// so base-type candidates need not reproduce the monolithic BFS
/// interleaving. Cheap to copy; never owns.
class MethodCandidates {
public:
  MethodCandidates() = default;
  /*implicit*/ MethodCandidates(Span<const MethodId> Head) : Head(Head) {}
  MethodCandidates(Span<const MethodId> Head, Span<const MethodId> Tail)
      : Head(Head), Tail(Tail) {}

  size_t size() const { return Head.size() + Tail.size(); }
  bool empty() const { return Head.empty() && Tail.empty(); }

  MethodId operator[](size_t I) const {
    assert(I < size() && "candidate index out of range");
    return I < Head.size() ? Head[I] : Tail[I - Head.size()];
  }

  /// Forward iterator walking head then tail. Carries its position so
  /// iterators over the two segments compare and subtract like pointers
  /// into one contiguous array.
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MethodId;
    using difference_type = std::ptrdiff_t;
    using pointer = const MethodId *;
    using reference = const MethodId &;

    iterator(const MethodId *P, const MethodId *HeadEnd,
             const MethodId *TailBegin, size_t Idx)
        : P(P), HeadEnd(HeadEnd), TailBegin(TailBegin), Idx(Idx) {}
    reference operator*() const { return *P; }
    iterator &operator++() {
      ++P;
      ++Idx;
      if (P == HeadEnd)
        P = TailBegin;
      return *this;
    }
    iterator operator++(int) {
      iterator Tmp = *this;
      ++*this;
      return Tmp;
    }
    bool operator==(const iterator &O) const { return Idx == O.Idx; }
    bool operator!=(const iterator &O) const { return Idx != O.Idx; }
    difference_type operator-(const iterator &O) const {
      return static_cast<difference_type>(Idx) -
             static_cast<difference_type>(O.Idx);
    }

  private:
    const MethodId *P;
    const MethodId *HeadEnd;
    const MethodId *TailBegin;
    size_t Idx;
  };
  iterator begin() const {
    const MethodId *Start = Head.empty() ? Tail.begin() : Head.begin();
    return iterator(Start, Head.end(), Tail.begin(), 0);
  }
  iterator end() const {
    return iterator(Tail.end(), Head.end(), Tail.begin(), size());
  }

private:
  Span<const MethodId> Head;
  Span<const MethodId> Tail;
};

/// Immutable method index built over a finished TypeSystem.
///
/// The constructor files every method into the exact buckets of its
/// distinct call-parameter types. freeze() — called by
/// CompletionIndexes::freeze() — then pre-merges every supertype chain
/// into one contiguous CSR array with per-type [UnionOffsets[T],
/// UnionOffsets[T+1]) spans; adoptFrozen() installs that array from a
/// snapshot instead. Before either, candidatesForArgType asserts;
/// afterwards every accessor is a lock-free read of immutable flat
/// storage. Like the other type-graph indexes, a frozen instance reads
/// nothing but its TypeSystem, so body-only document edits share it
/// across versions via CompletionIndexes' sharing constructor.
///
/// In overlay mode (base/overlay workspace, DESIGN.md §14) the index holds
/// only the document's methods: a base type's candidates are the shared
/// base CSR span plus a small appendage of overlay methods reachable from
/// that type (a second CSR over base types), and an overlay type's
/// candidates are its full union over the layered supertype closure. Both
/// are served through MethodCandidates, so the engine never sees the
/// layering.
class MethodIndex {
public:
  explicit MethodIndex(const TypeSystem &TS);

  /// Overlay constructor: \p BaseIdxIn was built over TS.baseLayer() and
  /// frozen; this instance buckets only the overlay methods.
  MethodIndex(const TypeSystem &TS, std::shared_ptr<const MethodIndex> BaseIdxIn);

  /// Methods with a call-signature parameter of exactly type \p T.
  MethodCandidates exactBucket(TypeId T) const;

  /// Methods usable with an argument of type \p T in some position: the
  /// union of the exact buckets of \p T and all its transitive supertypes
  /// (deduplicated; nearer-supertype buckets first in monolithic mode,
  /// base-then-overlay segments in overlay mode — same set either way).
  /// A pure flat-array read; requires freeze() or adoptFrozen().
  MethodCandidates candidatesForArgType(TypeId T) const;

  /// Builds the union CSR (and, in overlay mode, the appendage CSR) of
  /// this layer's types; idempotent.
  void freeze();
  bool frozen() const { return UOffV != nullptr; }

  /// The frozen CSR arrays: all pre-merged supertype-union candidate
  /// lists contiguous, and the numTypes()+1 offsets windowing them per
  /// type. Empty before freeze(). Snapshot-writer access (base layer
  /// only; an overlay is never snapshotted).
  Span<const MethodId> frozenUnionData() const {
    return Span<const MethodId>(UnionV, NumUnion);
  }
  Span<const uint32_t> frozenUnionOffsets() const {
    return Span<const uint32_t>(UOffV, frozen() ? NumTypesFrozen + 1 : 0);
  }

  /// Installs externally owned CSR arrays (the snapshot loader's
  /// zero-copy path: both pointers aim into the read-only mapping
  /// \p KeepAlive pins; \p Offs holds \p NumTypes + 1 entries). The
  /// exact-bucket layer (Buckets/All) is rebuilt cheaply by the
  /// constructor from the TypeSystem; only the pre-merged unions — the
  /// O(types × supertype chain) part — come from the snapshot.
  void adoptFrozen(const MethodId *Data, size_t DataCount,
                   const uint32_t *Offs, size_t NumTypes,
                   std::shared_ptr<const void> KeepAliveHandle);

  /// Size of candidatesForArgType(T) (provided for readability).
  size_t candidateCount(TypeId T) const {
    return candidatesForArgType(T).size();
  }

  /// All methods in id order (base segment then overlay segment, which is
  /// exactly monolithic id order), for brute-force comparison baselines
  /// and the engine's unconstrained fallback.
  MethodCandidates allMethods() const {
    if (BaseIdx)
      return MethodCandidates(BaseIdx->All, All);
    return MethodCandidates(All);
  }

  /// Approximate heap bytes owned by this layer (the shared base is not
  /// re-counted).
  size_t memoryBytes() const;

private:
  /// The union CSR window of slot \p Slot (TypeId in monolithic mode,
  /// T - NumBaseTypes in overlay mode).
  Span<const MethodId> unionSlot(size_t Slot) const {
    assert(frozen() && "method index queried before freeze()");
    assert(Slot < NumTypesFrozen && "bad TypeId");
    uint32_t B = UOffV[Slot], E = UOffV[Slot + 1];
    return Span<const MethodId>(UnionV + B, E - B);
  }
  /// Overlay methods usable with an argument of base type \p T.
  Span<const MethodId> overlayAppendage(TypeId T) const;

  Span<const MethodId> bucketSpan(TypeId T) const {
    if (T < 0 || static_cast<size_t>(T) >= Buckets.size())
      return Empty;
    return Buckets[T];
  }

  const TypeSystem &TS;
  /// Overlay mode: the shared base index and the entity counts it covers.
  std::shared_ptr<const MethodIndex> BaseIdx;
  size_t NumBaseTypes = 0;
  /// Buckets are indexed by absolute TypeId (sized numTypes() in both
  /// modes) but hold only this layer's methods.
  std::vector<std::vector<MethodId>> Buckets;
  // The union CSR: candidates of slot T are
  // UnionData[UnionOffsets[T] .. UnionOffsets[T+1]). Readers go through
  // the view pointers, which alias the owned vectors (in-process freeze)
  // or an adopted snapshot mapping pinned by KeepAlive; UOffV doubles as
  // the frozen() flag and is published last.
  std::vector<MethodId> UnionData;
  std::vector<uint32_t> UnionOffsets;
  const MethodId *UnionV = nullptr;
  const uint32_t *UOffV = nullptr;
  size_t NumUnion = 0;
  size_t NumTypesFrozen = 0;
  // Overlay mode only: appendage CSR over base types, indexed by TypeId.
  std::vector<MethodId> AppData;
  std::vector<uint32_t> AppOffsets;
  std::shared_ptr<const void> KeepAlive;
  /// This layer's method ids in ascending order.
  std::vector<MethodId> All;
  std::vector<MethodId> Empty;
};

} // namespace petal

#endif // PETAL_INDEX_METHODINDEX_H
