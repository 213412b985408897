//===- index/ReachabilityIndex.h - Type reachability via lookups -*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper describes (but did not implement) an index that records, for
/// each type, which types are reachable through `.?*f` / `.?*m` lookup
/// chains and in how many steps (§4.2, "queries for multiple field lookups
/// could also be made more efficient..."). petal implements it: the
/// completion engine uses it to prune star-suffix expansion states that can
/// never reach a value convertible to a known expected type within the
/// remaining score budget. Its effect is measured as an ablation in
/// bench/speed_latency.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_INDEX_REACHABILITYINDEX_H
#define PETAL_INDEX_REACHABILITYINDEX_H

#include "index/MemberCache.h"
#include "model/TypeSystem.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace petal {

/// Per-source-type reachability: the minimum number of lookup steps from a
/// value of one type to a value implicitly convertible to another.
///
/// freeze() — called by CompletionIndexes::freeze() — fills one
/// TypeId×TypeId int16 table per edge set (`.?*f` fields only, `.?*m`
/// fields + zero-arg methods), one row per source type, each row by a BFS
/// over the member edges into a reused scratch row; adoptFrozen() installs
/// the same tables from a snapshot. Before either, the accessor asserts.
/// Afterwards every query is a branch-free load from immutable flat
/// storage with no locking whatsoever: the table *is* the fully enumerated
/// (source, target) pair space, so there is nothing left to memoize and
/// nothing left to lock.
/// In overlay mode (base/overlay workspace, DESIGN.md §14) the tables
/// cover only the document's types (one row per overlay type, each row
/// spanning the full type population); base-source queries forward to the
/// shared base index. Base-type closures are sealed inside the base layer —
/// every lookup edge from a base type lands on a base type — so the only
/// cross-layer answer is the null literal converting to overlay reference
/// types.
class ReachabilityIndex {
public:
  ReachabilityIndex(const TypeSystem &TS, const MemberCache &Members,
                    int MaxDepth = 8)
      : TS(TS), Members(Members), MaxDepth(MaxDepth) {}

  /// Overlay constructor: \p BaseReachIn was built over TS.baseLayer() and
  /// frozen; this instance computes rows for overlay types only.
  ReachabilityIndex(const TypeSystem &TS, const MemberCache &Members,
                    std::shared_ptr<const ReachabilityIndex> BaseReachIn,
                    int MaxDepth = 8)
      : TS(TS), Members(Members), MaxDepth(MaxDepth),
        BaseReach(std::move(BaseReachIn)), NumBaseTypes(TS.numBaseTypes()) {
    assert(BaseReach && "overlay constructor requires a base index");
    assert(BaseReach->frozen() &&
           "the base reachability index must be frozen before overlays "
           "attach");
  }

  /// Minimum number of lookups (0 = the value itself) from a value of type
  /// \p From to any value *implicitly convertible to* \p Target; nullopt if
  /// none within MaxDepth. \p MethodsAllowed selects the `.?*m` edge set
  /// (fields + zero-arg methods) vs `.?*f` (fields only).
  std::optional<int> minLookupsToConvertible(TypeId From, TypeId Target,
                                             bool MethodsAllowed) const;

  /// Builds both tables for this layer's source types; idempotent.
  /// Requires the MemberCache to be frozen. Once frozen the index is a
  /// pure function of the TypeSystem and the MemberCache, which is what
  /// allows incremental document rebuilds to share it across versions.
  void freeze();
  bool frozen() const { return DenseN != 0; }

  /// The frozen table for one edge set, flat row-major (numTypes()² int16
  /// in monolithic mode, one row per overlay type in overlay mode;
  /// sentinel -1); empty before freeze(). Snapshot-writer access (base
  /// layer only; an overlay is never snapshotted).
  Span<const int16_t> denseConvTable(bool MethodsAllowed) const {
    return Span<const int16_t>(ConvV[MethodsAllowed ? 1 : 0],
                               (DenseN - NumBaseTypes) * DenseN);
  }

  /// Installs the two externally owned tables (the snapshot loader's
  /// zero-copy path; each pointer aims into the read-only mapping
  /// \p KeepAlive pins). Same contract as TypeSystem::adoptAncestorRows:
  /// \p N must equal the TypeSystem's type count and the tables must have
  /// been computed over identical source, which the snapshot's content
  /// hashes guarantee.
  void adoptFrozen(const int16_t *ConvFields, const int16_t *ConvMethods,
                   size_t N, std::shared_ptr<const void> KeepAlive);

  /// Approximate heap bytes owned by this layer (the shared base is not
  /// re-counted).
  size_t memoryBytes() const;

private:
  /// Sentinel for "not reachable within MaxDepth" in the tables.
  /// MaxDepth is tiny (default 8), so real distances always fit int16.
  static constexpr int16_t NoReach = -1;

  const TypeSystem &TS;
  const MemberCache &Members;
  int MaxDepth;
  /// Overlay mode: the shared base index and the number of types it covers.
  /// Frozen rows below are indexed From - NumBaseTypes (0 in monolithic
  /// mode); every row still spans the full DenseN-wide type population.
  std::shared_ptr<const ReachabilityIndex> BaseReach;
  size_t NumBaseTypes = 0;
  // The tables, row-major (From-NumBaseTypes)*DenseN+Target; index 0:
  // fields only, index 1: fields + methods. DenseN is published last so
  // frozen() only reads fully-built tables. Readers go through the view
  // pointers, which alias the owned vectors (in-process freeze) or an
  // adopted snapshot mapping pinned by KeepAlive.
  std::vector<int16_t> ConvM[2];
  const int16_t *ConvV[2] = {nullptr, nullptr};
  size_t DenseN = 0;
  std::shared_ptr<const void> KeepAlive;
};

} // namespace petal

#endif // PETAL_INDEX_REACHABILITYINDEX_H
