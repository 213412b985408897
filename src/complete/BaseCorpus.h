//===- complete/BaseCorpus.h - Shared frozen framework corpus ---*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The base layer of a base/overlay workspace (DESIGN.md §14): one framework
/// corpus parsed, resolved, solved, and frozen exactly once — or adopted
/// zero-copy from a snapshot mapping — and then shared read-only by every
/// document session in the process. Each open document contributes only an
/// *overlay*: its own types and methods resolved against the base symbol
/// tables, overlay index layers answering from the base's frozen tables plus
/// small local deltas, and an abstract-type solution extending the frozen
/// base partition. Overlay entity ids continue after the base's, so an
/// overlay build is bit-identical to resolving base source and document
/// source into one monolithic corpus — enforced by workspace_overlay_test's
/// fresh-twin property test.
///
/// Builders live one layer up (snapshot/Snapshot.h: baseCorpusFromSource,
/// baseCorpusFromSnapshot) because constructing a BaseCorpus needs the
/// parser, which this library does not link.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_COMPLETE_BASECORPUS_H
#define PETAL_COMPLETE_BASECORPUS_H

#include "complete/Engine.h"
#include "parser/DeclUnits.h"

#include <memory>
#include <string>

namespace petal {

/// Everything the base layer owns. Immutable after construction: the
/// indexes are frozen, the solution is compressed, and every overlay read
/// is a pure load — which is what lets any number of session strands share
/// one instance with no locking.
struct BaseCorpus {
  std::string SourceText;
  DocumentShape Shape;

  // Declaration order is construction order: the Program refers to the
  // TypeSystem, the indexes to the Program. Overlay TypeSystems and
  // CompletionIndexes hold shared_ptrs into these, so a base outlives
  // every overlay built over it regardless of teardown order.
  std::shared_ptr<TypeSystem> TS;
  std::shared_ptr<Program> P;
  std::shared_ptr<CompletionIndexes> Idx; ///< frozen over a dense-frozen TS
  std::shared_ptr<const AbsTypeSolution> Solution; ///< full-corpus solve

  /// Pins the snapshot file mapping when the base was adopted from one
  /// (the indexes pin it too; this keeps the provenance visible).
  std::shared_ptr<const void> Backing;

  double BuildMillis = 0; ///< parse + resolve + freeze + solve (or load)

  /// Approximate heap bytes owned by the base layer. Snapshot-adopted
  /// tables alias the file mapping and are deliberately not counted — this
  /// reports what the process heap actually pays for the layer, which is
  /// what $/stats' memory block wants.
  size_t memoryBytes() const;
};

} // namespace petal

#endif // PETAL_COMPLETE_BASECORPUS_H
