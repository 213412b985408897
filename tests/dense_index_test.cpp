//===- tests/dense_index_test.cpp - Frozen index tables vs oracles --------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// CompletionIndexes::freeze() builds every index table (the TypeSystem's
// ancestor CSR, CSR member edges, pre-merged method-union spans,
// reachability tables — see DESIGN.md §11) straight from the type graph.
// These tests check every cell of those tables — every type, every
// (type, type) pair — against test-local oracles that recompute each
// answer the slow, obvious way the retired lazy caches once did ("legacy"
// below): on a generated monolithic corpus, and on an overlay (the
// geometry base corpus plus one document). A concurrent stress case (run
// under TSan via scripts/ci.sh; the suite name matches the IndexStress
// regex) hammers the lock-free tables from eight threads.
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "complete/Engine.h"
#include "corpus/Generator.h"
#include "parser/Frontend.h"
#include "snapshot/Snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace petal;

namespace {

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

/// td(From, T) for every T, indexed [From][T]: a BFS over
/// immediateSupertypes from each type, except that `null` converts at
/// distance 0 to every reference type.
using DistanceOracle = std::vector<std::vector<std::optional<int>>>;
DistanceOracle distanceOracle(const TypeSystem &TS) {
  size_t N = TS.numTypes();
  DistanceOracle Dist(N, std::vector<std::optional<int>>(N));
  for (size_t F = 0; F != N; ++F) {
    std::vector<std::optional<int>> &Row = Dist[F];
    TypeId From = static_cast<TypeId>(F);
    if (From == TS.nullType()) {
      for (size_t T = 0; T != N; ++T)
        if (TS.isReferenceType(static_cast<TypeId>(T)))
          Row[T] = 0;
      continue;
    }
    Row[F] = 0;
    std::vector<TypeId> Work{From};
    for (size_t I = 0; I != Work.size(); ++I)
      for (TypeId S : TS.immediateSupertypes(Work[I]))
        if (!Row[S]) {
          Row[S] = *Row[Work[I]] + 1;
          Work.push_back(S);
        }
  }
  return Dist;
}

/// typeDistance, implicitlyConvertible and operandDistance on every pair.
void expectTypeDistancesMatchOracle(const TypeSystem &TS,
                                    const DistanceOracle &Dist) {
  size_t N = TS.numTypes();
  for (size_t F = 0; F != N; ++F)
    for (size_t T = 0; T != N; ++T) {
      TypeId From = static_cast<TypeId>(F), To = static_cast<TypeId>(T);
      ASSERT_EQ(TS.typeDistance(From, To), Dist[F][T])
          << TS.qualifiedName(From) << " -> " << TS.qualifiedName(To);
      ASSERT_EQ(TS.implicitlyConvertible(From, To), Dist[F][T].has_value())
          << TS.qualifiedName(From) << " -> " << TS.qualifiedName(To);
      ASSERT_EQ(TS.operandDistance(From, To),
                Dist[F][T] ? Dist[F][T] : Dist[T][F])
          << TS.qualifiedName(From) << " <> " << TS.qualifiedName(To);
    }
}

/// Every pair's answers, read before freeze() (the path the resolver and
/// the corpus generator take, filling rows on first use).
std::vector<std::optional<int>> allDistances(const TypeSystem &TS) {
  std::vector<std::optional<int>> Out;
  for (size_t F = 0; F != TS.numTypes(); ++F)
    for (size_t T = 0; T != TS.numTypes(); ++T)
      Out.push_back(TS.typeDistance(static_cast<TypeId>(F),
                                    static_cast<TypeId>(T)));
  return Out;
}

/// Member edges of \p T: non-static visible fields, then zero-argument,
/// non-void, non-static visible methods.
std::vector<LookupEdge> memberOracle(const TypeSystem &TS, TypeId T,
                                     size_t &NumFields) {
  std::vector<LookupEdge> Edges;
  for (FieldId F : TS.visibleFields(T))
    if (!TS.field(F).IsStatic)
      Edges.push_back({true, F, InvalidId, TS.field(F).Type});
  NumFields = Edges.size();
  for (MethodId M : TS.visibleMethods(T)) {
    const MethodInfo &MI = TS.method(M);
    if (!MI.IsStatic && MI.Params.empty() && MI.ReturnType != TS.voidType())
      Edges.push_back({false, InvalidId, M, MI.ReturnType});
  }
  return Edges;
}

/// Method union of \p T: a BFS over \p T's supertype closure, appending
/// each visited type's exact bucket minus the methods already seen.
std::vector<MethodId> methodUnionOracle(const TypeSystem &TS,
                                        const MethodIndex &MI, TypeId T) {
  std::vector<MethodId> Out;
  std::set<MethodId> Seen;
  std::vector<TypeId> Work{T};
  std::set<TypeId> Visited{T};
  for (size_t I = 0; I != Work.size(); ++I) {
    for (MethodId M : MI.exactBucket(Work[I]))
      if (Seen.insert(M).second)
        Out.push_back(M);
    for (TypeId S : TS.immediateSupertypes(Work[I]))
      if (Visited.insert(S).second)
        Work.push_back(S);
  }
  return Out;
}

/// Reachability row of \p From: a BFS over the member edges (fields only,
/// or fields + zero-arg methods) that stops expanding at \p MaxDepth, then
/// for every target the nearest reached type convertible to it.
std::vector<std::optional<int>> reachRowOracle(const TypeSystem &TS,
                                               const DistanceOracle &TD,
                                               const MemberCache &MC,
                                               TypeId From, bool Methods,
                                               int MaxDepth = 8) {
  std::unordered_map<TypeId, int> Dist{{From, 0}};
  std::vector<TypeId> Work{From};
  for (size_t I = 0; I != Work.size(); ++I) {
    TypeId Cur = Work[I];
    if (Dist[Cur] >= MaxDepth)
      continue;
    auto Edges = MC.edges(Cur);
    size_t Limit = Methods ? Edges.size() : MC.numFieldEdges(Cur);
    for (size_t J = 0; J != Limit; ++J)
      if (Dist.emplace(Edges[J].ResultType, Dist[Cur] + 1).second)
        Work.push_back(Edges[J].ResultType);
  }
  std::vector<std::optional<int>> Row(TS.numTypes());
  for (size_t T = 0; T != TS.numTypes(); ++T)
    for (const auto &[Ty, D] : Dist)
      if (TD[Ty][T] && (!Row[T] || D < *Row[T]))
        Row[T] = D;
  return Row;
}

void expectMembersMatchOracle(const TypeSystem &TS, const MemberCache &MC) {
  for (size_t T = 0; T != TS.numTypes(); ++T) {
    TypeId Ty = static_cast<TypeId>(T);
    size_t NumFields = 0;
    std::vector<LookupEdge> Want = memberOracle(TS, Ty, NumFields);
    auto Got = MC.edges(Ty);
    ASSERT_EQ(Got.size(), Want.size()) << "type " << T;
    ASSERT_EQ(MC.numFieldEdges(Ty), NumFields) << "type " << T;
    for (size_t I = 0; I != Got.size(); ++I) {
      ASSERT_EQ(Got[I].IsField, Want[I].IsField) << "type " << T << " edge "
                                                 << I;
      ASSERT_EQ(Got[I].Field, Want[I].Field);
      ASSERT_EQ(Got[I].Method, Want[I].Method);
      ASSERT_EQ(Got[I].ResultType, Want[I].ResultType);
    }
  }
}

/// Monolithic candidates (and those of any overlay type)
/// follow the oracle's BFS order exactly. An overlay's base type answers
/// with the base's span followed by the overlay appendage in id order, so
/// there the oracle is split the same way.
void expectMethodsMatchOracle(const TypeSystem &TS, const MethodIndex &MI) {
  size_t NumBaseTypes = TS.numBaseTypes();
  size_t NumBaseMethods = TS.numBaseMethods();
  for (size_t T = 0; T != TS.numTypes(); ++T) {
    TypeId Ty = static_cast<TypeId>(T);
    std::vector<MethodId> Want = methodUnionOracle(TS, MI, Ty);
    if (T < NumBaseTypes) {
      auto Tail = std::stable_partition(
          Want.begin(), Want.end(), [&](MethodId M) {
            return static_cast<size_t>(M) < NumBaseMethods;
          });
      std::sort(Tail, Want.end());
    }
    MethodCandidates Got = MI.candidatesForArgType(Ty);
    ASSERT_EQ(std::vector<MethodId>(Got.begin(), Got.end()), Want)
        << "type " << TS.qualifiedName(Ty);
  }
}

void expectReachMatchesOracle(const TypeSystem &TS, const MemberCache &MC,
                              const ReachabilityIndex &RI) {
  DistanceOracle TD = distanceOracle(TS);
  for (size_t F = 0; F != TS.numTypes(); ++F)
    for (bool Methods : {false, true}) {
      TypeId From = static_cast<TypeId>(F);
      std::vector<std::optional<int>> Want =
          reachRowOracle(TS, TD, MC, From, Methods);
      for (size_t T = 0; T != TS.numTypes(); ++T)
        ASSERT_EQ(RI.minLookupsToConvertible(From, static_cast<TypeId>(T),
                                             Methods),
                  Want[T])
            << TS.qualifiedName(From) << " -> "
            << TS.qualifiedName(static_cast<TypeId>(T))
            << " methods=" << Methods;
    }
}

//===----------------------------------------------------------------------===//
// Monolithic corpus
//===----------------------------------------------------------------------===//

/// One generated corpus frozen into the flat tables. The generator's own
/// relation queries fill the ancestor rows before freeze(); PreFreeze
/// records every pair's distance as read then.
class DenseEquivalenceTest : public ::testing::Test {
protected:
  void SetUp() override {
    TS = std::make_unique<TypeSystem>();
    P = std::make_unique<Program>(*TS);
    CorpusGenerator(paperProjectProfiles(0.15)[2]).generate(*P);
    PreFreeze = allDistances(*TS);
    Idx = std::make_unique<CompletionIndexes>(*P);
    Idx->freeze();
  }

  std::unique_ptr<TypeSystem> TS;
  std::unique_ptr<Program> P;
  std::unique_ptr<CompletionIndexes> Idx;
  std::vector<std::optional<int>> PreFreeze;
};

TEST_F(DenseEquivalenceTest, FreezeModesTakeTheIntendedRepresentation) {
  EXPECT_TRUE(Idx->frozen());
  EXPECT_TRUE(TS->ancestorRowsComplete());
  EXPECT_TRUE(Idx->Members.frozen());
  EXPECT_TRUE(Idx->Methods.frozen());
  EXPECT_TRUE(Idx->Reach.frozen());

  // Before freeze() an index holds no tables at all; freeze() builds all
  // three, and engine construction freezes on its own.
  CompletionIndexes Fresh(*P);
  EXPECT_FALSE(Fresh.frozen());
  EXPECT_FALSE(Fresh.Members.frozen());
  EXPECT_FALSE(Fresh.Methods.frozen());
  EXPECT_FALSE(Fresh.Reach.frozen());
  CompletionEngine Engine(*P, Fresh);
  EXPECT_TRUE(Fresh.frozen());
  EXPECT_TRUE(Fresh.Members.frozen());
  EXPECT_TRUE(Fresh.Methods.frozen());
  EXPECT_TRUE(Fresh.Reach.frozen());
}

TEST_F(DenseEquivalenceTest, TypeDistancesMatchOracleOnEveryPair) {
  expectTypeDistancesMatchOracle(*TS, distanceOracle(*TS));
  // Rows filled by the generator's queries answer as the frozen CSR does.
  EXPECT_EQ(allDistances(*TS), PreFreeze);
  // The CSR is what it claims: one sorted row per type, self at 0.
  Span<const uint32_t> Offsets = TS->ancestorOffsets();
  ASSERT_EQ(Offsets.size(), TS->numTypes() + 1);
  EXPECT_EQ(Offsets[TS->numTypes()], TS->ancestorEntries().size());
  for (size_t T = 0; T != TS->numTypes(); ++T) {
    Span<const AncestorEntry> Row = TS->ancestors(static_cast<TypeId>(T));
    EXPECT_TRUE(std::is_sorted(Row.begin(), Row.end(),
                               [](const AncestorEntry &A,
                                  const AncestorEntry &B) {
                                 return A.Type < B.Type;
                               }));
    EXPECT_TRUE(
        std::any_of(Row.begin(), Row.end(), [&](const AncestorEntry &A) {
          return A.Type == static_cast<TypeId>(T) && A.Dist == 0;
        }));
  }
}

TEST_F(DenseEquivalenceTest, ReachabilityMatchesLegacyOnEveryPair) {
  expectReachMatchesOracle(*TS, Idx->Members, Idx->Reach);
}

TEST_F(DenseEquivalenceTest, MemberEdgeListsMatchLegacyElementwise) {
  expectMembersMatchOracle(*TS, Idx->Members);
}

TEST_F(DenseEquivalenceTest, MethodCandidateListsMatchLegacyInOrder) {
  // Order is part of the contract: the pre-merged spans must preserve
  // the nearer-supertype-first BFS order the ranking relies on.
  expectMethodsMatchOracle(*TS, Idx->Methods);
}

//===----------------------------------------------------------------------===//
// Overlay corpus
//===----------------------------------------------------------------------===//

/// A document over the geometry base: overlay classes deriving from base
/// classes, fields and zero-arg methods crossing both layers, and static
/// methods whose base-typed parameters give base types an appendage.
const char *OverlayDoc = R"(
namespace Sketch {
  class Marker : DynamicGeometry.Shape {
    System.Windows.Point Anchor;
    Label Caption;
    DynamicGeometry.ShapeStyle GetStyle();
    static double Measure(DynamicGeometry.LineBase line, Marker m);
  }
  class Label {
    string Text;
    Marker Owner;
    double Width();
  }
  class Callout : Marker {
    DynamicGeometry.EllipseArc Arc;
  }
  class Tools {
    static void Align(DynamicGeometry.Shape s, System.Windows.Point p);
    static Label Tag(object o, int n);
  }
}
)";

class OverlayIndexOracleTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::string Error;
    Base = baseCorpusFromSource(corpora::GeometryCorpus, Error);
    ASSERT_NE(Base, nullptr) << Error;
    TS = std::make_unique<TypeSystem>(Base->TS);
    P = std::make_unique<Program>(*TS);
    DiagnosticEngine Diags;
    ASSERT_TRUE(loadProgramText(OverlayDoc, *P, Diags));
    ASSERT_GT(TS->numTypes(), TS->numBaseTypes());
    ASSERT_GT(TS->numMethods(), TS->numBaseMethods());
    PreFreeze = allDistances(*TS);
    Idx = std::make_unique<CompletionIndexes>(*P, Base);
    Idx->freeze();
  }

  std::shared_ptr<const BaseCorpus> Base;
  std::unique_ptr<TypeSystem> TS;
  std::unique_ptr<Program> P;
  std::unique_ptr<CompletionIndexes> Idx;
  std::vector<std::optional<int>> PreFreeze;
};

TEST_F(OverlayIndexOracleTest, TypeDistancesMatchOracleOnEveryPair) {
  // Base×base, base×overlay and overlay×overlay pairs alike; the overlay
  // keeps rows for its own types only.
  expectTypeDistancesMatchOracle(*TS, distanceOracle(*TS));
  EXPECT_EQ(allDistances(*TS), PreFreeze);
  EXPECT_EQ(TS->ancestorOffsets().size(),
            TS->numTypes() - TS->numBaseTypes() + 1);
}

TEST_F(OverlayIndexOracleTest, MemberEdgeListsMatchOracle) {
  expectMembersMatchOracle(*TS, Idx->Members);
}

TEST_F(OverlayIndexOracleTest, MethodCandidateListsMatchOracle) {
  expectMethodsMatchOracle(*TS, Idx->Methods);
  // The appendage is not vacuous: a base type gains overlay candidates.
  TypeId Shape = TS->findType("DynamicGeometry.Shape");
  ASSERT_NE(Shape, InvalidId);
  MethodCandidates C = Idx->Methods.candidatesForArgType(Shape);
  EXPECT_TRUE(std::any_of(C.begin(), C.end(), [&](MethodId M) {
    return static_cast<size_t>(M) >= TS->numBaseMethods();
  }));
}

TEST_F(OverlayIndexOracleTest, ReachabilityMatchesOracleOnEveryPair) {
  expectReachMatchesOracle(*TS, Idx->Members, Idx->Reach);
}

//===----------------------------------------------------------------------===//
// Concurrent stress over the lock-free tables (TSan: scripts/ci.sh)
//===----------------------------------------------------------------------===//

/// Eight threads hammer the reachability tables and CSR spans with the *same*
/// access pattern: every per-thread checksum must agree with a serial
/// recompute (a torn read or partially published table would diverge).
/// The suite name contains "IndexStress" so the TSan CI leg picks it up.
TEST(DenseIndexStressTest, EightThreadsReadLockFreeTablesConsistently) {
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator(paperProjectProfiles(0.1)[0]).generate(P);
  CompletionIndexes Idx(P);
  Idx.freeze();
  ASSERT_TRUE(Idx.Reach.frozen());
  ASSERT_TRUE(TS.ancestorRowsComplete());

  auto Checksum = [&] {
    uint64_t Sum = 0;
    size_t N = TS.numTypes();
    for (size_t Round = 0; Round != 3; ++Round)
      for (size_t I = 0; I != N; ++I) {
        TypeId From = static_cast<TypeId>((I * 7 + Round) % N);
        TypeId To = static_cast<TypeId>((I * 13 + 5) % N);
        Sum += Idx.Members.edges(From).size();
        Sum += Idx.Methods.candidatesForArgType(From).size();
        for (bool Methods : {false, true})
          Sum += static_cast<uint64_t>(
              Idx.Reach.minLookupsToConvertible(From, To, Methods)
                      .value_or(-1) +
              2);
        Sum += TS.implicitlyConvertible(From, To);
        Sum +=
            static_cast<uint64_t>(TS.typeDistance(From, To).value_or(-1) + 2);
      }
    return Sum;
  };

  uint64_t Expected = Checksum();
  constexpr size_t NumThreads = 8;
  std::vector<uint64_t> Got(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] { Got[T] = Checksum(); });
  for (std::thread &Th : Threads)
    Th.join();
  for (size_t T = 0; T != NumThreads; ++T)
    EXPECT_EQ(Got[T], Expected) << "thread " << T;
}

} // namespace
