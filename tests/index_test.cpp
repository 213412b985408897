//===- tests/index_test.cpp - Method/member/reachability index tests ------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"
#include "index/MemberCache.h"
#include "index/MethodIndex.h"
#include "index/ReachabilityIndex.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace petal;

namespace {

//===----------------------------------------------------------------------===//
// MethodIndex
//===----------------------------------------------------------------------===//

class MethodIndexTest : public ::testing::Test {
protected:
  void SetUp() override {
    Ns = TS.getOrAddNamespace("M");
    Shape = TS.addType("Shape", Ns, TypeKind::Class);
    Rect = TS.addType("Rect", Ns, TypeKind::Class, Shape);
    Other = TS.addType("Other", Ns, TypeKind::Class);
    TakesShape = TS.addMethod(Other, "TakesShape", TS.voidType(),
                              {{"s", Shape}}, /*IsStatic=*/true);
    TakesRect = TS.addMethod(Other, "TakesRect", TS.voidType(), {{"r", Rect}},
                             /*IsStatic=*/true);
    TakesObject = TS.addMethod(Other, "TakesObject", TS.voidType(),
                               {{"o", TS.objectType()}}, /*IsStatic=*/true);
    OnShape = TS.addMethod(Shape, "Scale", TS.voidType(),
                           {{"by", TS.doubleType()}});
  }

  TypeSystem TS;
  NamespaceId Ns;
  TypeId Shape, Rect, Other;
  MethodId TakesShape, TakesRect, TakesObject, OnShape;
};

TEST_F(MethodIndexTest, ExactBucketsKeyOnDeclaredTypes) {
  MethodIndex Idx(TS);
  const auto &ShapeBucket = Idx.exactBucket(Shape);
  // Shape appears as TakesShape's param and as Scale's receiver slot.
  EXPECT_NE(std::find(ShapeBucket.begin(), ShapeBucket.end(), TakesShape),
            ShapeBucket.end());
  EXPECT_NE(std::find(ShapeBucket.begin(), ShapeBucket.end(), OnShape),
            ShapeBucket.end());
  EXPECT_EQ(std::find(ShapeBucket.begin(), ShapeBucket.end(), TakesRect),
            ShapeBucket.end());
}

TEST_F(MethodIndexTest, CandidatesWalkSupertypes) {
  MethodIndex Idx(TS);
  Idx.freeze();
  const auto &ForRect = Idx.candidatesForArgType(Rect);
  std::set<MethodId> S(ForRect.begin(), ForRect.end());
  // A Rect argument fits Rect, Shape, and Object parameters.
  EXPECT_TRUE(S.count(TakesRect));
  EXPECT_TRUE(S.count(TakesShape));
  EXPECT_TRUE(S.count(TakesObject));
  EXPECT_TRUE(S.count(OnShape)); // receiver position

  const auto &ForShape = Idx.candidatesForArgType(Shape);
  std::set<MethodId> S2(ForShape.begin(), ForShape.end());
  EXPECT_FALSE(S2.count(TakesRect)); // Shape does not fit a Rect param
}

TEST_F(MethodIndexTest, NearerBucketsComeFirst) {
  MethodIndex Idx(TS);
  Idx.freeze();
  const auto &ForRect = Idx.candidatesForArgType(Rect);
  auto Pos = [&](MethodId M) {
    return std::find(ForRect.begin(), ForRect.end(), M) - ForRect.begin();
  };
  // "each method index visited will give progressively worse ranked
  // results" — exact-type methods precede supertype methods.
  EXPECT_LT(Pos(TakesRect), Pos(TakesShape));
  EXPECT_LT(Pos(TakesShape), Pos(TakesObject));
}

/// Property: over a generated corpus, candidatesForArgType(T) equals the
/// brute-force set of methods with >= 1 call-signature parameter T converts
/// to.
TEST(MethodIndexPropertyTest, MatchesBruteForceOnGeneratedCorpus) {
  ProjectProfile Prof = paperProjectProfiles(0.2)[0];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  MethodIndex Idx(TS);
  Idx.freeze();

  for (size_t T = 0; T != TS.numTypes(); ++T) {
    TypeId Ty = static_cast<TypeId>(T);
    // void has no values; the null pseudo-type converts via a special rule,
    // not via supertype edges, and the engine never indexes on it.
    if (TS.type(Ty).Kind == TypeKind::Void || Ty == TS.nullType())
      continue;
    std::set<MethodId> Expected;
    for (size_t M = 0; M != TS.numMethods(); ++M) {
      MethodId Id = static_cast<MethodId>(M);
      for (size_t I = 0, N = TS.numCallParams(Id); I != N; ++I)
        if (TS.implicitlyConvertible(Ty, TS.callParamType(Id, I))) {
          Expected.insert(Id);
          break;
        }
    }
    const auto &Got = Idx.candidatesForArgType(Ty);
    std::set<MethodId> GotSet(Got.begin(), Got.end());
    ASSERT_EQ(GotSet, Expected) << "type " << TS.qualifiedName(Ty);
    ASSERT_EQ(Got.size(), GotSet.size()) << "duplicates for type " << T;
  }
}

//===----------------------------------------------------------------------===//
// MemberCache
//===----------------------------------------------------------------------===//

TEST(MemberCacheTest, FieldsFirstThenZeroArgMethods) {
  TypeSystem TS;
  NamespaceId Ns = TS.getOrAddNamespace("N");
  TypeId C = TS.addType("C", Ns, TypeKind::Class);
  TS.addField(C, "F", TS.intType());
  TS.addField(C, "S", TS.intType(), /*IsStatic=*/true); // excluded
  TS.addMethod(C, "Get", TS.intType(), {});
  TS.addMethod(C, "WithArg", TS.intType(), {{"x", TS.intType()}}); // excluded
  TS.addMethod(C, "Void", TS.voidType(), {});                      // excluded
  TS.addMethod(C, "Static", TS.intType(), {}, /*IsStatic=*/true);  // excluded

  MemberCache MC(TS);
  MC.freeze();
  const auto &Edges = MC.edges(C);
  ASSERT_EQ(Edges.size(), 2u);
  EXPECT_TRUE(Edges[0].IsField);
  EXPECT_FALSE(Edges[1].IsField);
  EXPECT_EQ(MC.numFieldEdges(C), 1u);
}

TEST(MemberCacheTest, IncludesInheritedMembers) {
  TypeSystem TS;
  NamespaceId Ns = TS.getOrAddNamespace("N");
  TypeId Base = TS.addType("Base", Ns, TypeKind::Class);
  TypeId Derived = TS.addType("Derived", Ns, TypeKind::Class, Base);
  TS.addField(Base, "F", TS.intType());
  TS.addMethod(Base, "Get", TS.intType(), {});

  MemberCache MC(TS);
  MC.freeze();
  EXPECT_EQ(MC.edges(Derived).size(), 2u);
  EXPECT_TRUE(MC.edges(TS.intType()).empty());
}

//===----------------------------------------------------------------------===//
// ReachabilityIndex
//===----------------------------------------------------------------------===//

class ReachTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Line --p1--> Point --x--> double; Line --GetStyle()--> Style.
    Ns = TS.getOrAddNamespace("R");
    Point = TS.addType("Point", Ns, TypeKind::Struct);
    TS.addField(Point, "X", TS.doubleType());
    Style = TS.addType("Style", Ns, TypeKind::Class);
    TS.addField(Style, "Origin", Point);
    Line = TS.addType("Line", Ns, TypeKind::Class);
    TS.addField(Line, "P1", Point);
    TS.addMethod(Line, "GetStyle", Style, {});
    MC = std::make_unique<MemberCache>(TS);
    MC->freeze();
    RI = std::make_unique<ReachabilityIndex>(TS, *MC);
    RI->freeze();
  }

  TypeSystem TS;
  NamespaceId Ns;
  TypeId Point, Style, Line;
  std::unique_ptr<MemberCache> MC;
  std::unique_ptr<ReachabilityIndex> RI;
};

TEST_F(ReachTest, MinLookupCounts) {
  // Line, Point, Style and double have no subtypes among the reachable
  // types, so the convertible-target distance is the exact-type one.
  EXPECT_EQ(RI->minLookupsToConvertible(Line, Line, true), 0);
  EXPECT_EQ(RI->minLookupsToConvertible(Line, Point, true), 1);
  EXPECT_EQ(RI->minLookupsToConvertible(Line, TS.doubleType(), true), 2);
  // Style only reachable through the GetStyle() method edge.
  EXPECT_EQ(RI->minLookupsToConvertible(Line, Style, true), 1);
  EXPECT_FALSE(RI->minLookupsToConvertible(Line, Style, false).has_value());
  // Fields-only still reaches double through P1.X.
  EXPECT_EQ(RI->minLookupsToConvertible(Line, TS.doubleType(), false), 2);
  EXPECT_FALSE(RI->minLookupsToConvertible(Point, Line, true).has_value());
}

TEST_F(ReachTest, ConvertibleTargets) {
  // Anything reaches a value convertible to Object immediately.
  EXPECT_EQ(RI->minLookupsToConvertible(Line, TS.objectType(), true), 0);
  // double is convertible to double only; from Point that is one lookup.
  EXPECT_EQ(RI->minLookupsToConvertible(Point, TS.doubleType(), true), 1);
  EXPECT_FALSE(
      RI->minLookupsToConvertible(Point, Style, true).has_value());
}

TEST_F(ReachTest, DepthCapBoundsTheSearch) {
  // A self-referential chain: Node.Next.Next... never reaches Missing.
  TypeId Node = TS.addType("Node", Ns, TypeKind::Class);
  TS.addField(Node, "Next", Node);
  MemberCache MC2(TS);
  MC2.freeze();
  ReachabilityIndex Shallow(TS, MC2, /*MaxDepth=*/3);
  Shallow.freeze();
  EXPECT_EQ(Shallow.minLookupsToConvertible(Node, Node, true), 0);
  EXPECT_FALSE(Shallow.minLookupsToConvertible(Node, Point, true).has_value());
}

/// Property: minLookupsToConvertible agrees with an independent BFS oracle
/// on a generated corpus.
TEST(ReachabilityPropertyTest, AgreesWithBfsOracle) {
  ProjectProfile Prof = paperProjectProfiles(0.15)[2];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  MemberCache MC(TS);
  MC.freeze();
  ReachabilityIndex RI(TS, MC, /*MaxDepth=*/4);
  RI.freeze();

  Rng R(99);
  for (int Trial = 0; Trial != 40; ++Trial) {
    TypeId From = static_cast<TypeId>(R.below(TS.numTypes()));
    if (TS.type(From).Kind == TypeKind::Void)
      continue;
    // Oracle BFS over edges.
    std::unordered_map<TypeId, int> Dist{{From, 0}};
    std::vector<TypeId> Work{From};
    for (size_t I = 0; I != Work.size(); ++I) {
      TypeId Cur = Work[I];
      if (Dist[Cur] >= 4)
        continue;
      for (const LookupEdge &E : MC.edges(Cur))
        if (!Dist.count(E.ResultType)) {
          Dist[E.ResultType] = Dist[Cur] + 1;
          Work.push_back(E.ResultType);
        }
    }
    for (size_t T = 0; T != TS.numTypes(); ++T) {
      TypeId To = static_cast<TypeId>(T);
      std::optional<int> Want;
      for (const auto &[Ty, D] : Dist)
        if (TS.implicitlyConvertible(Ty, To) && (!Want || D < *Want))
          Want = D;
      ASSERT_EQ(RI.minLookupsToConvertible(From, To, true), Want);
    }
  }
}

} // namespace
