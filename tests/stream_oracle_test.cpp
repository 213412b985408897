//===- tests/stream_oracle_test.cpp - Streams vs the standalone scorer ---===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The streams score every combination incrementally, from the argument
// scores and per-argument costs they already hold, and build an expression
// only when its bucket is drained. This checks, stream by stream, that the
// incremental score is the specification's: every candidate of every
// bucket up to the one where the engine stops has Score equal to
// Ranker::scoreExpr and to ScoreCard::total(), for queries of all four
// families harvested from a generated corpus, under "all", "none", and
// every single-term ablation, with and without a scratch arena.
//
//===----------------------------------------------------------------------===//

#include "code/ExprPrinter.h"
#include "complete/Engine.h"
#include "corpus/Generator.h"
#include "eval/Harvest.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

using namespace petal;

namespace {

const char *AblationSpecs[] = {"all", "none", "-t", "-a",
                               "-d",  "-s",   "-n", "-m"};

/// One generated project, its indexes and its harvested sites, shared by
/// every ablation.
struct Corpus {
  TypeSystem TS;
  Program P{TS};
  std::unique_ptr<CompletionIndexes> Idx;
  std::unique_ptr<AbsTypeSolution> Sol;
  struct Query {
    std::string Family;
    const PartialExpr *PE;
    CodeSite Site;
  };
  std::vector<Query> Queries;

  static Corpus &get() {
    static Corpus C;
    return C;
  }

private:
  Corpus() {
    CorpusGenerator Gen(paperProjectProfiles(0.15)[5]);
    Gen.generate(P);
    Idx = std::make_unique<CompletionIndexes>(P);
    Idx->freeze();
    Sol = std::make_unique<AbsTypeSolution>(Idx->Infer.solve());
    harvestQueries();
  }

  void add(const char *Family, const PartialExpr *PE, const CodeSite &Site,
           size_t Max) {
    size_t Have = 0;
    for (const Query &Q : Queries)
      Have += Q.Family == Family;
    if (Have < Max)
      Queries.push_back({Family, PE, Site});
  }

  /// The four families of §5, built from harvested ground truth: `?({a})`,
  /// `M(r, ?, x)` (plus a variant with a `0` argument), `b.?m = rhs`, and
  /// `b.?m < rhs`; then the two shapes the incremental score must get
  /// right specifically.
  void harvestQueries() {
    Arena &A = P.arena();
    HarvestResult H = harvestProgram(P);
    auto Concrete = [&](const Expr *E) { return A.create<ConcretePE>(E); };
    for (const CallSiteInfo &CS : H.Calls) {
      const CallExpr *Call = CS.Call;
      const MethodInfo &MI = TS.method(Call->method());
      std::vector<const Expr *> CallArgs;
      if (!MI.IsStatic)
        CallArgs.push_back(Call->receiver());
      CallArgs.insert(CallArgs.end(), Call->args().begin(),
                      Call->args().end());

      std::vector<const PartialExpr *> Ingredients;
      for (const Expr *E : CallArgs)
        if (Ingredients.size() < 2 && !isa<TypeRefExpr>(E) &&
            isGuessableExpr(E))
          Ingredients.push_back(Concrete(E));
      if (!Ingredients.empty())
        add("method", A.create<UnknownCallPE>(Ingredients), CS.Site, 12);

      // The first guessable declared argument becomes a hole.
      std::vector<const PartialExpr *> Args;
      bool Hole = false;
      for (size_t I = 0; I != CallArgs.size(); ++I) {
        bool Declared = MI.IsStatic || I != 0;
        if (!Hole && Declared && isGuessableExpr(CallArgs[I])) {
          Args.push_back(A.create<HolePE>());
          Hole = true;
        } else {
          Args.push_back(Concrete(CallArgs[I]));
        }
      }
      if (Hole) {
        std::vector<MethodId> Callee{Call->method()};
        add("args", A.create<KnownCallPE>(MI.Name, Args, Callee), CS.Site, 12);
        // The same call with its last concrete argument made `0`.
        for (size_t I = Args.size(); I-- != 0;)
          if (isa<ConcretePE>(Args[I])) {
            Args[I] = A.create<DontCarePE>();
            add("args-0", A.create<KnownCallPE>(MI.Name, Args, Callee),
                CS.Site, 6);
            break;
          }
      }

      // A call with no declared parameters scores as a lookup step on its
      // receiver, known or guessed.
      if (!MI.IsStatic && MI.Params.empty()) {
        std::vector<MethodId> Callee{Call->method()};
        add("lookup-call",
            A.create<KnownCallPE>(
                MI.Name, std::vector<const PartialExpr *>{A.create<HolePE>()},
                Callee),
            CS.Site, 2);
        add("lookup-call",
            A.create<KnownCallPE>(
                MI.Name,
                std::vector<const PartialExpr *>{Concrete(Call->receiver())},
                Callee),
            CS.Site, 4);
      }

      // Unknown calls over a guessed argument: locals of one type fit the
      // same method at the same score, so their ties collide on
      // (parameter count, method) and only the sequence number orders them.
      add("method-collide",
          A.create<UnknownCallPE>(
              std::vector<const PartialExpr *>{A.create<HolePE>()}),
          CS.Site, 4);
    }
    for (const AssignSiteInfo &AS : H.Assigns) {
      const auto *F = dyn_cast<FieldAccessExpr>(AS.Assign->lhs());
      if (!F || !F->base() || isa<TypeRefExpr>(F->base()))
        continue;
      add("assign",
          A.create<AssignPE>(
              A.create<SuffixPE>(Concrete(F->base()), SuffixKind::Member),
              Concrete(AS.Assign->rhs())),
          AS.Site, 8);
    }
    for (const CompareSiteInfo &CS : H.Compares) {
      const auto *F = dyn_cast<FieldAccessExpr>(CS.Compare->lhs());
      if (!F || !F->base() || isa<TypeRefExpr>(F->base()))
        continue;
      add("compare",
          A.create<ComparePE>(
              CS.Compare->op(),
              A.create<SuffixPE>(Concrete(F->base()), SuffixKind::Member),
              Concrete(CS.Compare->rhs())),
          CS.Site, 8);
    }
  }
};

/// Configures \p R exactly as CompletionEngine::complete does for \p Site.
void configure(Ranker &R, const Corpus &C, const CodeSite &Site,
               const RankingOptions &Opts) {
  if (Site.Class)
    R.setSelfType(Site.Class->type());
  if (Opts.UseAbstractTypes)
    R.setAbstractTypes(&C.Idx->Infer, C.Sol.get(), Site.Method);
}

/// The stream kind buildStream picks for \p PE (MergeStream over
/// KnownCallStreams for a known call; VarsStream under a hole's suffix).
const char *streamKind(const PartialExpr *PE) {
  switch (PE->kind()) {
  case PartialKind::Hole:
    return "Suffix(Vars)";
  case PartialKind::DontCare:
    return "DontCare";
  case PartialKind::Concrete:
    return "Concrete";
  case PartialKind::Suffix:
    return "Suffix";
  case PartialKind::UnknownCall:
    return "UnknownCall";
  case PartialKind::KnownCall:
    return "KnownCall";
  case PartialKind::Compare:
    return "Compare";
  case PartialKind::Assign:
    return "Assign";
  }
  return "?";
}

class StreamOracleTest : public ::testing::TestWithParam<const char *> {
protected:
  /// Builds the stream of \p PE (and, recursively, of every
  /// sub-expression, with the targets buildStream gives them) and checks
  /// buckets 0..\p Last. Returns the rendered buckets of \p PE's stream.
  std::string check(const PartialExpr *PE, TypeId Target, int Last,
                    EngineState &ES, const Ranker &Oracle) {
    const TypeSystem &TS = *ES.TS;
    std::unique_ptr<CandidateStream> S = buildStream(ES, PE, Target);
    std::ostringstream Render;
    for (int B = 0; B <= Last; ++B) {
      const CandidateVec &Bucket = S->bucket(B);
      const CallExpr *Prev = nullptr;
      for (const Candidate &C : Bucket) {
        std::string Text = printExpr(TS, C.E);
        Render << B << ' ' << Text << '\n';
        EXPECT_EQ(C.Score, B) << Text;
        EXPECT_EQ(Oracle.scoreExpr(C.E), B) << streamKind(PE) << ": " << Text;
        EXPECT_EQ(Oracle.scoreCard(C.E).total(), B) << Text;
        ++Checked[streamKind(PE)];
        if (const auto *Call = dyn_cast<CallExpr>(C.E)) {
          if (Call->args().empty() && Call->receiver() &&
              PE->kind() == PartialKind::KnownCall)
            ++Checked["zero-declared-argument call"];
          // An unknown call's bucket is ordered by (parameter count,
          // method), then discovery; equal keys are the collisions.
          if (PE->kind() == PartialKind::UnknownCall && Prev) {
            auto Key = [&](const CallExpr *E) {
              return std::make_pair(TS.numCallParams(E->method()),
                                    E->method());
            };
            EXPECT_LE(Key(Prev), Key(Call)) << Text;
            if (Key(Prev) == Key(Call))
              ++Checked["(parameter count, method) tie"];
          }
          Prev = Call;
        }
      }
    }

    switch (PE->kind()) {
    case PartialKind::Suffix:
      check(cast<SuffixPE>(PE)->base(), InvalidId, Last, ES, Oracle);
      break;
    case PartialKind::UnknownCall:
      for (const PartialExpr *Arg : cast<UnknownCallPE>(PE)->args())
        check(Arg, InvalidId, Last, ES, Oracle);
      break;
    case PartialKind::KnownCall: {
      const auto *K = cast<KnownCallPE>(PE);
      for (MethodId M : K->resolved())
        for (size_t I = 0; I != K->args().size(); ++I)
          check(K->args()[I], TS.callParamType(M, I), Last, ES, Oracle);
      break;
    }
    case PartialKind::Compare:
      check(cast<ComparePE>(PE)->lhs(), InvalidId, Last, ES, Oracle);
      check(cast<ComparePE>(PE)->rhs(), InvalidId, Last, ES, Oracle);
      break;
    case PartialKind::Assign:
      check(cast<AssignPE>(PE)->lhs(), InvalidId, Last, ES, Oracle);
      check(cast<AssignPE>(PE)->rhs(), InvalidId, Last, ES, Oracle);
      break;
    default:
      break;
    }
    return Render.str();
  }

  std::map<std::string, size_t> Checked;
};

TEST_P(StreamOracleTest, EveryBucketedCandidateScoresAsTheStandaloneScorer) {
  Corpus &C = Corpus::get();
  ASSERT_FALSE(C.Queries.empty());
  CompletionOptions Opts;
  Opts.Rank = RankingOptions::fromSpec(GetParam());
  CompletionEngine Engine(C.P, *C.Idx);

  std::map<std::string, size_t> PerFamily;
  for (const Corpus::Query &Q : C.Queries) {
    // Where the engine stops for a top-10 answer.
    Engine.complete(Q.PE, Q.Site, 10, Opts, C.Sol.get());
    int Last = Engine.lastQueryStats().LastBucket;
    ASSERT_GE(Last, 0) << Q.Family;

    Ranker Oracle(C.TS, Opts.Rank);
    configure(Oracle, C, Q.Site, Opts.Rank);

    // The same streams with and without a scratch arena: identical
    // buckets, and every candidate scored as the oracle scores it.
    std::string Rendered[2];
    for (int WithScratch = 0; WithScratch != 2; ++WithScratch) {
      Arena Results, Scratch;
      ExprFactory Factory(C.TS, Results);
      Ranker Rank(C.TS, Opts.Rank);
      configure(Rank, C, Q.Site, Opts.Rank);
      EngineState ES;
      ES.TS = &C.TS;
      ES.Factory = &Factory;
      ES.Rank = &Rank;
      ES.MIndex = &C.Idx->Methods;
      ES.Members = &C.Idx->Members;
      ES.Reach = &C.Idx->Reach;
      ES.Class = Q.Site.Class;
      ES.Method = Q.Site.Method;
      ES.StmtIndex = Q.Site.StmtIndex;
      if (WithScratch) {
        ES.Scratch = &Scratch;
        Rank.setScratchArena(&Scratch);
      }
      Rendered[WithScratch] = check(Q.PE, InvalidId, Last, ES, Oracle);
      EXPECT_LE(ES.Counts.ExprsMaterialised, ES.Counts.CombosScored);
    }
    EXPECT_EQ(Rendered[0], Rendered[1]) << Q.Family;
    PerFamily[Q.Family] += !Rendered[1].empty();
  }

  for (const char *Family : {"method", "args", "args-0", "lookup-call",
                             "method-collide", "assign", "compare"})
    EXPECT_GT(PerFamily[Family], 0u) << Family;
  for (const char *Kind :
       {"Suffix(Vars)", "DontCare", "Concrete", "Suffix", "UnknownCall",
        "KnownCall", "Compare", "Assign", "zero-declared-argument call",
        "(parameter count, method) tie"})
    EXPECT_GT(Checked[Kind], 0u) << Kind;
}

INSTANTIATE_TEST_SUITE_P(AllAblations, StreamOracleTest,
                         ::testing::ValuesIn(AblationSpecs));

/// The namespace term compares interned prefix ids; they must agree with
/// the segment strings they stand for.
TEST(StreamOracleNamespaceTest, PrefixIdsMatchSegmentStrings) {
  Corpus &C = Corpus::get();
  const TypeSystem &TS = C.TS;
  size_t Pairs = 0, Shared = 0;
  for (size_t A = 0; A < TS.numTypes(); A += 3)
    for (size_t B = 0; B < TS.numTypes(); B += 5) {
      TypeId TA = static_cast<TypeId>(A), TB = static_cast<TypeId>(B);
      size_t Want = std::min<size_t>(
          NamespaceInfo::MaxPrefix,
          commonPrefixLength(TS.nspace(TS.type(TA).Namespace).Segments,
                             TS.nspace(TS.type(TB).Namespace).Segments));
      ASSERT_EQ(static_cast<size_t>(TS.commonNamespacePrefix(TA, TB)), Want)
          << TS.qualifiedName(TA) << " vs " << TS.qualifiedName(TB);
      ++Pairs;
      Shared += Want > 0;
    }
  EXPECT_GT(Pairs, 0u);
  EXPECT_GT(Shared, 0u);
}

} // namespace
