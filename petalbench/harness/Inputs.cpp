//===- petalbench/harness/Inputs.cpp --------------------------------------===//

#include "Inputs.h"
#include "Util.h"

#include "code/Expr.h"
#include "code/ExprPrinter.h"
#include "corpus/Generator.h"
#include "corpus/MiniFrameworks.h"
#include "corpus/SourceWriter.h"
#include "eval/Harvest.h"
#include "parser/Frontend.h"
#include "snapshot/Snapshot.h"
#include "support/Casting.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <set>

using namespace petal;

namespace pb {

const char *familyName(int F) {
  static const char *Names[] = {"method", "args", "lookup", "compare"};
  return F >= 0 && F < NumFamilies ? Names[F] : "?";
}

int familyOf(const std::string &Name) {
  for (int F = 0; F != NumFamilies; ++F)
    if (Name == familyName(F))
      return F;
  return -1;
}

namespace {

std::string generateSource(const ProjectProfile &Prof) {
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  return writeProgramSource(P);
}

/// The text of `class <Name> { ... }` in \p Source, renamed to \p NewName.
std::string extractClass(const std::string &Source, const std::string &Name,
                         const std::string &NewName) {
  std::string Header = "class " + Name + " {";
  size_t At = Source.find(Header);
  if (At == std::string::npos)
    return "";
  size_t LineStart = Source.rfind('\n', At) + 1;
  int Depth = 0;
  size_t I = Source.find('{', At);
  for (; I < Source.size(); ++I) {
    if (Source[I] == '{')
      ++Depth;
    else if (Source[I] == '}' && --Depth == 0)
      break;
  }
  std::string Text = Source.substr(LineStart, I + 1 - LineStart) + "\n";
  Text.replace(Text.find(Header), Header.size(),
               "class " + NewName + " {");
  return Text;
}

/// Inserts \p Body `var` locals at the top of the first method body and,
/// for \p Sig > 0, \p Sig extra fields after the class header; \p Ws adds
/// trailing blank lines (token-identical).
std::string varyClass(const std::string &Template, int Sig, int Body,
                      int Ws) {
  std::string Text = Template;
  size_t Header = Text.find("{\n");
  std::string Fields;
  static const char *Extra[] = {"    double BenchExtraA;\n",
                                "    int BenchExtraB;\n"};
  for (int I = 0; I < Sig && I < 2; ++I)
    Fields += Extra[I];
  Text.insert(Header + 2, Fields);
  size_t Method = Text.find(") {\n");
  std::string Locals;
  for (int I = 0; I < Body; ++I)
    Locals += "      var benchLocal" + std::to_string(I) + " = this;\n";
  Text.insert(Method + 4, Locals);
  if (Ws)
    Text += "\n\n";
  return Text;
}

constexpr int PaperQueriesPerProfile = 56;

bool isTypeRef(const Expr *E) { return E && isa<TypeRefExpr>(E); }

/// The query texts each family derives from one harvested site.
struct Candidate {
  std::string Class, Method, Query;
};

void familyCandidates(Program &P, const HarvestResult &H,
                      const std::function<bool(const std::string &)> &Keep,
                      std::vector<Candidate> (&Out)[NumFamilies]) {
  const TypeSystem &TS = P.typeSystem();
  auto Site = [&](const CodeSite &S, Candidate &C) {
    C.Class = TS.qualifiedName(S.Class->type());
    C.Method = TS.method(S.Method->decl()).Name;
    return Keep(C.Class);
  };
  for (const CallSiteInfo &CS : H.Calls) {
    Candidate C;
    if (!Site(CS.Site, C))
      continue;
    const CallExpr *Call = CS.Call;
    // §5.1: ?({g1[, g2]}) over the call's guessable ingredients.
    std::vector<std::string> Ingredients;
    auto Add = [&](const Expr *E) {
      if (!E || isTypeRef(E) || !isGuessableExpr(E))
        return;
      std::string S = printExpr(TS, E);
      for (const std::string &Seen : Ingredients)
        if (Seen == S)
          return;
      if (Ingredients.size() < 2)
        Ingredients.push_back(S);
    };
    Add(Call->receiver());
    for (const Expr *A : Call->args())
      Add(A);
    if (!Ingredients.empty()) {
      Candidate M = C;
      M.Query = "?({" + Ingredients[0] +
                (Ingredients.size() > 1 ? ", " + Ingredients[1] : "") + "})";
      Out[FMethod].push_back(M);
    }
    // §5.2: the call with its first guessable argument replaced by a hole.
    std::string Args;
    bool Hole = false;
    if (Call->receiver() && !isTypeRef(Call->receiver()))
      Args = printExpr(TS, Call->receiver());
    for (const Expr *A : Call->args()) {
      if (!Args.empty())
        Args += ", ";
      if (!Hole && isGuessableExpr(A)) {
        Args += "?";
        Hole = true;
      } else {
        Args += printExpr(TS, A);
      }
    }
    if (Hole) {
      Candidate A = C;
      A.Query = TS.method(Call->method()).Name + "(" + Args + ")";
      Out[FArgs].push_back(A);
    }
  }
  // §5.3: the target's final lookup replaced by .?m.
  for (const AssignSiteInfo &AS : H.Assigns) {
    Candidate C;
    if (!Site(AS.Site, C))
      continue;
    const auto *F = dyn_cast<FieldAccessExpr>(AS.Assign->lhs());
    if (!F || !F->base() || isTypeRef(F->base()))
      continue;
    C.Query = printExpr(TS, F->base()) + ".?m = " +
              printExpr(TS, AS.Assign->rhs());
    Out[FLookup].push_back(C);
  }
  // §5.4: the left operand's final lookup replaced by .?m.
  for (const CompareSiteInfo &CS : H.Compares) {
    Candidate C;
    if (!Site(CS.Site, C))
      continue;
    const auto *F = dyn_cast<FieldAccessExpr>(CS.Compare->lhs());
    if (!F || !F->base() || isTypeRef(F->base()))
      continue;
    C.Query = printExpr(TS, F->base()) + ".?m " +
              compareOpSpelling(CS.Compare->op()) + " " +
              printExpr(TS, CS.Compare->rhs());
    Out[FCompare].push_back(C);
  }
}

/// The candidates of each family for the classes \p Keep accepts that parse
/// at end-of-method scope (where petald poses queries), deduplicated, in
/// harvest order. Their counts are the measured query mix.
using ValidSites = std::array<std::vector<Candidate>, NumFamilies>;
ValidSites validSites(Program &P,
                      const std::function<bool(const std::string &)> &Keep) {
  std::vector<Candidate> ByFamily[NumFamilies];
  familyCandidates(P, harvestProgram(P), Keep, ByFamily);
  ValidSites Out;
  for (int F = 0; F != NumFamilies; ++F) {
    std::set<std::string> Seen;
    for (const Candidate &C : ByFamily[F]) {
      if (!Seen.insert(C.Class + "#" + C.Method + "#" + C.Query).second)
        continue;
      const CodeClass *Class = findCodeClass(P, C.Class);
      const CodeMethod *Method =
          Class ? findCodeMethod(P, *Class, C.Method) : nullptr;
      if (!Method)
        continue;
      DiagnosticEngine Diags;
      if (parseQueryText(C.Query, P, scopeAtEnd(Class, Method), Diags))
        Out[F].push_back(C);
    }
  }
  return Out;
}

FamilyCounts countsOf(const ValidSites &V) {
  FamilyCounts N{};
  for (int F = 0; F != NumFamilies; ++F)
    N[F] = static_cast<int>(V[F].size());
  return N;
}

/// Up to \p Cap[F] of family F's valid sites, evenly spaced in harvest
/// order.
std::vector<PoolQuery> pickQueries(const ValidSites &Valid,
                                   const FamilyCounts &Cap,
                                   const std::string &Prefix) {
  std::vector<PoolQuery> Out;
  for (int F = 0; F != NumFamilies; ++F) {
    size_t N = std::min(static_cast<size_t>(Cap[F]), Valid[F].size());
    for (size_t I = 0; I != N; ++I) {
      const Candidate &C = Valid[F][I * Valid[F].size() / N];
      char Num[24];
      std::snprintf(Num, sizeof(Num), "%02zu", I);
      Out.push_back({Prefix + "." + familyName(F) + "." + Num, F, C.Class,
                     C.Method, C.Query});
    }
  }
  return Out;
}

std::string queriesTsv(const std::vector<PoolQuery> &Qs) {
  std::string Out;
  for (const PoolQuery &Q : Qs)
    Out += Q.Key + "\t" + Q.Class + "\t" + Q.Method + "\t" + Q.Query + "\n";
  return Out;
}

bool loadOrFail(const std::string &Text, Program &P, std::string &Err) {
  DiagnosticEngine Diags;
  if (loadProgramText(Text, P, Diags))
    return true;
  std::ostringstream OS;
  Diags.print(OS);
  Err = "generated source failed to load: " + OS.str();
  return false;
}

} // namespace

std::string editDocText(const std::string &PaintNetSource,
                        const std::string &TargetTemplate, int Sig, int Body,
                        int Ws) {
  return PaintNetSource + varyClass(TargetTemplate, Sig, Body, Ws);
}

std::string overlayDocText(const std::string &Template, int Body, int Ws) {
  return varyClass(Template, 0, Body, Ws);
}

std::string overlayDocName(int Doc) {
  return "overlay" + std::to_string(Doc) + ".cs";
}

bool prepareInputs(const std::string &Dir, std::string &Err) {
  PrepFiles F{Dir};
  std::string Inputs;
  auto Emit = [&](const std::string &Path, const std::string &Name,
                  const std::string &Text) {
    Inputs += Name + "\t" + std::to_string(Text.size()) + "\t" +
              digestOf(Text) + "\n";
    return writeFile(Path, Text);
  };

  // paper_replay: the seven profiles, 56 queries each, split among the
  // families in proportion to the profile's valid harvested sites. Those
  // counts are the measured query mix; mix.tsv records them, and the
  // petald workloads draw their completions by PaintNet's (profile 0).
  std::vector<ProjectProfile> Profs = paperProjectProfiles(CorpusScale);
  std::vector<PoolQuery> Paper;
  std::string PaintNet, Mix = "# source";
  for (int Fam = 0; Fam != NumFamilies; ++Fam)
    Mix += std::string("\t") + familyName(Fam);
  Mix += "\n";
  for (int I = 0; I != NumProfiles; ++I) {
    std::string Src = generateSource(Profs[I]);
    if (!Emit(F.paperSource(I), "paper_" + std::to_string(I) + ".cs", Src))
      return Err = "cannot write " + F.paperSource(I), false;
    TypeSystem TS;
    Program P(TS);
    if (!loadOrFail(Src, P, Err))
      return false;
    ValidSites V = validSites(P, [](const std::string &) { return true; });
    FamilyCounts N = countsOf(V);
    Mix += "paper_" + std::to_string(I);
    for (int Fam = 0; Fam != NumFamilies; ++Fam)
      Mix += "\t" + std::to_string(N[Fam]);
    Mix += "\n";
    std::vector<PoolQuery> Qs =
        pickQueries(V, apportion(N, PaperQueriesPerProfile),
                    "p" + std::to_string(I));
    Paper.insert(Paper.end(), Qs.begin(), Qs.end());
    if (I == 0)
      PaintNet = Src;
  }
  if (!Emit(F.mix(), "mix.tsv", Mix))
    return Err = "cannot write the query mix", false;
  if (!Emit(F.paperQueries(), "paper_queries.tsv", queriesTsv(Paper)))
    return Err = "cannot write paper queries", false;

  // edit_storm: PaintNet plus a target class copied from one of its
  // clients; queries posed inside the target class.
  std::string Target =
      extractClass(PaintNet, Profs[0].Name + "Client0", "EditTarget");
  if (Target.empty())
    return Err = "no client class to copy into the edit target", false;
  if (!Emit(F.paintNet(), "paintnet.cs", PaintNet) ||
      !Emit(F.editTarget(), "edit_target.cs", Target))
    return Err = "cannot write edit_storm inputs", false;
  {
    TypeSystem TS;
    Program P(TS);
    if (!loadOrFail(editDocText(PaintNet, Target, 0, 0, 0), P, Err))
      return false;
    std::vector<PoolQuery> Qs = pickQueries(
        validSites(P, [](const std::string &C) { return C == "EditTarget"; }),
        {6, 6, 6, 6}, "edit");
    if (!Emit(F.editQueries(), "edit_queries.tsv", queriesTsv(Qs)))
      return Err = "cannot write edit queries", false;
  }

  // workspace_serve: base = PaintNet + geometry; overlay documents copy
  // PaintNet client classes under new names.
  std::string Base = PaintNet + corpora::GeometryCorpus;
  if (!Emit(F.baseSource(), "ws_base.cs", Base))
    return Err = "cannot write base source", false;
  std::string AllDocs;
  for (int D = 0; D != OverlayDocs; ++D) {
    std::string T =
        extractClass(PaintNet, Profs[0].Name + "Client" + std::to_string(D),
                     "OverlayClient" + std::to_string(D));
    if (T.empty())
      return Err = "too few client classes for the overlay documents", false;
    if (!Emit(F.overlayTemplate(D), "ws_doc_" + std::to_string(D) + ".cs",
              T))
      return Err = "cannot write overlay document", false;
    AllDocs += overlayDocText(T, 0, 0);
  }
  {
    TypeSystem TS;
    Program P(TS);
    if (!loadOrFail(Base + AllDocs, P, Err))
      return false;
    std::vector<PoolQuery> Qs;
    for (int D = 0; D != OverlayDocs; ++D) {
      std::string Name = "OverlayClient" + std::to_string(D);
      char Prefix[8];
      std::snprintf(Prefix, sizeof(Prefix), "d%02d", D);
      std::vector<PoolQuery> DQ = pickQueries(
          validSites(P, [&](const std::string &C) { return C == Name; }),
          {4, 4, 4, 4}, Prefix);
      Qs.insert(Qs.end(), DQ.begin(), DQ.end());
    }
    if (!Emit(F.wsQueries(), "ws_queries.tsv", queriesTsv(Qs)))
      return Err = "cannot write workspace queries", false;
  }
  // The base snapshot, written by the code under test (its format is not
  // part of the recorded inputs).
  {
    std::shared_ptr<const BaseCorpus> BC = baseCorpusFromSource(Base, Err);
    if (!BC)
      return Err = "base corpus: " + Err, false;
    if (!snapshot::writeSnapshot(F.baseSnapshot(), BC->SourceText, BC->Shape,
                                 *BC->Idx, *BC->Solution, Err))
      return Err = "base snapshot: " + Err, false;
  }
  if (!writeFile(F.inputs(), Inputs))
    return Err = "cannot write input digests", false;
  return true;
}

FamilyCounts apportion(const FamilyCounts &Weights, int Total) {
  FamilyCounts Out{};
  long Sum = 0;
  for (int W : Weights)
    Sum += W;
  if (Sum == 0)
    return Out;
  // Largest remainder; ties go to the lower family.
  std::array<long, NumFamilies> Rem{};
  int Given = 0;
  for (int F = 0; F != NumFamilies; ++F) {
    long Scaled = static_cast<long>(Weights[F]) * Total;
    Out[F] = static_cast<int>(Scaled / Sum);
    Rem[F] = Scaled % Sum;
    Given += Out[F];
  }
  while (Given < Total) {
    int Best = 0;
    for (int F = 1; F != NumFamilies; ++F)
      if (Rem[F] > Rem[Best])
        Best = F;
    ++Out[Best];
    Rem[Best] = -1;
    ++Given;
  }
  return Out;
}

bool loadMix(const std::string &Path, const std::string &Source,
             FamilyCounts &Out) {
  std::string Text;
  if (!readFile(Path, Text))
    return false;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    std::vector<std::string> F = splitTabs(Line);
    if (F.size() != NumFamilies + 1 || F[0] != Source)
      continue;
    for (int Fam = 0; Fam != NumFamilies; ++Fam)
      Out[Fam] = std::atoi(F[Fam + 1].c_str());
    return true;
  }
  return false;
}

bool loadQueries(const std::string &Path, std::vector<PoolQuery> &Out) {
  std::string Text;
  if (!readFile(Path, Text))
    return false;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    std::vector<std::string> F = splitTabs(Line);
    if (F.size() != 4)
      return false;
    PoolQuery Q;
    Q.Key = F[0];
    size_t Dot = Q.Key.find('.');
    Q.Family = familyOf(Q.Key.substr(Dot + 1, Q.Key.rfind('.') - Dot - 1));
    if (Q.Family < 0)
      return false;
    Q.Class = F[1];
    Q.Method = F[2];
    Q.Query = F[3];
    Out.push_back(std::move(Q));
  }
  return true;
}

} // namespace pb
