//===- petalbench/harness/Workloads.cpp - paper_replay, edit_storm, ... ---===//
//
// End-to-end metrics come from the untraced timed phase. With --trace 1 the
// per-layer figures are taken instead: spans around the calls into each
// petal module's public functions, a serial in-process replay of the
// workload's request stream through the functions petald calls (served
// untraced and traced in pairs, for the tracing overhead), and one $/stats
// read after the timed phase.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "Client.h"
#include "Streams.h"

#include "code/ExprPrinter.h"
#include "complete/BaseCorpus.h"
#include "parser/DeclUnits.h"
#include "parser/Frontend.h"
#include "parser/Lexer.h"
#include "parser/Syntax.h"
#include "service/Protocol.h"
#include "service/Session.h"
#include "service/Transport.h"
#include "snapshot/Snapshot.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

using namespace petal;

namespace pb {

//===----------------------------------------------------------------------===//
// Reports and references
//===----------------------------------------------------------------------===//

std::string Report::json() const {
  std::string Out = "{\"attempted\":" + std::to_string(Attempted) +
                    ",\"failed\":" + std::to_string(Failed) +
                    ",\"metrics\":{";
  char Buf[64];
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : -1.0);
    Out += (I ? "," : "") + jsonQuote(M.Name) + ":{\"value\":" + Buf +
           ",\"unit\":" + jsonQuote(M.Unit) +
           ",\"samples\":" + std::to_string(M.Samples) + "}";
  }
  Out += "},\"problems\":[";
  for (size_t I = 0; I != Problems.size(); ++I)
    Out += (I ? "," : "") + jsonQuote(Problems[I]);
  Out += "],\"info\":{";
  bool First = true;
  for (const auto &[K, V] : Info) {
    Out += (First ? "" : ",") + jsonQuote(K) + ":" + jsonQuote(V);
    First = false;
  }
  return Out + "}}";
}

bool Refs::load(const std::string &Path) {
  std::string Text;
  if (!readFile(Path, Text))
    return false;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> F = splitTabs(Line);
    if (F.size() != 6)
      return false;
    Texts[F[0]] = {F[1], F[2], F[3]};
    Digests[F[0] + "|" + F[4]] = F[5];
  }
  return true;
}

const std::string *Refs::digest(const std::string &Key,
                                const std::string &Variant) const {
  auto It = Digests.find(Key + "|" + Variant);
  return It == Digests.end() ? nullptr : &It->second;
}

namespace {

/// Every pool query must be recorded with the same site and text, and every
/// recorded query must be in the pool; each mismatch is a failed attempt.
void checkPool(const std::vector<PoolQuery> &Pool, const Refs &Ref,
               Report &R) {
  std::set<std::string> Seen;
  for (const PoolQuery &Q : Pool) {
    Seen.insert(Q.Key);
    auto It = Ref.Texts.find(Q.Key);
    if (It == Ref.Texts.end()) {
      ++R.Attempted;
      R.fail("query " + Q.Key + " has no reference");
    } else if (It->second.Class != Q.Class || It->second.Method != Q.Method ||
               It->second.Query != Q.Query) {
      ++R.Attempted;
      R.fail("query " + Q.Key + " drifted: '" + Q.Query + "' vs recorded '" +
             It->second.Query + "'");
    }
  }
  for (const auto &[Key, Site] : Ref.Texts)
    if (!Seen.count(Key)) {
      ++R.Attempted;
      R.fail("recorded query " + Key + " is missing from the pool");
    }
}

/// The prepared inputs must match the recorded input digests.
void checkInputs(const PrepFiles &Prep, const std::string &RefsDir,
                 Report &R) {
  std::string Got, Want;
  if (!readFile(Prep.inputs(), Got) ||
      !readFile(RefsDir + "/inputs.tsv", Want)) {
    ++R.Attempted;
    R.fail("input digests unreadable");
    return;
  }
  std::istringstream G(Got), W(Want);
  std::string GL, WL;
  std::map<std::string, std::string> GotBy;
  while (std::getline(G, GL))
    GotBy[splitTabs(GL)[0]] = GL;
  while (std::getline(W, WL)) {
    if (WL.empty() || WL[0] == '#')
      continue;
    std::string Name = splitTabs(WL)[0];
    if (GotBy[Name] != WL) {
      ++R.Attempted;
      R.fail("input " + Name + " differs from its recorded digest");
    }
  }
}

std::string engineAnswer(const TypeSystem &TS,
                         const std::vector<Completion> &Results) {
  std::vector<AnswerItem> Items;
  for (const Completion &C : Results)
    Items.push_back({printExpr(TS, C.E), C.Score, ""});
  return canonicalAnswer(Items);
}

std::string valueAnswer(const json::Value &Completions) {
  JVal V;
  parseJson(Completions.write(), V);
  return canonicalFromJson(V);
}

double ms(double Us) { return Us / 1000.0; }

template <typename F> double timeUs(F &&Fn) {
  double T0 = nowUs();
  Fn();
  return nowUs() - T0;
}

std::string completeParams(const std::string &Doc, int64_t Version,
                           const PoolQuery &Q, bool Explain) {
  return "{\"doc\":" + jsonQuote(Doc) +
         ",\"version\":" + std::to_string(Version) +
         ",\"class\":" + jsonQuote(Q.Class) +
         ",\"method\":" + jsonQuote(Q.Method) +
         ",\"query\":" + jsonQuote(Q.Query) + ",\"n\":10" +
         (Explain ? ",\"explain\":true" : "") + "}";
}

std::string docParams(const std::string &Doc, int64_t Version,
                      const std::string &QuotedText) {
  return "{\"doc\":" + jsonQuote(Doc) +
         ",\"version\":" + std::to_string(Version) + ",\"text\":" +
         QuotedText + "}";
}

CompleteSpec specOf(const PoolQuery &Q, bool Explain) {
  CompleteSpec S;
  S.Class = Q.Class;
  S.Method = Q.Method;
  S.Query = Q.Query;
  S.N = 10;
  S.Opts.Explain = Explain;
  return S;
}

std::unique_ptr<DocumentState>
build(const std::string &Name, const std::string &Text, int64_t Version,
      const DocumentState *Prev, std::shared_ptr<const BaseCorpus> Base,
      std::string &Err) {
  return buildDocumentState(Name, Text, Version, 1, Err, Prev,
                            std::move(Base));
}

const char *kindName(DocumentState::BuildKind K) {
  switch (K) {
  case DocumentState::BuildKind::Full:
    return "full";
  case DocumentState::BuildKind::IncrementalBody:
    return "incremental-body";
  case DocumentState::BuildKind::IncrementalNoop:
    return "incremental-noop";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Per-layer collection shared by the workloads
//===----------------------------------------------------------------------===//

/// Samples of the per-layer figures, filled by the probes and the replay.
struct Layers {
  std::map<std::string, std::vector<double>> S;
  void add(const std::string &K, double V) { S[K].push_back(V); }
  double p50(const std::string &K) const {
    auto It = S.find(K);
    return It == S.end() ? 0 : median(It->second);
  }
  double sum(const std::string &K) const {
    auto It = S.find(K);
    double T = 0;
    if (It != S.end())
      for (double V : It->second)
        T += V;
    return T;
  }
  double avg(const std::string &K) const {
    auto It = S.find(K);
    return It == S.end() ? 0 : mean(It->second);
  }
  size_t n(const std::string &K) const {
    auto It = S.find(K);
    return It == S.end() ? 0 : It->second.size();
  }
};

/// Lex, parse, shape, resolve (fresh and reusing declarations), index
/// build + freeze, and the abstract-type solve of each of \p Texts, through
/// the split public entry points buildDocumentState itself uses.
void probeFrontEnd(const std::vector<const std::string *> &Texts, Tracer &T,
                   Layers &L) {
  double Lex = 0, Parse = 0, Shape = 0, Resolve = 0, Reuse = 0, Index = 0,
         Solve = 0, Tokens = 0, Types = 0, Bytes = 0;
  for (const std::string *Text : Texts) {
    DiagnosticEngine Diags;
    {
      Scope S(T, "parser.lex");
      double T0 = nowUs();
      Lexer Lx(*Text, Diags);
      Tokens += static_cast<double>(Lx.lexAll().size());
      Lex += nowUs() - T0;
    }
    SynFile File;
    Parse += timeUs([&] {
      Scope S(T, "parser.parse");
      parseSourceFile(*Text, File, Diags);
    });
    Shape += timeUs([&] {
      Scope S(T, "parser.shape");
      (void)shapeOfFile(File);
    });
    TypeSystem TS;
    Program P(TS);
    Resolve += timeUs([&] {
      Scope S(T, "parser.resolve");
      resolveParsedFile(File, P, Diags);
    });
    Program P2(TS);
    Reuse += timeUs([&] {
      Scope S(T, "parser.resolve_reuse");
      resolveParsedFileReusingDecls(File, P2, Diags);
    });
    std::unique_ptr<CompletionIndexes> Idx;
    Index += timeUs([&] {
      Scope S(T, "index.build");
      Idx = std::make_unique<CompletionIndexes>(P);
      Idx->freeze();
    });
    Solve += timeUs([&] {
      Scope S(T, "infer.solve");
      (void)Idx->Infer.solve();
    });
    Types += static_cast<double>(TS.numTypes());
    Bytes += static_cast<double>(Idx->memoryBytes());
  }
  L.add("parser.lex_ms", ms(Lex));
  L.add("parser.parse_ms", ms(Parse));
  L.add("parser.shape_ms", ms(Shape));
  L.add("parser.resolve_ms", ms(Resolve));
  L.add("parser.resolve_reuse_ms", ms(Reuse));
  L.add("parser.tokens", Tokens);
  L.add("index.build_ms", ms(Index));
  L.add("infer.solve_ms", ms(Solve));
  L.add("model.types", Types);
  L.add("index.mono_bytes", Bytes);
}

/// The layers no single workload path covers in full, measured the same way
/// in every workload: base-snapshot load and adoption, the four build routes
/// of buildDocumentState (route checked), and overlay versus monolithic
/// completion on the same queries.
void probeCommon(const PrepFiles &Prep, const std::vector<PoolQuery> &WsPool,
                 Tracer &T, Layers &L, Report &R) {
  std::string Err;
  std::shared_ptr<const snapshot::LoadedSnapshot> Snap;
  std::shared_ptr<const BaseCorpus> Base;
  for (int I = 0; I != 3; ++I) {
    double Load = timeUs([&] {
      Scope S(T, "snapshot.load");
      Snap = snapshot::loadSnapshot(Prep.baseSnapshot(), Err);
    });
    if (!Snap) {
      ++R.Attempted;
      R.fail("base snapshot: " + Err);
      return;
    }
    double Adopt = timeUs([&] {
      Scope S(T, "snapshot.adopt");
      Base = baseCorpusFromSnapshot(Snap);
    });
    L.add("snapshot.load_ms", ms(Load));
    L.add("snapshot.adopt_ms", ms(Adopt));
  }
  L.add("snapshot.bytes", static_cast<double>(Snap->Bytes));
  L.add("index.base_bytes", static_cast<double>(Base->memoryBytes()));

  std::string PaintNet, Target, BaseText;
  readFile(Prep.paintNet(), PaintNet);
  readFile(Prep.editTarget(), Target);
  readFile(Prep.baseSource(), BaseText);
  auto Checked = [&](const std::unique_ptr<DocumentState> &D,
                     const char *Want) {
    ++R.Attempted;
    if (!D)
      R.fail("probe build failed: " + Err);
    else if (std::string(kindName(D->Kind)) != Want)
      R.fail(std::string("probe build took route ") + kindName(D->Kind) +
             ", expected " + Want);
    return D != nullptr;
  };
  std::unique_ptr<DocumentState> Prev;
  for (int I = 0; I != 2; ++I) {
    std::string Text = editDocText(PaintNet, Target, 0, 0, 0);
    double Us = timeUs([&] {
      Scope S(T, "service.build_full");
      Prev = build("probe.cs", Text, 1, nullptr, nullptr, Err);
    });
    if (!Checked(Prev, "full"))
      return;
    L.add("service.build_full_ms", ms(Us));
  }
  for (int I = 0; I != 3; ++I) {
    std::string Body = editDocText(PaintNet, Target, 0, 1 + I, 0);
    std::string Noop = editDocText(PaintNet, Target, 0, 0, 1);
    std::unique_ptr<DocumentState> D;
    double BodyUs = timeUs([&] {
      Scope S(T, "service.build_body");
      D = build("probe.cs", Body, 2, Prev.get(), nullptr, Err);
    });
    if (Checked(D, "incremental-body"))
      L.add("service.build_body_ms", ms(BodyUs));
    double NoopUs = timeUs([&] {
      Scope S(T, "service.build_noop");
      D = build("probe.cs", Noop, 2, Prev.get(), nullptr, Err);
    });
    if (Checked(D, "incremental-noop"))
      L.add("service.build_noop_ms", ms(NoopUs));
  }
  Prev.reset();

  // Overlay opens of the 16 documents; then overlay vs monolithic
  // completion over the first four documents' queries.
  std::vector<std::unique_ptr<DocumentState>> Overlays;
  std::vector<std::string> Templates(OverlayDocs);
  double OverlayBytes = 0;
  for (int D = 0; D != OverlayDocs; ++D) {
    readFile(Prep.overlayTemplate(D), Templates[D]);
    std::unique_ptr<DocumentState> S;
    std::string Text = overlayDocText(Templates[D], 0, 0);
    double Us = timeUs([&] {
      Scope Sp(T, "service.build_overlay");
      S = build(overlayDocName(D), Text, 1, nullptr, Base, Err);
    });
    if (!Checked(S, "full"))
      return;
    L.add("service.build_overlay_ms", ms(Us));
    OverlayBytes += static_cast<double>(S->Idx->memoryBytes());
    Overlays.push_back(std::move(S));
  }
  L.add("index.overlay_bytes", OverlayBytes);
  for (int D = 0; D != 4; ++D) {
    std::unique_ptr<DocumentState> Mono =
        build("mono.cs", BaseText + overlayDocText(Templates[D], 0, 0), 1,
              nullptr, nullptr, Err);
    if (!Checked(Mono, "full"))
      return;
    for (const PoolQuery &Q : WsPool) {
      if (docOfKey(Q.Key) != D)
        continue;
      CompleteSpec Spec = specOf(Q, false);
      for (int Rep = 0; Rep != 3; ++Rep) {
        QueryOutcome O, M;
        L.add("complete.overlay_us", timeUs([&] {
                Scope S(T, "complete.overlay");
                O = runCompletion(*Overlays[D], Spec);
              }));
        L.add("complete.mono_us", timeUs([&] {
                Scope S(T, "complete.mono");
                M = runCompletion(*Mono, Spec);
              }));
        ++R.Attempted;
        if (!O.Ok || !M.Ok ||
            O.Completions.write() != M.Completions.write())
          R.fail("overlay and monolithic answers differ on " + Q.Key);
      }
    }
  }
}

/// One request of a serial in-process replay, in wire form.
struct WireReq {
  std::string Payload;
  bool IsEdit = false;
  const PoolQuery *Q = nullptr;
  bool Explain = false;
  std::string Doc;
  int64_t Version = 0;
  const char *Route = nullptr;       ///< edits: the expected build route
  std::string RefVariant;            ///< completions: reference variant
};

using DocMap = std::map<std::string, std::unique_ptr<DocumentState>>;

/// Serves one request of a replay through the functions petald calls for
/// each message: FramedReader::read, json::parse, buildDocumentState or
/// parseCompleteSpec + runCompletion, Value::write, FramedWriter::write. A
/// completion is also decomposed into parseQueryText, the engine call
/// (plain and explain) and printExpr. An edit's new state goes to \p Built.
void serveOne(const WireReq &W, int64_t Id, const Refs &Ref,
              const std::shared_ptr<const BaseCorpus> &Base, DocMap &Docs,
              std::unique_ptr<DocumentState> &Built, Tracer &T, Layers &L,
              Report &R) {
  std::string Frame = "Content-Length: " + std::to_string(W.Payload.size()) +
                      "\r\n\r\n" + W.Payload;
  std::istringstream In(Frame);
  FramedReader Reader(In);
  std::string Payload;
  L.add("service.transport_read_us", timeUs([&] {
          Scope S(T, "service.transport_read", Id);
          Reader.read(Payload);
        }));
  json::Value Msg;
  std::string Err;
  L.add("support.json_decode_us", timeUs([&] {
          Scope S(T, "support.json_decode", Id);
          json::parse(Payload, Msg, Err);
        }));
  const json::Value *Params = Msg.find("params");
  json::Value Result = json::Value::object();
  ++R.Attempted;
  if (W.IsEdit) {
    const DocumentState *Prev = Docs[W.Doc].get();
    {
      Scope S(T, "service.build", Id);
      Built = build(W.Doc, Params->getString("text"), W.Version, Prev, Base,
                    Err);
    }
    if (!Built) {
      R.fail("replay build failed: " + Err);
      return;
    }
    if (Prev && std::string(kindName(Built->Kind)) != W.Route)
      R.fail(std::string("replay edit took route ") + kindName(Built->Kind) +
             ", expected " + W.Route);
    Result.set("build", kindName(Built->Kind));
  } else {
    DocumentState &Doc = *Docs[W.Doc];
    CompleteSpec Spec;
    parseCompleteSpec(*Params, Spec, Err);
    QueryOutcome O;
    L.add("service.run_completion_us", timeUs([&] {
            Scope S(T, "service.run_completion", Id);
            O = runCompletion(Doc, Spec);
          }));
    const std::string *Want =
        Ref.digest(W.Q->Key, W.RefVariant + (W.Explain ? "x" : ""));
    if (!O.Ok || !Want || digestOf(valueAnswer(O.Completions)) != *Want)
      R.fail("replay answer differs from the reference on " + W.Q->Key);
    Result.set("completions", std::move(O.Completions));

    // The same query, decomposed into its module calls.
    const CodeClass *Class = findCodeClass(*Doc.P, Spec.Class);
    const CodeMethod *Method =
        Class ? findCodeMethod(*Doc.P, *Class, Spec.Method) : nullptr;
    if (!Method)
      return;
    QueryScope QS = scopeAtEnd(Class, Method);
    DiagnosticEngine Diags;
    const PartialExpr *PE = nullptr;
    L.add("parser.query_us", timeUs([&] {
            Scope S(T, "parser.query", Id);
            PE = parseQueryText(Spec.Query, *Doc.P, QS, Diags);
          }));
    CodeSite Site{Class, Method, QS.StmtIndex};
    CompletionOptions Plain, Explained;
    Explained.Explain = true;
    BatchExecutor::BatchResult B;
    std::string Fam = std::string("complete.") + familyName(W.Q->Family);
    double PlainUs = timeUs([&] {
      Scope S(T, Fam.c_str(), Id);
      B = Doc.Exec->completeBatch({{PE, Site, 10, Plain, nullptr}});
    });
    L.add(Fam + "_us", PlainUs);
    L.add("complete.buckets", B.Stats.front().LastBucket + 1);
    L.add("complete.ceiling_hits", B.Stats.front().ScoreCeilingHit);
    L.add("code.print_us", timeUs([&] {
            Scope S(T, "code.print", Id);
            for (const Completion &C : B.Results.front())
              (void)printExpr(*Doc.TS, C.E);
          }));
    double ExplainUs = timeUs([&] {
      Scope S(T, "rank.explain", Id);
      B = Doc.Exec->completeBatch({{PE, Site, 10, Explained, nullptr}});
    });
    L.add("rank.explain_us", ExplainUs - PlainUs);
  }
  json::Value Response = rpc::makeResult(rpc::RequestId::of(Msg), Result);
  std::string Out;
  L.add("support.json_encode_us", timeUs([&] {
          Scope S(T, "support.json_encode", Id);
          Out = Response.write();
        }));
  L.add("support.json_response_bytes", static_cast<double>(Out.size()));
  std::ostringstream OS;
  FramedWriter Writer(OS);
  L.add("service.transport_write_us", timeUs([&] {
          Scope S(T, "service.transport_write", Id);
          Writer.write(Out);
        }));
}

/// Replays \p Reqs serially through serveOne with tracing on, for the
/// per-layer figures. With \p OverheadPct each request is served three
/// times from the same state: once to warm up, then untraced and traced in
/// alternating order. The two timed runs are microseconds apart, so a host
/// phase weighs on both alike; the overhead is the traced total over the
/// untraced total, minus one. Only the traced run's figures are kept.
void replay(const std::vector<WireReq> &Reqs, const Refs &Ref,
            std::shared_ptr<const BaseCorpus> Base, DocMap &Docs, Tracer &T,
            Layers &L, Report &R, double *OverheadPct = nullptr) {
  double Untraced = 0, Traced = 0;
  std::map<std::string, int> Asked;
  int64_t Id = 0;
  for (const WireReq &W : Reqs) {
    ++Id;
    std::unique_ptr<DocumentState> Built;
    auto Serve = [&](bool On) {
      std::unique_ptr<DocumentState> Discard;
      Layers ScratchL;
      Report ScratchR;
      T.On = On;
      double Us = timeUs([&] {
        serveOne(W, Id, Ref, Base, Docs, On ? Built : Discard, T,
                 On ? L : ScratchL, On ? R : ScratchR);
      });
      T.On = true;
      return Us;
    };
    if (!OverheadPct) {
      Serve(true);
    } else {
      Serve(false);
      // Alternate the order per kind of request, so the few costly ones
      // (full builds) split evenly between the two orders too.
      if (Asked[W.IsEdit ? W.Route : "complete"]++ % 2) {
        Untraced += Serve(false);
        Traced += Serve(true);
      } else {
        Traced += Serve(true);
        Untraced += Serve(false);
      }
    }
    if (W.IsEdit && Built)
      Docs[W.Doc] = std::move(Built);
  }
  if (OverheadPct)
    *OverheadPct = Untraced > 0 ? (Traced / Untraced - 1) * 100 : 0;
}

/// Reads $/stats once and derives the server-side figures; checks that no
/// request was shed, abandoned or isolated.
void readServerStats(PetaldClient &C, Layers &L, Report &R,
                     bool &Valid) {
  JVal S;
  std::string Err;
  Valid = false;
  if (!C.call("$/stats", "{}", S, Err)) {
    ++R.Attempted;
    R.fail("$/stats: " + Err);
    return;
  }
  const JVal *Lat = S.get("latencyMs");
  const JVal *Cache = S.get("cache");
  const JVal *Health = S.get("health");
  const JVal *Docs = S.get("documents");
  const JVal *Builds = Docs ? Docs->get("builds") : nullptr;
  if (!Lat || !Cache || !Health || !Builds) {
    ++R.Attempted;
    R.fail("$/stats lacks latencyMs, cache, health or documents.builds");
    return;
  }
  // The recorder keeps at most 2^20 samples; past that its percentiles
  // are frozen, so they are reported as invalid (-1).
  Valid = Lat->num("count") < static_cast<double>(1u << 20);
  L.add("service.server_p50_us", Valid ? Lat->num("p50") * 1000 : -1);
  L.add("service.server_p99_us", Valid ? Lat->num("p99") * 1000 : -1);
  L.add("service.server_count", Lat->num("count"));
  L.add("service.cache_hit_rate", Cache->num("hitRate"));
  L.add("service.cache_hits", Cache->num("hits"));
  L.add("service.builds_full", Builds->num("full"));
  L.add("service.builds_incremental", Builds->num("incremental"));
  double Shed = Health->num("shedRequests"),
         Abandoned = Health->num("deadlineAbandoned"),
         Isolated = Health->num("isolatedErrors");
  L.add("service.shed", Shed);
  L.add("service.deadline_abandoned", Abandoned);
  L.add("service.isolated_errors", Isolated);
  if (Shed + Abandoned + Isolated > 0) {
    ++R.Attempted;
    R.fail("petald shed, abandoned or isolated requests");
  }
}

/// Emits every per-layer metric from the collected samples.
void emitLayers(const Layers &L, Report &R, bool ServerValid,
                double RunCompletionP50) {
  auto P50 = [&](const char *K, const char *Unit) {
    R.add(K, Unit, L.p50(K), L.n(K));
  };
  auto Sum = [&](const char *K, const char *Unit) {
    R.add(K, Unit, L.sum(K), L.n(K));
  };
  Sum("parser.lex_ms", "ms");
  Sum("parser.parse_ms", "ms");
  Sum("parser.shape_ms", "ms");
  Sum("parser.resolve_ms", "ms");
  Sum("parser.resolve_reuse_ms", "ms");
  Sum("parser.tokens", "count");
  P50("parser.query_us", "us");
  Sum("infer.solve_ms", "ms");
  Sum("index.build_ms", "ms");
  Sum("model.types", "count");
  Sum("index.mono_bytes", "bytes");
  Sum("index.base_bytes", "bytes");
  Sum("index.overlay_bytes", "bytes");
  P50("complete.method_us", "us");
  P50("complete.args_us", "us");
  P50("complete.lookup_us", "us");
  P50("complete.compare_us", "us");
  R.add("complete.buckets_mean", "count", L.avg("complete.buckets"),
        L.n("complete.buckets"));
  Sum("complete.ceiling_hits", "count");
  P50("complete.overlay_us", "us");
  P50("complete.mono_us", "us");
  P50("rank.explain_us", "us");
  P50("code.print_us", "us");
  P50("snapshot.load_ms", "ms");
  P50("snapshot.adopt_ms", "ms");
  Sum("snapshot.bytes", "bytes");
  P50("service.build_full_ms", "ms");
  P50("service.build_body_ms", "ms");
  P50("service.build_noop_ms", "ms");
  P50("service.build_overlay_ms", "ms");
  P50("service.run_completion_us", "us");
  P50("service.transport_read_us", "us");
  P50("service.transport_write_us", "us");
  P50("support.json_decode_us", "us");
  P50("support.json_encode_us", "us");
  R.add("support.json_response_bytes", "bytes",
        L.avg("support.json_response_bytes"),
        L.n("support.json_response_bytes"));
  size_t ServerN = static_cast<size_t>(L.sum("service.server_count"));
  double Server = L.p50("service.server_p50_us");
  R.add("service.server_p50_us", "us", Server, ServerN);
  R.add("service.server_p99_us", "us", L.p50("service.server_p99_us"),
        ServerN);
  R.add("service.queue_wait_us", "us",
        ServerValid ? Server - RunCompletionP50 : -1, ServerN);
  R.add("service.cache_hit_rate", "ratio", L.p50("service.cache_hit_rate"),
        ServerN);
  Sum("service.builds_full", "count");
  Sum("service.builds_incremental", "count");
  Sum("service.shed", "count");
  Sum("service.deadline_abandoned", "count");
  Sum("service.isolated_errors", "count");
  P50("host.ref_us", "us");
  P50("host.ref_spread_pct", "%");
}

void finishTrace(const Config &C, const Tracer &T, Report &R) {
  std::string Path = C.WorkDir + "/trace_" + C.Workload + "_" +
                     std::to_string(C.Seed) + ".json";
  if (T.writeChrome(Path))
    R.Info["trace_file"] = Path;
}

std::string errorText(const PetaldClient::Frame &F) {
  const JVal *E = F.Msg.get("error");
  return E ? E->str("message") : "response without result";
}

std::string joined(const std::vector<double> &V) {
  std::string Out;
  char Buf[32];
  for (double X : V) {
    std::snprintf(Buf, sizeof(Buf), "%s%.1f", Out.empty() ? "" : " ", X);
    Out += Buf;
  }
  return Out;
}

/// Adds an end-to-end percentile; outside a traced run (which reports no
/// end-to-end metrics) one without ten samples beyond it is a problem.
void addLatency(Report &R, const char *Name, const char *Unit,
                const std::vector<double> &Us, double Q, double Scale,
                bool Traced) {
  Pctl P = percentile(Us, Q);
  R.add(Name, Unit, P.Value / Scale, P.Samples);
  if (!P.usable() && !Traced)
    R.Problems.push_back(std::string(Name) + " has only " +
                         std::to_string(P.Beyond) +
                         " samples beyond it (fewer than ten)");
}

/// The timed phase, in segments of whole work units, with the host
/// reference kernel before the phase, between its segments and after it.
/// The kernel's spread over the run (IQR over median) tells a host phase
/// that came and went during the run; past HostPhaseLimitPct the run says
/// so. A whole run in a slow phase shows as a high host.ref_us instead.
struct Segments {
  static constexpr double HostPhaseLimitPct = 20;
  std::vector<double> HostUs, Qps, Lat;

  void begin() { HostUs.push_back(hostReference(5)); }
  /// Closes a segment that answered \p SegLat in \p WallUs.
  void add(const std::vector<double> &SegLat, double WallUs) {
    Qps.push_back(static_cast<double>(SegLat.size()) / (WallUs / 1e6));
    Lat.insert(Lat.end(), SegLat.begin(), SegLat.end());
    HostUs.push_back(hostReference(3));
  }
  void end() { HostUs.push_back(hostReference(5)); }

  /// complete_qps is the median over the segments, so a slow host phase
  /// during part of the run moves it less than a run-long mean would.
  void report(Layers &L, Report &R, bool Traced) const {
    R.add("complete_qps", "1/s", median(Qps), Qps.size());
    addLatency(R, "complete_p50_us", "us", Lat, 50, 1, Traced);
    addLatency(R, "complete_p99_us", "us", Lat, 99, 1, Traced);
    R.Info["segment_qps"] = joined(Qps);

    double Mid = median(HostUs);
    double Spread = (percentile(HostUs, 75).Value -
                     percentile(HostUs, 25).Value) / Mid * 100;
    for (double V : HostUs)
      L.add("host.ref_us", V);
    L.add("host.ref_spread_pct", Spread);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.1f", HostUs.front());
    R.Info["host_ref_us_before"] = Buf;
    std::snprintf(Buf, sizeof(Buf), "%.1f", HostUs.back());
    R.Info["host_ref_us_after"] = Buf;
    std::snprintf(Buf, sizeof(Buf), "%.1f", Mid);
    R.Info["host_ref_us_median"] = Buf;
    std::snprintf(Buf, sizeof(Buf), "%.1f", Spread);
    R.Info["host_ref_spread_pct"] = Buf;
    R.Info["host_ref_samples"] = std::to_string(HostUs.size());
    bool Steady = Spread <= HostPhaseLimitPct;
    R.Info["host_phase"] = Steady ? "steady" : "unsteady";
    if (!Steady)
      R.Problems.push_back(
          "host phase: the reference kernel's spread over the run was " +
          std::string(Buf) + "% (limit " +
          std::to_string(static_cast<int>(HostPhaseLimitPct)) +
          "%); read a timing shift of this run against host.ref_us");
  }
};

//===----------------------------------------------------------------------===//
// paper_replay
//===----------------------------------------------------------------------===//

struct Corpus {
  std::unique_ptr<TypeSystem> TS;
  std::unique_ptr<Program> P;
  std::unique_ptr<CompletionIndexes> Idx;
  std::unique_ptr<AbsTypeSolution> Sol;
  std::unique_ptr<CompletionEngine> Engine;
};

bool setUpCorpora(const std::vector<std::string> &Sources,
                  std::vector<Corpus> &Out, std::string &Err) {
  Out.clear();
  for (const std::string &Src : Sources) {
    Corpus C;
    C.TS = std::make_unique<TypeSystem>();
    C.P = std::make_unique<Program>(*C.TS);
    DiagnosticEngine Diags;
    if (!loadProgramText(Src, *C.P, Diags)) {
      Err = "profile source failed to load";
      return false;
    }
    C.Idx = std::make_unique<CompletionIndexes>(*C.P);
    C.Idx->freeze();
    C.Sol = std::make_unique<AbsTypeSolution>(C.Idx->Infer.solve());
    C.Engine = std::make_unique<CompletionEngine>(*C.P, *C.Idx);
    Out.push_back(std::move(C));
  }
  return true;
}

struct Posed {
  const PoolQuery *Q = nullptr;
  int Profile = 0;
  const PartialExpr *PE = nullptr;
  CodeSite Site;
  const std::string *Want = nullptr;
};

int profileOf(const std::string &Key) { return std::atoi(Key.c_str() + 1); }

bool runPaperReplay(const Config &C, Report &R, std::string &Err) {
  Refs Ref;
  std::vector<PoolQuery> Pool;
  if (!Ref.load(C.RefsDir + "/paper_replay.tsv") ||
      !loadQueries(C.Prep.paperQueries(), Pool))
    return Err = "cannot read paper_replay references or queries", false;
  checkPool(Pool, Ref, R);
  std::vector<std::string> Sources(NumProfiles);
  for (int I = 0; I != NumProfiles; ++I)
    if (!readFile(C.Prep.paperSource(I), Sources[I]))
      return Err = "cannot read " + C.Prep.paperSource(I), false;

  // Set-up: load, index + freeze, solve, for all seven profiles; three
  // times, reporting the median and keeping the last.
  std::vector<Corpus> Corpora;
  std::vector<double> Setup;
  for (int I = 0; I != 3; ++I) {
    Corpora.clear();
    double T0 = nowUs();
    if (!setUpCorpora(Sources, Corpora, Err))
      return false;
    Setup.push_back((nowUs() - T0) / 1e6);
  }
  R.add("setup_s", "s", median(Setup), Setup.size());

  Tracer T;
  Layers L;
  std::vector<Posed> Qs;
  for (const PoolQuery &Q : Pool) {
    Posed P;
    P.Q = &Q;
    P.Profile = profileOf(Q.Key);
    Program &Prog = *Corpora[P.Profile].P;
    const CodeClass *Class = findCodeClass(Prog, Q.Class);
    const CodeMethod *Method =
        Class ? findCodeMethod(Prog, *Class, Q.Method) : nullptr;
    P.Want = Ref.digest(Q.Key, "-");
    if (!Method || !P.Want) {
      ++R.Attempted;
      R.fail("query " + Q.Key + " cannot be posed");
      continue;
    }
    QueryScope QS = scopeAtEnd(Class, Method);
    DiagnosticEngine Diags;
    L.add("parser.query_us", timeUs([&] {
            P.PE = parseQueryText(Q.Query, Prog, QS, Diags);
          }));
    if (!P.PE) {
      ++R.Attempted;
      R.fail("query " + Q.Key + " no longer parses");
      continue;
    }
    P.Site = {Class, Method, QS.StmtIndex};
    Qs.push_back(P);
  }

  // Timed phase: whole seeded passes over the pool, with the host kernel
  // between them. The clock runs while the engine answers and pauses while
  // the benchmark checks the answer. With --trace 1 every query is asked
  // twice in a row, untraced and traced in alternating order, so a host
  // phase weighs on both alike and their difference is the tracing cost.
  Rng Rand(C.Seed);
  Segments Seg;
  Seg.begin();
  double UntracedUs = 0, TracedUs = 0, SelfUs = 0, Asked = 0;
  size_t Need = C.Trace ? 0 : samplesNeededFor(99);
  auto Pass = [&]() {
    std::vector<size_t> Order(Qs.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    Rand.shuffle(Order);
    std::vector<double> Lat;
    double Resume = nowUs(), PassUs = 0;
    for (size_t K = 0; K != Order.size(); ++K) {
      size_t I = Order[K];
      Posed &P = Qs[I];
      Corpus &Cp = Corpora[P.Profile];
      std::string Fam = std::string("complete.") + familyName(P.Q->Family);
      std::vector<Completion> Res;
      auto Ask = [&](bool Traced) {
        T.On = Traced;
        double T0 = nowUs();
        {
          Scope S(T, Fam.c_str(), static_cast<int64_t>(I));
          Res = Cp.Engine->complete(P.PE, P.Site, 10, {}, Cp.Sol.get());
        }
        double Us = nowUs() - T0;
        T.On = false;
        return Us;
      };
      if (!C.Trace) {
        double Us = Ask(false);
        PassUs += nowUs() - Resume;
        Lat.push_back(Us);
      } else {
        size_t First = T.size();
        bool TracedFirst = K % 2;
        double A = Ask(TracedFirst), B = Ask(!TracedFirst);
        double Untraced = TracedFirst ? B : A, Traced = TracedFirst ? A : B;
        PassUs += Untraced;
        Lat.push_back(Untraced);
        ++Asked;
        UntracedUs += Untraced;
        TracedUs += Traced;
        SelfUs += T.selfTimes(Fam, First).front();
        L.add(Fam + "_us", Traced);
        const auto &St = Cp.Engine->lastQueryStats();
        L.add("complete.buckets", St.LastBucket + 1);
        L.add("complete.ceiling_hits", St.ScoreCeilingHit);
      }
      std::string Answer;
      T.On = C.Trace;
      {
        Scope S(T, "code.print", static_cast<int64_t>(I));
        double P0 = nowUs();
        Answer = engineAnswer(*Cp.TS, Res);
        if (C.Trace)
          L.add("code.print_us", nowUs() - P0);
      }
      T.On = false;
      ++R.Attempted;
      if (digestOf(Answer) != *P.Want)
        R.fail("answer differs from the reference on " + P.Q->Key);
      Resume = nowUs();
    }
    Seg.add(Lat, PassUs);
  };
  double Budget = C.Seconds * 1e6;
  double Start = nowUs();
  while (nowUs() - Start < Budget || Seg.Lat.size() < Need) {
    Pass();
    if (nowUs() - Start > 3 * Budget)
      break;
  }
  Seg.end();
  Seg.report(L, R, C.Trace);
  R.add("peak_rss_mb", "MiB", peakRssMb(), 1);
  if (!C.Trace)
    return true;

  // Per-layer: the tracing overhead, and the cross-check that the summed
  // complete self time per query matches 1/complete_qps of the untraced
  // asks, both over the whole run. The self time leaves the spans' own cost out, so the two
  // must agree to within the tracing overhead plus SelfCheckSlackPct for
  // the host moving between the two asks of a query.
  constexpr double SelfCheckSlackPct = 1;
  double Overhead = (TracedUs / UntracedUs - 1) * 100;
  R.add("trace.overhead_pct", "%", Overhead, static_cast<size_t>(Asked));
  double Self = SelfUs / Asked, Inverse = UntracedUs / Asked;
  double GapPct = (Self / Inverse - 1) * 100;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2f", Self);
  R.Info["complete_self_us_per_query"] = Buf;
  std::snprintf(Buf, sizeof(Buf), "%.2f", Inverse);
  R.Info["inverse_qps_us"] = Buf;
  std::snprintf(Buf, sizeof(Buf), "%.2f", GapPct);
  R.Info["self_time_gap_pct"] = Buf;
  bool Agrees = std::fabs(GapPct) <= std::fabs(Overhead) + SelfCheckSlackPct;
  R.Info["self_time_check"] = Agrees ? "met" : "missed";
  if (!Agrees)
    R.Problems.push_back("complete self time per query is " +
                         std::string(Buf) + "% off 1/complete_qps, beyond "
                         "the tracing overhead plus " +
                         std::to_string(static_cast<int>(SelfCheckSlackPct)) +
                         " point");
  Corpora.clear();

  T.On = true;
  std::vector<const std::string *> Texts;
  for (const std::string &S : Sources)
    Texts.push_back(&S);
  probeFrontEnd(Texts, T, L);
  std::vector<PoolQuery> WsPool;
  loadQueries(C.Prep.wsQueries(), WsPool);
  probeCommon(C.Prep, WsPool, T, L, R);

  // The pool as petal/complete requests, replayed in-process and served
  // once by petald, for the service and support layers.
  std::vector<WireReq> Reqs;
  std::vector<size_t> Order(Pool.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  Rand.shuffle(Order);
  Order.resize(Order.size() / 2); // half a pass keeps the traced run short
  DocMap Docs;
  for (int I = 0; I != NumProfiles; ++I) {
    std::string Name = "paper_" + std::to_string(I) + ".cs";
    Docs[Name] = build(Name, Sources[I], 1, nullptr, nullptr, Err);
  }
  for (size_t I : Order) {
    WireReq W;
    W.Q = &Pool[I];
    W.Doc = "paper_" + std::to_string(profileOf(Pool[I].Key)) + ".cs";
    W.Version = 1;
    W.RefVariant = "-";
    W.Payload = rpcRequest(static_cast<int64_t>(Reqs.size() + 1),
                           "petal/complete",
                           completeParams(W.Doc, 1, Pool[I], false));
    Reqs.push_back(std::move(W));
  }
  // Paper answers are recorded for plain queries only; the explain half
  // of the decomposition is timed but not checked here.
  replay(Reqs, Ref, nullptr, Docs, T, L, R);
  Docs.clear();
  T.On = false;

  PetaldClient Serve;
  if (!Serve.spawn(C.ServeExe, {}, C.WorkDir + "/petal_serve.log", Err))
    return false;
  JVal Res;
  for (int I = 0; I != NumProfiles; ++I) {
    std::string Name = "paper_" + std::to_string(I) + ".cs";
    if (!Serve.call("petal/open", docParams(Name, 1, jsonQuote(Sources[I])),
                    Res, Err))
      return false;
  }
  for (const WireReq &W : Reqs) {
    Serve.send(W.Payload);
    PetaldClient::Frame F;
    if (!Serve.receive(F) || F.Msg.get("error")) {
      ++R.Attempted;
      R.fail("petald failed a paper_replay query");
    }
  }
  bool Valid = false;
  readServerStats(Serve, L, R, Valid);
  Serve.stop();
  emitLayers(L, R, Valid, L.p50("service.run_completion_us"));
  finishTrace(C, T, R);
  return true;
}

//===----------------------------------------------------------------------===//
// edit_storm and workspace_serve
//===----------------------------------------------------------------------===//

/// Set-ups per petald run (each spawns a fresh child; the last one stays
/// for the timed phase). setup_s is their median.
constexpr int ServeSetups = 5;

/// What tells the two petald workloads apart: how the child starts, what it
/// opens, how a request names its document, its text and its reference
/// answer, the stream, the load window and the segment length.
struct ServeSpec {
  std::vector<std::string> SpawnArgs;
  /// Documents opened at set-up: name and JSON-quoted text.
  std::vector<std::pair<std::string, const std::string *>> Opens;
  std::function<std::string(const Req &)> DocName;
  std::function<const std::string &(const Req &)> QuotedText;
  /// A completion's reference variant (the explain mark comes on top).
  std::function<std::string(const Req &)> Variant;
  std::function<void(std::vector<Req> &)> NextBlock;
  size_t Window = 1;
  int BlocksPerSegment = 1;
};

/// What the timed phase of a petald workload produced.
struct ServeRun {
  Tracer T;
  Layers L;
  Segments Seg;
  std::vector<double> EditUs;
  uint64_t SigEdits = 0, IncEdits = 0, Repeats = 0;
  bool ServerValid = false;
};

/// ServeSetups times: spawn petal_serve, initialize, open the documents.
bool setUpServe(const Config &C, const ServeSpec &S, PetaldClient &Serve,
                Report &R, std::string &Err) {
  std::vector<double> Setup;
  for (int I = 0; I != ServeSetups; ++I) {
    Serve.stop();
    double T0 = nowUs();
    JVal Res;
    if (!Serve.spawn(C.ServeExe, S.SpawnArgs, C.WorkDir + "/petal_serve.log",
                     Err) ||
        !Serve.call("initialize", "{}", Res, Err))
      return false;
    for (const auto &[Name, Quoted] : S.Opens)
      if (!Serve.call("petal/open", docParams(Name, 1, *Quoted), Res, Err))
        return false;
    Setup.push_back((nowUs() - T0) / 1e6);
  }
  R.add("setup_s", "s", median(Setup), Setup.size());
  return true;
}

/// The timed phase: a closed loop keeping up to Window requests in flight
/// on distinct documents, in segments of whole blocks. Between segments
/// the loop waits for the answers in flight and runs the host kernel. The
/// phase lasts --seconds and then runs on until p99 (and the edit p95) has
/// ten samples beyond it, at most three times as long. Every answer is
/// checked; then the end-to-end metrics and one $/stats read.
bool timedServe(const Config &C, const ServeSpec &S,
                const std::vector<PoolQuery> &Pool, const Refs &Ref,
                PetaldClient &Serve, ServeRun &Run, Report &R) {
  struct Flight {
    Req Q;
    std::string Doc;
    double Sent;
  };
  std::map<int64_t, Flight> Out;
  std::set<std::string> Busy;
  std::vector<Req> Block;
  size_t Next = 0;
  int SegBlocks = 0;
  std::vector<double> SegLat;
  size_t NeedC = C.Trace ? 0 : samplesNeededFor(99);
  size_t NeedE = C.Trace ? 0 : samplesNeededFor(95);
  Run.Seg.begin();
  Run.T.On = C.Trace;
  double Budget = C.Seconds * 1e6, Start = nowUs(), SegStart = Start;
  bool Stopping = false;
  for (;;) {
    while (!Stopping && Out.size() < S.Window) {
      if (Next == Block.size()) {
        if (SegBlocks == S.BlocksPerSegment) {
          if (!Out.empty())
            break; // a segment ends with no request in flight
          Run.Seg.add(SegLat, nowUs() - SegStart);
          SegLat.clear();
          double Elapsed = nowUs() - Start;
          if ((Elapsed >= Budget && Run.Seg.Lat.size() >= NeedC &&
               Run.EditUs.size() >= NeedE) ||
              Elapsed > 3 * Budget) {
            Stopping = true;
            break;
          }
          SegBlocks = 0;
          SegStart = nowUs();
        }
        ++SegBlocks;
        Block.clear();
        Next = 0;
        S.NextBlock(Block);
      }
      const Req &Q = Block[Next];
      std::string Doc = S.DocName(Q);
      if (Busy.count(Doc))
        break; // wait for that document's answer first
      ++Next;
      int64_t Id;
      std::string Payload =
          Q.IsEdit ? Serve.request("petal/change",
                                   docParams(Doc, Q.Version, S.QuotedText(Q)),
                                   Id)
                   : Serve.request("petal/complete",
                                   completeParams(Doc, Q.Version,
                                                  Pool[Q.Query], Q.Explain),
                                   Id);
      double Sent = Serve.send(Payload);
      Out[Id] = {Q, Doc, Sent};
      Busy.insert(Doc);
      Run.Repeats += Q.Repeat;
    }
    if (Out.empty())
      break;
    PetaldClient::Frame F;
    if (!Serve.receive(F))
      return false;
    ++R.Attempted;
    auto It = Out.find(F.Id);
    if (It == Out.end()) {
      R.fail("petald answered an unknown request id");
      continue;
    }
    Flight Fl = std::move(It->second);
    Out.erase(It);
    Busy.erase(Fl.Doc);
    const Req &Q = Fl.Q;
    double Us = F.ArrivedUs - Fl.Sent;
    Run.T.record(Q.IsEdit ? "rpc.change" : "rpc.complete", Fl.Sent, Us, F.Id);
    const JVal *Res = F.Msg.get("result");
    if (!Res) {
      R.fail("petald error: " + errorText(F));
      continue;
    }
    if (Q.IsEdit) {
      Run.EditUs.push_back(Us);
      (Q.Kind == EditKind::Sig ? Run.SigEdits : Run.IncEdits) += 1;
      std::string Route = Res->str("build");
      if (Route != routeOf(Q.Kind) || Res->get("degraded"))
        R.fail("edit took route " + Route + ", expected " + routeOf(Q.Kind));
    } else {
      SegLat.push_back(Us);
      const JVal *List = Res->get("completions");
      std::string Variant = S.Variant(Q) + (Q.Explain ? "x" : "");
      const std::string *Want = Ref.digest(Pool[Q.Query].Key, Variant);
      if (!List || !Want || digestOf(canonicalFromJson(*List)) != *Want)
        R.fail("answer differs from the reference on " + Pool[Q.Query].Key +
               " " + Variant);
    }
  }
  Run.T.On = false;
  Run.Seg.end();
  Run.Seg.report(Run.L, R, C.Trace);
  R.add("peak_rss_mb", "MiB", peakRssMb(Serve.pid()), 1);
  addLatency(R, "edit_p50_ms", "ms", Run.EditUs, 50, 1000, C.Trace);
  addLatency(R, "edit_p95_ms", "ms", Run.EditUs, 95, 1000, C.Trace);
  readServerStats(Serve, Run.L, R, Run.ServerValid);
  return true;
}

/// The first \p Blocks blocks of a fresh stream, in wire form.
std::vector<WireReq> wireOf(const ServeSpec &S, int Blocks,
                            const std::vector<PoolQuery> &Pool) {
  std::vector<Req> Reqs;
  for (int I = 0; I != Blocks; ++I)
    S.NextBlock(Reqs);
  std::vector<WireReq> Wire;
  for (const Req &Q : Reqs) {
    WireReq W;
    W.Doc = S.DocName(Q);
    W.Version = Q.Version;
    W.IsEdit = Q.IsEdit;
    int64_t Id = static_cast<int64_t>(Wire.size() + 1);
    if (Q.IsEdit) {
      W.Route = routeOf(Q.Kind);
      W.Payload = rpcRequest(Id, "petal/change",
                             docParams(W.Doc, Q.Version, S.QuotedText(Q)));
    } else {
      W.Q = &Pool[Q.Query];
      W.Explain = Q.Explain;
      W.RefVariant = S.Variant(Q);
      W.Payload = rpcRequest(Id, "petal/complete",
                             completeParams(W.Doc, Q.Version, *W.Q,
                                            Q.Explain));
    }
    Wire.push_back(std::move(W));
  }
  return Wire;
}

/// The traced part of a petald workload run: the front end on \p FrontEnd,
/// the common probes, and the serial replay of \p Wire over \p Docs, paired
/// untraced and traced for trace.overhead_pct. Then every per-layer metric
/// and the Chrome trace.
void tracedServe(const Config &C, ServeRun &Run, Report &R,
                 const std::string &FrontEnd,
                 const std::vector<WireReq> &Wire, const Refs &Ref,
                 std::shared_ptr<const BaseCorpus> Base, DocMap &Docs) {
  Run.T.On = true;
  probeFrontEnd({&FrontEnd}, Run.T, Run.L);
  std::vector<PoolQuery> WsPool;
  loadQueries(C.Prep.wsQueries(), WsPool);
  probeCommon(C.Prep, WsPool, Run.T, Run.L, R);
  double Overhead = 0;
  replay(Wire, Ref, std::move(Base), Docs, Run.T, Run.L, R, &Overhead);
  Run.T.On = false;
  R.add("trace.overhead_pct", "%", Overhead, Wire.size());
  emitLayers(Run.L, R, Run.ServerValid,
             Run.L.p50("service.run_completion_us"));
  finishTrace(C, Run.T, R);
}

/// Reads a workload's pool, its references and the measured mix.
bool loadPool(const Config &C, const std::string &RefFile,
              const std::string &QueryFile, Refs &Ref,
              std::vector<PoolQuery> &Pool, FamilyCounts &Mix, Report &R,
              std::string &Err) {
  if (!Ref.load(C.RefsDir + "/" + RefFile) || !loadQueries(QueryFile, Pool) ||
      !loadMix(C.Prep.mix(), PaintNetMix, Mix))
    return Err = "cannot read the references, queries or mix of " +
                 C.Workload,
           false;
  checkPool(Pool, Ref, R);
  return true;
}

bool runEditStorm(const Config &C, Report &R, std::string &Err) {
  Refs Ref;
  std::vector<PoolQuery> Pool;
  FamilyCounts Mix;
  if (!loadPool(C, "edit_storm.tsv", C.Prep.editQueries(), Ref, Pool, Mix, R,
                Err))
    return false;
  std::string PaintNet, Target;
  if (!readFile(C.Prep.paintNet(), PaintNet) ||
      !readFile(C.Prep.editTarget(), Target))
    return Err = "cannot read the edit_storm document", false;
  // Every variant's text, JSON-quoted once, outside the timed phase.
  std::map<std::tuple<int, int, int>, std::string> Quoted;
  for (int S = 0; S != EditSigVariants; ++S)
    for (int B = 0; B != EditBodyVariants; ++B)
      for (int W = 0; W != 2; ++W)
        Quoted[{S, B, W}] = jsonQuote(editDocText(PaintNet, Target, S, B, W));
  const std::string Doc = "edit_storm.cs";
  EditStream Stream(C.Seed, Pool, Mix);

  ServeSpec S;
  S.Opens = {{Doc, &Quoted[{0, 0, 0}]}};
  S.DocName = [&](const Req &) { return Doc; };
  S.QuotedText = [&](const Req &Q) -> const std::string & {
    return Quoted[{Q.Sig, Q.Body, Q.Ws}];
  };
  S.Variant = [](const Req &Q) {
    return "s" + std::to_string(Q.Sig) + "b" + std::to_string(Q.Body);
  };
  S.NextBlock = [&](std::vector<Req> &Out) { Stream.nextBlock(Out); };

  ServeRun Run;
  PetaldClient Serve;
  if (!setUpServe(C, S, Serve, R, Err))
    return false;
  if (!timedServe(C, S, Pool, Ref, Serve, Run, R))
    return Err = "petald closed the connection", false;
  // Build counts must match the mix: one cold open plus every signature
  // edit ran full, every other edit incrementally.
  ++R.Attempted;
  if (Run.L.sum("service.builds_full") !=
          static_cast<double>(1 + Run.SigEdits) ||
      Run.L.sum("service.builds_incremental") !=
          static_cast<double>(Run.IncEdits))
    R.fail("petald build counts do not match the edit mix");
  Serve.stop();
  if (!C.Trace)
    return true;

  // Serial replay of the first two blocks of this seed's stream.
  EditStream Again(C.Seed, Pool, Mix);
  S.NextBlock = [&](std::vector<Req> &Out) { Again.nextBlock(Out); };
  std::string Text = editDocText(PaintNet, Target, 0, 0, 0);
  DocMap Docs;
  Docs[Doc] = build(Doc, Text, 1, nullptr, nullptr, Err);
  tracedServe(C, Run, R, Text, wireOf(S, 2, Pool), Ref, nullptr, Docs);
  return true;
}

bool runWorkspaceServe(const Config &C, Report &R, std::string &Err) {
  Refs Ref;
  std::vector<PoolQuery> Pool;
  FamilyCounts Mix;
  if (!loadPool(C, "workspace_serve.tsv", C.Prep.wsQueries(), Ref, Pool, Mix,
                R, Err))
    return false;
  std::vector<std::string> Templates(OverlayDocs);
  std::map<std::tuple<int, int, int>, std::string> Quoted;
  for (int D = 0; D != OverlayDocs; ++D) {
    if (!readFile(C.Prep.overlayTemplate(D), Templates[D]))
      return Err = "cannot read overlay documents", false;
    for (int B = 0; B != OverlayBodyVariants; ++B)
      for (int W = 0; W != 2; ++W)
        Quoted[{D, B, W}] = jsonQuote(overlayDocText(Templates[D], B, W));
  }
  WsStream Stream(C.Seed, Pool, Mix);

  ServeSpec S;
  S.SpawnArgs = {"--base-snapshot", C.Prep.baseSnapshot()};
  for (int D = 0; D != OverlayDocs; ++D)
    S.Opens.emplace_back(overlayDocName(D), &Quoted[{D, 0, 0}]);
  S.DocName = [](const Req &Q) { return overlayDocName(Q.Doc); };
  S.QuotedText = [&](const Req &Q) -> const std::string & {
    return Quoted[{Q.Doc, Q.Body, Q.Ws}];
  };
  S.Variant = [](const Req &Q) { return "b" + std::to_string(Q.Body); };
  S.NextBlock = [&](std::vector<Req> &Out) { Stream.nextBlock(Out); };
  S.Window = 2;
  S.BlocksPerSegment = 20;

  ServeRun Run;
  PetaldClient Serve;
  if (!setUpServe(C, S, Serve, R, Err))
    return false;
  if (!timedServe(C, S, Pool, Ref, Serve, Run, R))
    return Err = "petald closed the connection", false;
  // The stream fixes how many answers the result cache must serve, and
  // every open and edit must have built the way the mix says.
  ++R.Attempted;
  if (Run.L.sum("service.cache_hits") != static_cast<double>(Run.Repeats))
    R.fail("result-cache hits " +
           std::to_string(Run.L.sum("service.cache_hits")) +
           " differ from the stream's " + std::to_string(Run.Repeats) +
           " repeats");
  ++R.Attempted;
  if (Run.L.sum("service.builds_full") != OverlayDocs ||
      Run.L.sum("service.builds_incremental") !=
          static_cast<double>(Run.IncEdits))
    R.fail("petald build counts do not match the request mix");
  Serve.stop();
  if (!C.Trace)
    return true;

  // Serial replay of this seed's first 50 blocks over overlay states.
  std::shared_ptr<const snapshot::LoadedSnapshot> Snap =
      snapshot::loadSnapshot(C.Prep.baseSnapshot(), Err);
  if (!Snap)
    return false;
  std::shared_ptr<const BaseCorpus> Base = baseCorpusFromSnapshot(Snap);
  WsStream Again(C.Seed, Pool, Mix);
  S.NextBlock = [&](std::vector<Req> &Out) { Again.nextBlock(Out); };
  DocMap Docs;
  for (int D = 0; D != OverlayDocs; ++D)
    Docs[overlayDocName(D)] = build(overlayDocName(D),
                                    overlayDocText(Templates[D], 0, 0), 1,
                                    nullptr, Base, Err);
  std::string BaseText;
  readFile(C.Prep.baseSource(), BaseText);
  tracedServe(C, Run, R, BaseText, wireOf(S, 50, Pool), Ref, Base, Docs);
  return true;
}

} // namespace

bool runWorkload(const Config &C, Report &R, std::string &Err) {
  checkInputs(C.Prep, C.RefsDir, R);
  if (C.Workload == "paper_replay")
    return runPaperReplay(C, R, Err);
  if (C.Workload == "edit_storm")
    return runEditStorm(C, R, Err);
  if (C.Workload == "workspace_serve")
    return runWorkspaceServe(C, R, Err);
  Err = "unknown workload '" + C.Workload + "'";
  return false;
}

//===----------------------------------------------------------------------===//
// Recording the references
//===----------------------------------------------------------------------===//

bool recordRefs(const PrepFiles &Prep, const std::string &RefsDir,
                std::string &Err) {
  auto Line = [](const PoolQuery &Q, const std::string &Variant,
                 const std::string &Digest) {
    return Q.Key + "\t" + Q.Class + "\t" + Q.Method + "\t" + Q.Query + "\t" +
           Variant + "\t" + Digest + "\n";
  };
  const std::string Header =
      "# key\tclass\tmethod\tquery\tvariant\tdigest of the canonical "
      "answer (expr<TAB>score[<TAB>terms] lines, FNV-1a 64)\n";

  // paper_replay: the engine directly, as the workload calls it.
  {
    std::vector<PoolQuery> Pool;
    if (!loadQueries(Prep.paperQueries(), Pool))
      return Err = "cannot read paper queries", false;
    std::vector<std::string> Sources(NumProfiles);
    for (int I = 0; I != NumProfiles; ++I)
      readFile(Prep.paperSource(I), Sources[I]);
    std::vector<Corpus> Corpora;
    if (!setUpCorpora(Sources, Corpora, Err))
      return false;
    std::string Out = Header;
    for (const PoolQuery &Q : Pool) {
      Corpus &Cp = Corpora[profileOf(Q.Key)];
      const CodeClass *Class = findCodeClass(*Cp.P, Q.Class);
      const CodeMethod *Method = findCodeMethod(*Cp.P, *Class, Q.Method);
      QueryScope QS = scopeAtEnd(Class, Method);
      DiagnosticEngine Diags;
      const PartialExpr *PE = parseQueryText(Q.Query, *Cp.P, QS, Diags);
      std::vector<Completion> Res = Cp.Engine->complete(
          PE, {Class, Method, QS.StmtIndex}, 10, {}, Cp.Sol.get());
      Out += Line(Q, "-", digestOf(engineAnswer(*Cp.TS, Res)));
    }
    writeFile(RefsDir + "/paper_replay.tsv", Out);
  }

  // edit_storm: a full build of every (signature, body) variant.
  {
    std::vector<PoolQuery> Pool;
    if (!loadQueries(Prep.editQueries(), Pool))
      return Err = "cannot read edit queries", false;
    std::string PaintNet, Target;
    readFile(Prep.paintNet(), PaintNet);
    readFile(Prep.editTarget(), Target);
    std::string Out = Header;
    for (int S = 0; S != EditSigVariants; ++S)
      for (int B = 0; B != EditBodyVariants; ++B) {
        auto Doc = build("edit_storm.cs",
                         editDocText(PaintNet, Target, S, B, 0), 1, nullptr,
                         nullptr, Err);
        if (!Doc)
          return false;
        std::string Variant =
            "s" + std::to_string(S) + "b" + std::to_string(B);
        for (const PoolQuery &Q : Pool) {
          QueryOutcome O = runCompletion(*Doc, specOf(Q, false));
          if (!O.Ok)
            return Err = "reference query failed: " + O.ErrMsg, false;
          Out += Line(Q, Variant, digestOf(valueAnswer(O.Completions)));
        }
      }
    writeFile(RefsDir + "/edit_storm.tsv", Out);
  }

  // workspace_serve: overlay builds over the base, plain and explain.
  {
    std::vector<PoolQuery> Pool;
    if (!loadQueries(Prep.wsQueries(), Pool))
      return Err = "cannot read workspace queries", false;
    std::string BaseText;
    readFile(Prep.baseSource(), BaseText);
    std::shared_ptr<const BaseCorpus> Base =
        baseCorpusFromSource(BaseText, Err);
    if (!Base)
      return false;
    std::string Out = Header;
    for (int D = 0; D != OverlayDocs; ++D) {
      std::string Template;
      readFile(Prep.overlayTemplate(D), Template);
      for (int B = 0; B != OverlayBodyVariants; ++B) {
        auto Doc = build(overlayDocName(D), overlayDocText(Template, B, 0),
                         1, nullptr, Base, Err);
        if (!Doc)
          return false;
        for (const PoolQuery &Q : Pool) {
          if (docOfKey(Q.Key) != D)
            continue;
          for (bool Explain : {false, true}) {
            QueryOutcome O = runCompletion(*Doc, specOf(Q, Explain));
            if (!O.Ok)
              return Err = "reference query failed: " + O.ErrMsg, false;
            Out += Line(Q, "b" + std::to_string(B) + (Explain ? "x" : ""),
                        digestOf(valueAnswer(O.Completions)));
          }
        }
      }
    }
    writeFile(RefsDir + "/workspace_serve.tsv", Out);
  }

  std::string Inputs;
  if (!readFile(Prep.inputs(), Inputs))
    return Err = "cannot read input digests", false;
  writeFile(RefsDir + "/inputs.tsv",
            "# name\tbytes\tdigest (FNV-1a 64) of each generated input\n" +
                Inputs);
  return true;
}

} // namespace pb
