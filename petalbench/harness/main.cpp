//===- petalbench/harness/main.cpp - The benchmark harness ----------------===//
//
//   petalbench prepare  --out DIR
//   petalbench record   --prep DIR --refs DIR
//   petalbench run      --workload W --seed N --seconds S --trace 0|1
//                       --prep DIR --refs DIR --serve EXE --work DIR
//   petalbench selftest [--prep DIR]
//
// `run` prints one line `RESULT {json}`; run.py turns it into the metric
// table, the provenance line and the final result object.
//
//===----------------------------------------------------------------------===//

#include "Client.h"
#include "Inputs.h"
#include "Streams.h"
#include "Workloads.h"

#include "complete/BaseCorpus.h"
#include "service/Session.h"
#include "snapshot/Snapshot.h"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>

#include <unistd.h>

using namespace pb;

namespace {

std::map<std::string, std::string> parseFlags(int argc, char **argv) {
  std::map<std::string, std::string> F;
  for (int I = 2; I + 1 < argc; I += 2)
    if (std::string(argv[I]).rfind("--", 0) == 0)
      F[argv[I] + 2] = argv[I + 1];
  return F;
}

int Failures = 0;
void expect(bool Ok, const std::string &What) {
  std::cout << (Ok ? "ok    " : "FAIL  ") << What << "\n";
  Failures += !Ok;
}

std::string streamText(const std::vector<Req> &V) {
  std::string S;
  for (const Req &Q : V)
    S += std::to_string(Q.IsEdit) + ":" + std::to_string(Q.Doc) + ":" +
         std::to_string(Q.Query) + ":" + std::to_string(Q.Explain) + ":" +
         std::to_string(Q.Repeat) + ":" +
         std::to_string(static_cast<int>(Q.Kind)) + ":" +
         std::to_string(Q.Sig) + std::to_string(Q.Body) +
         std::to_string(Q.Ws) + ":" + std::to_string(Q.Version) + "\n";
  return S;
}

/// Per-block mix: counts by request kind and family.
std::map<std::string, int> mixOf(const std::vector<Req> &V,
                                 const std::vector<PoolQuery> &Pool) {
  std::map<std::string, int> M;
  for (const Req &Q : V) {
    if (Q.IsEdit)
      ++M[std::string("edit.") + routeOf(Q.Kind)];
    else
      ++M[std::string(Q.Repeat ? "repeat" : Q.Explain ? "explain" : "fresh") +
          "." + (Q.Repeat ? "" : familyName(Pool[Q.Query].Family))];
  }
  return M;
}

std::vector<PoolQuery> syntheticPool(bool Workspace) {
  std::vector<PoolQuery> Pool;
  for (int D = 0; D != (Workspace ? OverlayDocs : 1); ++D)
    for (int F = 0; F != NumFamilies; ++F)
      for (int I = 0; I != 4; ++I) {
        char Key[32];
        std::snprintf(Key, sizeof(Key), "d%02d.%s.%02d", D, familyName(F), I);
        Pool.push_back({Key, F, "C", "M", "q"});
      }
  return Pool;
}

void testStreams() {
  // PaintNet's measured mix at scale 6 (mix.tsv, paper_0).
  const FamilyCounts Mix = {1303, 1080, 724, 536};
  for (bool Ws : {false, true}) {
    std::vector<PoolQuery> Pool = syntheticPool(Ws);
    auto Draw = [&](uint64_t Seed, int Blocks) {
      std::vector<std::vector<Req>> Out(Blocks);
      if (Ws) {
        WsStream S(Seed, Pool, Mix);
        for (auto &B : Out)
          S.nextBlock(B);
      } else {
        EditStream S(Seed, Pool, Mix);
        for (auto &B : Out)
          S.nextBlock(B);
      }
      return Out;
    };
    const char *Name = Ws ? "workspace_serve" : "edit_storm";
    // 1500 blocks: longer than a 30-s run of either workload, so a pool that
    // runs dry under the block's mix shows here.
    constexpr int Blocks = 1500;
    auto A = Draw(7, Blocks), B = Draw(7, Blocks), C = Draw(8, Blocks);
    std::string TA, TB, TC;
    bool SameMix = true, Distinct = true, Measured = true;
    FamilyCounts Want = Ws ? apportion(Mix, WsStream::Fresh)
                           : apportion(Mix, 20 * EditStream::AfterEdit);
    for (int I = 0; I != Blocks; ++I) {
      TA += streamText(A[I]);
      TB += streamText(B[I]);
      TC += streamText(C[I]);
      SameMix &= mixOf(A[I], Pool) == mixOf(C[I], Pool) &&
                 mixOf(A[I], Pool) == mixOf(A[I % 4], Pool);
      std::map<std::string, int> M = mixOf(A[I], Pool);
      for (int F = 0; F != NumFamilies; ++F)
        Measured &= M["fresh." + std::string(familyName(F))] == Want[F];
      if (Ws)
        for (size_t J = 1; J < A[I].size(); ++J)
          Distinct &= A[I][J].Doc != A[I][J - 1].Doc;
    }
    expect(TA == TB, std::string(Name) +
                         ": a seed gives a byte-identical request stream");
    expect(TA != TC, std::string(Name) + ": another seed reorders it");
    expect(SameMix,
           std::string(Name) + ": every block of every seed has the same mix");
    expect(Measured, std::string(Name) + ": a block's completions split " +
                         "among the families by the measured mix");
    if (Ws)
      expect(Distinct, "workspace_serve: consecutive requests go to distinct "
                       "documents within a block");
  }
}

void testPercentiles() {
  expect(samplesNeededFor(50) == 20 && samplesNeededFor(95) == 200 &&
             samplesNeededFor(99) == 1000,
         "percentile: ten samples beyond p50/p95/p99 need 20/200/1000");
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  Pctl P99 = percentile(V, 99);
  expect(P99.Value == 990 && P99.Beyond == 10 && P99.usable(),
         "percentile: p99 of 1..1000 is 990 with 10 beyond");
  V.pop_back();
  expect(!percentile(V, 99).usable(),
         "percentile: p99 of 999 samples is flagged unusable");
  expect(percentile({3, 1, 2}, 50).Value == 2,
         "percentile: nearest-rank median");
}

/// A fake server on pipes: it answers request 1 late and request 2 early,
/// then writes two answers in a single write(), so both frames are read
/// together.
void testTiming() {
  int ToSrv[2], FromSrv[2];
  if (::pipe(ToSrv) != 0 || ::pipe(FromSrv) != 0) {
    expect(false, "timing: pipes");
    return;
  }
  auto Frame = [](int Id) {
    std::string P = "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(Id) +
                    ",\"result\":{}}";
    return "Content-Length: " + std::to_string(P.size()) + "\r\n\r\n" + P;
  };
  std::thread Server([&] {
    char Buf[4096];
    auto Consume = [&] { (void)!::read(ToSrv[0], Buf, sizeof(Buf)); };
    Consume(); // request 1
    Consume(); // request 2
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::string Two = Frame(2);
    (void)!::write(FromSrv[1], Two.data(), Two.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    std::string One = Frame(1);
    (void)!::write(FromSrv[1], One.data(), One.size());
    Consume(); // requests 3 and 4
    Consume();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::string Both = Frame(3) + Frame(4);
    (void)!::write(FromSrv[1], Both.data(), Both.size());
  });
  PetaldClient C;
  C.attach(ToSrv[1], FromSrv[0]);
  int64_t Id;
  std::map<int64_t, double> Sent, Lat;
  Sent[1] = C.send(C.request("a", "{}", Id));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Sent[2] = C.send(C.request("b", "{}", Id));
  for (int I = 0; I != 2; ++I) {
    PetaldClient::Frame F;
    C.receive(F);
    Lat[F.Id] = (F.ArrivedUs - Sent[F.Id]) / 1000;
  }
  Sent[3] = C.send(C.request("c", "{}", Id));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Sent[4] = C.send(C.request("d", "{}", Id));
  double Arrived[5] = {};
  for (int I = 0; I != 2; ++I) {
    PetaldClient::Frame F;
    C.receive(F);
    Lat[F.Id] = (F.ArrivedUs - Sent[F.Id]) / 1000;
    Arrived[F.Id] = F.ArrivedUs;
  }
  Server.join();
  for (int Fd : {ToSrv[0], ToSrv[1], FromSrv[0], FromSrv[1]})
    ::close(Fd);
  expect(Lat[1] > 55 && Lat[1] < 90 && Lat[2] > 10 && Lat[2] < 30,
         "timing: a late answer is timed from its own send (" +
             std::to_string(Lat[1]) + " ms, " + std::to_string(Lat[2]) +
             " ms)");
  expect(std::fabs((Lat[3] - Lat[4]) - 20) < 8 && Arrived[4] >= Arrived[3],
         "timing: two frames read together keep their own send times (" +
             std::to_string(Lat[3]) + " ms, " + std::to_string(Lat[4]) +
             " ms)");
}

/// Each edit shape takes its intended build route.
void testRoutes(const PrepFiles &Prep) {
  std::string PaintNet, Target, Template, Err;
  readFile(Prep.paintNet(), PaintNet);
  readFile(Prep.editTarget(), Target);
  readFile(Prep.overlayTemplate(0), Template);
  auto Kind = [](const std::unique_ptr<petal::DocumentState> &D) {
    return D ? static_cast<int>(D->Kind) : -1;
  };
  using BK = petal::DocumentState::BuildKind;
  auto Prev = petal::buildDocumentState(
      "e.cs", editDocText(PaintNet, Target, 0, 0, 0), 1, 1, Err);
  auto Body = petal::buildDocumentState(
      "e.cs", editDocText(PaintNet, Target, 0, 2, 0), 2, 1, Err, Prev.get());
  auto Noop = petal::buildDocumentState(
      "e.cs", editDocText(PaintNet, Target, 0, 0, 1), 2, 1, Err, Prev.get());
  auto Sig = petal::buildDocumentState(
      "e.cs", editDocText(PaintNet, Target, 2, 0, 0), 2, 1, Err, Prev.get());
  expect(Kind(Body) == static_cast<int>(BK::IncrementalBody) &&
             Kind(Noop) == static_cast<int>(BK::IncrementalNoop) &&
             Kind(Sig) == static_cast<int>(BK::Full),
         "routes: edit_storm body/whitespace/signature edits build "
         "incremental-body/incremental-noop/full");
  auto Snap = petal::snapshot::loadSnapshot(Prep.baseSnapshot(), Err);
  auto Base = Snap ? petal::baseCorpusFromSnapshot(Snap) : nullptr;
  auto O = petal::buildDocumentState("o.cs", overlayDocText(Template, 0, 0),
                                     1, 1, Err, nullptr, Base);
  auto OB = petal::buildDocumentState("o.cs", overlayDocText(Template, 1, 0),
                                      2, 1, Err, O.get(), Base);
  auto OW = petal::buildDocumentState("o.cs", overlayDocText(Template, 0, 1),
                                      2, 1, Err, O.get(), Base);
  expect(O && O->Base && Kind(OB) == static_cast<int>(BK::IncrementalBody) &&
             Kind(OW) == static_cast<int>(BK::IncrementalNoop),
         "routes: overlay opens build over the base; overlay body/whitespace "
         "edits build incremental-body/incremental-noop");
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::cerr << "usage: petalbench prepare|record|run|selftest [flags]\n";
    return 2;
  }
  std::string Cmd = argv[1];
  std::map<std::string, std::string> F = parseFlags(argc, argv);
  std::string Err;
  if (Cmd == "prepare") {
    if (!prepareInputs(F["out"], Err)) {
      std::cerr << "prepare: " << Err << "\n";
      return 1;
    }
    return 0;
  }
  if (Cmd == "record") {
    if (!recordRefs(PrepFiles{F["prep"]}, F["refs"], Err)) {
      std::cerr << "record: " << Err << "\n";
      return 1;
    }
    return 0;
  }
  if (Cmd == "selftest") {
    testStreams();
    testPercentiles();
    testTiming();
    if (!F["prep"].empty())
      testRoutes(PrepFiles{F["prep"]});
    std::cout << (Failures ? "selftest: FAILED\n" : "selftest: all passed\n");
    return Failures ? 1 : 0;
  }
  if (Cmd == "run") {
    Config C;
    C.Workload = F["workload"];
    C.Seed = std::strtoull(F["seed"].c_str(), nullptr, 10);
    C.Seconds = std::atof(F["seconds"].c_str());
    C.Trace = F["trace"] == "1";
    C.Prep = PrepFiles{F["prep"]};
    C.RefsDir = F["refs"];
    C.ServeExe = F["serve"];
    C.WorkDir = F["work"];
    Report R;
    if (!runWorkload(C, R, Err)) {
      std::cerr << "run: " << Err << "\n";
      return 1;
    }
    std::cout << "RESULT " << R.json() << std::endl;
    return 0;
  }
  std::cerr << "unknown command '" << Cmd << "'\n";
  return 2;
}
