//===- bench/cold_start.cpp - snapshot warm start vs cold build -----------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Measures what the snapshot store (DESIGN.md §13) exists to shrink: the
// time from petald process start to the first query-ready DocumentState.
// Three columns over the same generated corpus:
//
//   cold-open   buildDocumentState from source: parse + resolve + index
//               freeze (the BFS reachability tables, the CSR builds) +
//               the whole-corpus abstract-type solve
//   warm-load   loadSnapshot + documentFromSnapshot: validate checksums,
//               re-parse the embedded source, adopt every frozen table out
//               of the mapping, deserialize the solution
//   warm-open   warm-load plus a petal/open of the corpus riding it (the
//               incremental-noop build sharing the mapped tables);
//               informational — the open's cost exists in both worlds,
//               and in the cold world it *is* the cold-open column
//
// cold-open and warm-load both end in the same place — a query-ready
// DocumentState for the corpus — so their ratio is the warm start. Each
// path is repeated (--repeat, default 5) and the median recorded; the
// warm open's build classification is verified (incremental-noop, i.e.
// the snapshot actually carried the open), so the bench cannot silently
// measure a cold build. The PR's acceptance bar: warm-load >= 5x faster
// than cold-open at equal scale, enforced here (--min-speedup) in both
// write and --check-against modes.
//
// Writes BENCH_cold_start.json (current directory, or $PETAL_BENCH_DIR).
// With --check-against <file> it reruns the sweep and fails if any
// column's median exceeds the snapshot by more than --tolerance percent,
// or if the speedup bar is missed.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "corpus/SourceWriter.h"
#include "service/Session.h"
#include "snapshot/Snapshot.h"
#include "support/CliArgs.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace petal;
using namespace petal::bench;

namespace {

/// Larger than edit_latency's 6.0 for the same reason that bench is
/// larger than the others: the quantity under test is the cost the
/// snapshot *avoids* — index freezing, which is O(N^2) in types — while
/// the residual warm-start cost (re-parsing the embedded source) is
/// linear. At toy scales both columns are parser-bound and the ratio says
/// nothing; at this scale the corpus is comparable to the paper's
/// mid-size subjects and the ratio has leveled off near its asymptote.
constexpr double DefaultScale = 10.0;

double coldScale() { return benchScale(DefaultScale); }

std::string corpusText() {
  ProjectProfile Prof = paperProjectProfiles(coldScale())[0];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  return writeProgramSource(P);
}

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

std::string snapshotPath() {
  const char *Dir = std::getenv("TMPDIR");
  return std::string(Dir ? Dir : "/tmp") + "/petal_cold_start.snap";
}

/// Builds the corpus cold and serializes it — the one-time cost a deploy
/// pays so every later process start is warm. Not part of any column.
void writeCorpusSnapshot(const std::string &Text, const std::string &Path) {
  DiagnosticEngine Diags;
  SynFile File;
  if (!parseSourceFile(Text, File, Diags)) {
    std::cerr << "cold_start: corpus failed to parse\n";
    std::exit(1);
  }
  DocumentShape Shape = shapeOfFile(File);
  TypeSystem TS;
  Program P(TS);
  if (!resolveParsedFile(File, P, Diags)) {
    std::cerr << "cold_start: corpus failed to resolve\n";
    std::exit(1);
  }
  CompletionIndexes Idx(P);
  Idx.freeze();
  AbsTypeSolution Solution = Idx.Infer.solve();
  std::string Error;
  if (!snapshot::writeSnapshot(Path, Text, Shape, Idx, Solution, Error)) {
    std::cerr << "cold_start: " << Error << "\n";
    std::exit(1);
  }
}

struct Sweep {
  double ColdMs = 0;
  double WarmLoadMs = 0;
  double WarmOpenMs = 0;
  size_t SnapshotBytes = 0;
  /// The warm start: query-ready via the snapshot vs query-ready cold.
  double speedup() const {
    return WarmLoadMs > 0 ? ColdMs / WarmLoadMs : 0;
  }
};

Sweep runSweep(size_t Repeats) {
  const std::string Text = corpusText();
  const std::string Path = snapshotPath();
  writeCorpusSnapshot(Text, Path);
  std::cout << "corpus: " << Text.size() / 1024 << " KiB of source, median "
            << "of " << Repeats << " runs per path\n\n";

  Sweep S;
  {
    std::vector<double> Ms;
    for (size_t I = 0; I != Repeats; ++I) {
      std::string Error;
      auto Start = std::chrono::steady_clock::now();
      std::unique_ptr<DocumentState> Doc =
          buildDocumentState("bench.cs", Text, 1, /*DocThreads=*/1, Error);
      if (!Doc) {
        std::cerr << "cold_start: cold build failed: " << Error << "\n";
        std::exit(1);
      }
      Ms.push_back(msSince(Start));
    }
    S.ColdMs = medianOf(Ms);
  }
  {
    std::vector<double> LoadMs, OpenMs;
    for (size_t I = 0; I != Repeats; ++I) {
      std::string Error;
      auto Start = std::chrono::steady_clock::now();
      auto Snap = snapshot::loadSnapshot(Path, Error);
      if (!Snap) {
        std::cerr << "cold_start: " << Error << "\n";
        std::exit(1);
      }
      std::shared_ptr<const DocumentState> Warm =
          documentFromSnapshot(*Snap, /*DocThreads=*/1);
      LoadMs.push_back(msSince(Start));
      S.SnapshotBytes = Snap->Bytes;

      std::unique_ptr<DocumentState> Doc = buildDocumentState(
          "bench.cs", Text, 1, /*DocThreads=*/1, Error, Warm.get());
      if (!Doc) {
        std::cerr << "cold_start: warm open failed: " << Error << "\n";
        std::exit(1);
      }
      if (Doc->Kind != DocumentState::BuildKind::IncrementalNoop) {
        std::cerr << "cold_start: FAIL: warm open was not served by the "
                     "snapshot (build went "
                  << (Doc->Kind == DocumentState::BuildKind::Full
                          ? "full"
                          : "incremental-body")
                  << ")\n";
        std::exit(1);
      }
      OpenMs.push_back(msSince(Start));
    }
    S.WarmLoadMs = medianOf(LoadMs);
    S.WarmOpenMs = medianOf(OpenMs);
  }
  std::remove(Path.c_str());
  return S;
}

void printSweep(const Sweep &S) {
  TextTable Tab;
  Tab.setHeader({"path", "median ms", "vs cold"});
  Tab.addRow({"cold-open", formatFixed(S.ColdMs, 2), "1.0x"});
  Tab.addRow({"warm-load", formatFixed(S.WarmLoadMs, 2),
              formatFixed(S.speedup(), 1) + "x"});
  Tab.addRow({"warm-open", formatFixed(S.WarmOpenMs, 2),
              formatFixed(S.WarmOpenMs > 0 ? S.ColdMs / S.WarmOpenMs : 0, 1) +
                  "x"});
  std::cout << "Process start to query-ready (snapshot "
            << S.SnapshotBytes / 1024 << " KiB):\n";
  Tab.print(std::cout);
  std::cout << "\n";
}

int enforceSpeedup(const Sweep &S, double MinSpeedup) {
  if (S.speedup() < MinSpeedup) {
    std::cerr << "FAIL: warm start is only " << formatFixed(S.speedup(), 1)
              << "x faster than a cold build (bar: "
              << formatFixed(MinSpeedup, 1) << "x)\n";
    return 1;
  }
  std::cout << "warm start is " << formatFixed(S.speedup(), 1)
            << "x faster than a cold build (bar: "
            << formatFixed(MinSpeedup, 1) << "x)\n";
  return 0;
}

void writeJson(const Sweep &S, size_t Repeats) {
  std::string Dir = ".";
  if (const char *D = std::getenv("PETAL_BENCH_DIR"))
    Dir = D;
  std::ofstream OS(Dir + "/BENCH_cold_start.json");
  OS << "{\n"
     << "  \"benchmark\": \"cold_start\",\n"
     << "  \"scale\": " << formatFixed(coldScale(), 2) << ",\n"
     << "  \"repeats\": " << Repeats << ",\n"
     << "  \"snapshot_bytes\": " << S.SnapshotBytes << ",\n"
     << "  \"results\": [\n"
     << "    {\"path\": \"cold-open\", \"ms\": " << formatFixed(S.ColdMs, 2)
     << "},\n"
     << "    {\"path\": \"warm-load\", \"ms\": "
     << formatFixed(S.WarmLoadMs, 2) << ", \"speedup_vs_cold\": "
     << formatFixed(S.speedup(), 1) << "},\n"
     << "    {\"path\": \"warm-open\", \"ms\": "
     << formatFixed(S.WarmOpenMs, 2) << "}\n"
     << "  ]\n}\n";
  std::cout << "wrote " << Dir << "/BENCH_cold_start.json\n";
}

/// Reruns the sweep and compares per-path medians against a
/// BENCH_cold_start.json snapshot. Latency: *higher* is the regression
/// direction; the >= MinSpeedup bar is enforced on the fresh numbers too,
/// so the gate catches a warm path that silently degenerated into a cold
/// build even if both columns moved together.
int checkAgainst(const std::string &File, double TolerancePct,
                 double MinSpeedup, size_t Repeats) {
  std::ifstream In(File);
  if (!In) {
    std::cerr << "error: cannot open baseline '" << File << "'\n";
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  json::Value Snapshot;
  std::string Error;
  if (!json::parse(Buf.str(), Snapshot, Error)) {
    std::cerr << "error: '" << File << "' is not valid JSON: " << Error
              << "\n";
    return 1;
  }
  const json::Value *Results = Snapshot.find("results");
  if (!Results || !Results->isArray() || Results->elements().empty()) {
    std::cerr << "error: '" << File << "' has no \"results\" array\n";
    return 1;
  }
  std::map<std::string, double> Baseline;
  for (const json::Value &RowV : Results->elements())
    Baseline[RowV.getString("path")] = RowV.getNumber("ms", 0);
  if (std::abs(Snapshot.getNumber("scale", -1) - coldScale()) > 1e-9)
    std::cout << "note: baseline was recorded at scale "
              << formatFixed(Snapshot.getNumber("scale", -1), 2)
              << ", current scale is " << formatFixed(coldScale(), 2)
              << " — comparison is not meaningful across scales\n\n";

  Sweep S = runSweep(Repeats);
  printSweep(S);
  std::vector<std::pair<std::string, double>> Current = {
      {"cold-open", S.ColdMs},
      {"warm-load", S.WarmLoadMs},
      {"warm-open", S.WarmOpenMs},
  };

  TextTable Tab;
  Tab.setHeader({"path", "baseline ms", "current ms", "delta", "verdict"});
  bool Regressed = false;
  for (const auto &[Path, Ms] : Current) {
    auto It = Baseline.find(Path);
    if (It == Baseline.end() || It->second <= 0) {
      Tab.addRow({Path, "-", formatFixed(Ms, 2), "-", "no baseline"});
      continue;
    }
    double DeltaPct = (Ms - It->second) / It->second * 100.0;
    bool Bad = DeltaPct > TolerancePct;
    Regressed |= Bad;
    Tab.addRow({Path, formatFixed(It->second, 2), formatFixed(Ms, 2),
                (DeltaPct >= 0 ? "+" : "") + formatFixed(DeltaPct, 1) + "%",
                Bad ? "REGRESSION" : "ok"});
  }
  std::cout << "Cold-start latency vs '" << File << "' (tolerance "
            << formatFixed(TolerancePct, 1) << "%):\n";
  Tab.print(std::cout);
  std::cout << "\n";
  if (Regressed) {
    std::cerr << "FAIL: cold-start latency regressed more than "
              << formatFixed(TolerancePct, 1)
              << "% against the baseline snapshot\n";
    return 1;
  }
  return enforceSpeedup(S, MinSpeedup);
}

} // namespace

int main(int argc, char **argv) {
  size_t Repeats = 5;
  std::string CheckFile;
  double TolerancePct = 10.0;
  double MinSpeedup = 5.0;
  FlagParser Flags("cold_start",
                   "snapshot warm start vs cold build, start to query-ready");
  Flags.addFlag("repeat", "N", "runs per path, median reported",
                [&](const std::string &V) {
                  if (!parseCount(V, "repeat", Repeats))
                    return false;
                  if (Repeats == 0) {
                    std::cerr << "error: --repeat must be >= 1\n";
                    return false;
                  }
                  return true;
                });
  Flags.addFlag("check-against", "file",
                "compare against a BENCH_cold_start.json snapshot instead "
                "of writing one",
                [&](const std::string &V) {
                  CheckFile = V;
                  return true;
                });
  Flags.addFlag("tolerance", "pct",
                "allowed latency increase before --check-against fails",
                [&](const std::string &V) {
                  char *End = nullptr;
                  TolerancePct = std::strtod(V.c_str(), &End);
                  if (End == V.c_str() || *End != '\0' || TolerancePct < 0) {
                    std::cerr << "error: --tolerance needs a non-negative "
                                 "percentage, got '"
                              << V << "'\n";
                    return false;
                  }
                  return true;
                });
  Flags.addFlag("min-speedup", "X",
                "required warm-open speedup over cold-open (default 5)",
                [&](const std::string &V) {
                  char *End = nullptr;
                  MinSpeedup = std::strtod(V.c_str(), &End);
                  if (End == V.c_str() || *End != '\0' || MinSpeedup < 0) {
                    std::cerr << "error: --min-speedup needs a non-negative "
                                 "number, got '"
                              << V << "'\n";
                    return false;
                  }
                  return true;
                });
  if (!Flags.parse(argc, argv))
    return Flags.exitCode();

  banner("snapshot cold start", "DESIGN.md §13 / start-to-query-ready",
         coldScale());
  if (!CheckFile.empty())
    return checkAgainst(CheckFile, TolerancePct, MinSpeedup, Repeats);

  Sweep S = runSweep(Repeats);
  printSweep(S);
  if (int Rc = enforceSpeedup(S, MinSpeedup))
    return Rc;
  writeJson(S, Repeats);
  return 0;
}
