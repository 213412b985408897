//===- bench/batch_throughput.cpp - Parallel batch-query throughput -------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Measures end-to-end completion throughput (queries/second) of the
// BatchExecutor at 1, 2, 4, and hardware_concurrency() threads, over the
// harvested ?({arg}) method queries of one mid-size synthetic project, plus
// one single-thread row over the same calls posed as argument queries
// M(..., ?, ...) (§5.2: the first guessable argument made a hole). The
// paper evaluates per-query latency (§5.1–5.3); this benchmark adds the
// batch dimension the parallel executor introduces: replaying a whole
// corpus worth of queries, as the experiment drivers do.
//
// Writes a machine-readable BENCH_batch.json snapshot (into the current
// directory, or $PETAL_BENCH_DIR) so the speedup trajectory can be tracked
// across commits, then runs the google-benchmark harness for calibrated
// per-configuration numbers.
//
// Regression-gate mode: --check-against BENCH_batch.json [--tolerance PCT]
// reruns the sweep and compares per-thread-count throughput against the
// snapshot, exiting nonzero if any configuration dropped more than PCT
// (default 10) percent. Check mode neither rewrites the snapshot nor runs
// the google-benchmark harness, so it is safe to wire into CI.
//
// Sizing flags (honored in both sweep and check mode):
//   --scale S    corpus scale factor; overrides $PETAL_SCALE (default 0.5)
//   --repeat N   minimum completeBatch repetitions per measurement
//                (default 3; the 0.5 s floor still applies)
//
// Note: the speedup column only shows >1 on multi-core hardware; on a
// single-CPU machine all configurations collapse to serial throughput.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "complete/BatchExecutor.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace petal;
using namespace petal::bench;

namespace {

/// --scale override; negative means "not set, fall back to $PETAL_SCALE".
double &scaleOverride() {
  static double S = -1.0;
  return S;
}

/// The corpus scale in effect: --scale beats $PETAL_SCALE beats 0.5.
double activeScale() {
  return scaleOverride() >= 0 ? scaleOverride() : benchScale();
}

/// --repeat: minimum completeBatch repetitions per measurement.
size_t &minRepeats() {
  static size_t N = 3;
  return N;
}

/// One project plus the full batched query list, shared by every
/// configuration so all thread counts answer identical requests.
struct BatchFixture {
  std::unique_ptr<TypeSystem> TS;
  std::unique_ptr<Program> P;
  std::unique_ptr<CompletionIndexes> Idx;
  std::vector<BatchExecutor::Request> Requests;
  /// The argument family: each harvested call with its first guessable
  /// declared argument replaced by a hole, callee resolved.
  std::vector<BatchExecutor::Request> ArgsRequests;

  static BatchFixture &get() {
    static BatchFixture F;
    return F;
  }

private:
  BatchFixture() {
    ProjectProfile Prof = paperProjectProfiles(activeScale())[0];
    TS = std::make_unique<TypeSystem>();
    P = std::make_unique<Program>(*TS);
    CorpusGenerator Gen(Prof);
    Gen.generate(*P);
    Idx = std::make_unique<CompletionIndexes>(*P);
    Idx->freeze();

    // One ?({arg}) query per harvested call with a guessable ingredient —
    // the §5.1 query family, which dominates the experiment drivers.
    Arena &A = P->arena();
    HarvestResult Sites = harvestProgram(*P);
    for (const CallSiteInfo &CS : Sites.Calls) {
      const Expr *Arg = nullptr;
      if (CS.Call->receiver() && isGuessableExpr(CS.Call->receiver()))
        Arg = CS.Call->receiver();
      for (const Expr *E : CS.Call->args())
        if (!Arg && isGuessableExpr(E))
          Arg = E;
      if (!Arg)
        continue;
      const PartialExpr *Q = A.create<UnknownCallPE>(
          std::vector<const PartialExpr *>{A.create<ConcretePE>(Arg)});
      Requests.push_back({Q, CS.Site, 10, {}, nullptr});
    }

    for (const CallSiteInfo &CS : Sites.Calls) {
      const MethodInfo &MI = TS->method(CS.Call->method());
      std::vector<const PartialExpr *> Args;
      if (!MI.IsStatic)
        Args.push_back(A.create<ConcretePE>(CS.Call->receiver()));
      bool Hole = false;
      for (const Expr *E : CS.Call->args()) {
        if (!Hole && isGuessableExpr(E)) {
          Args.push_back(A.create<HolePE>());
          Hole = true;
        } else {
          Args.push_back(A.create<ConcretePE>(E));
        }
      }
      if (!Hole)
        continue;
      const PartialExpr *Q = A.create<KnownCallPE>(
          MI.Name, std::move(Args),
          std::vector<MethodId>{CS.Call->method()});
      ArgsRequests.push_back({Q, CS.Site, 10, {}, nullptr});
    }
  }
};

/// The benchmarked thread counts: 1, 2, 4, and the machine width, deduped
/// and sorted.
std::vector<size_t> threadCounts() {
  std::vector<size_t> Counts = {1, 2, 4, ThreadPool::defaultThreadCount()};
  std::sort(Counts.begin(), Counts.end());
  Counts.erase(std::unique(Counts.begin(), Counts.end()), Counts.end());
  return Counts;
}

/// Times repeated completeBatch calls and returns queries/second.
double measureQps(BatchExecutor &Exec,
                  const std::vector<BatchExecutor::Request> &Requests) {
  Exec.completeBatch(Requests); // warm-up (also computes the shared solution)
  using Clock = std::chrono::steady_clock;
  size_t Reps = 0;
  Clock::time_point Start = Clock::now();
  double Elapsed = 0;
  while (Reps < minRepeats() || Elapsed < 0.5) {
    benchmark::DoNotOptimize(Exec.completeBatch(Requests));
    ++Reps;
    Elapsed = std::chrono::duration<double>(Clock::now() - Start).count();
  }
  return static_cast<double>(Reps * Requests.size()) / Elapsed;
}

/// The manual sweep: queries/second per thread count, plus the argument
/// family's single-thread queries/second in \p ArgsQps.
std::vector<std::pair<size_t, double>> runSweep(double &ArgsQps) {
  BatchFixture &F = BatchFixture::get();
  std::cout << "batched queries per run: " << F.Requests.size()
            << " method, " << F.ArgsRequests.size()
            << " args (hardware threads: "
            << std::thread::hardware_concurrency() << ")\n\n";

  std::vector<std::pair<size_t, double>> Rows;
  for (size_t T : threadCounts()) {
    BatchExecutor Exec(*F.P, *F.Idx, T);
    Rows.emplace_back(T, measureQps(Exec, F.Requests));
  }
  BatchExecutor Serial(*F.P, *F.Idx, 1);
  ArgsQps = measureQps(Serial, F.ArgsRequests);
  return Rows;
}

/// Runs the manual sweep, prints the table, and snapshots the results.
void sweepAndSnapshot() {
  BatchFixture &F = BatchFixture::get();
  double ArgsQps = 0;
  std::vector<std::pair<size_t, double>> Rows = runSweep(ArgsQps);

  double Base = Rows.front().second;
  TextTable Tab;
  // Efficiency = speedup / threads: 1.00 is perfect linear scaling. On a
  // single-CPU machine every multi-thread row degenerates to ~1/threads.
  Tab.setHeader({"threads", "queries/sec", "speedup vs 1", "efficiency"});
  for (const auto &[T, Qps] : Rows)
    Tab.addRow({std::to_string(T), formatFixed(Qps, 1),
                formatFixed(Qps / Base, 2) + "x",
                formatFixed(Qps / Base / static_cast<double>(T), 2)});
  Tab.addRow({"1 (args)", formatFixed(ArgsQps, 1), "-", "-"});
  std::cout << "Batch throughput (manual sweep; the args row times "
               "M(..., ?, ...) queries):\n";
  Tab.print(std::cout);
  std::cout << "\n";

  std::string Dir = ".";
  if (const char *D = std::getenv("PETAL_BENCH_DIR"))
    Dir = D;
  std::ofstream OS(Dir + "/BENCH_batch.json");
  OS << "{\n"
     << "  \"benchmark\": \"batch_throughput\",\n"
     << "  \"scale\": " << formatFixed(activeScale(), 2) << ",\n"
     << "  \"repeat\": " << minRepeats() << ",\n"
     << "  \"queries_per_batch\": " << F.Requests.size() << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "  \"results\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    double T = static_cast<double>(Rows[I].first);
    OS << "    {\"threads\": " << Rows[I].first
       << ", \"qps\": " << formatFixed(Rows[I].second, 1)
       << ", \"speedup\": " << formatFixed(Rows[I].second / Base, 3)
       << ", \"efficiency\": " << formatFixed(Rows[I].second / Base / T, 3)
       << "}" << (I + 1 == Rows.size() ? "\n" : ",\n");
  }
  OS << "  ],\n"
     << "  \"args_queries_per_batch\": " << F.ArgsRequests.size() << ",\n"
     << "  \"args_results\": [\n"
     << "    {\"threads\": 1, \"qps\": " << formatFixed(ArgsQps, 1) << "}\n"
     << "  ]\n}\n";
  std::cout << "wrote " << Dir << "/BENCH_batch.json\n\n";
}

/// Reruns the sweep and compares against a BENCH_batch.json snapshot.
/// Returns the process exit code: 1 if any thread count regressed by more
/// than \p TolerancePct percent (or the snapshot is unreadable), else 0.
int checkAgainst(const std::string &File, double TolerancePct) {
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
  std::map<size_t, double> Baseline;
  for (const json::Value &Row : Results->elements())
    Baseline[static_cast<size_t>(Row.getInt("threads", 0))] =
        Row.getNumber("qps", 0);
  double ArgsBaseline = -1; // absent from older snapshots
  if (const json::Value *Args = Snapshot.find("args_results"))
    if (Args->isArray() && !Args->elements().empty())
      ArgsBaseline = Args->elements().front().getNumber("qps", -1);
  if (std::abs(Snapshot.getNumber("scale", -1) - activeScale()) > 1e-9)
    std::cout << "note: baseline was recorded at scale "
              << formatFixed(Snapshot.getNumber("scale", -1), 2)
              << ", current scale is " << formatFixed(activeScale(), 2)
              << " — comparison is not meaningful across scales\n\n";

  double ArgsQps = 0;
  std::vector<std::pair<size_t, double>> Rows = runSweep(ArgsQps);

  TextTable Tab;
  Tab.setHeader({"threads", "baseline q/s", "current q/s", "delta",
                 "verdict"});
  bool Regressed = false;
  auto Compare = [&](const std::string &Label, double Want, double Qps) {
    if (Want <= 0) {
      Tab.addRow({Label, "-", formatFixed(Qps, 1), "-", "no baseline"});
      return;
    }
    double DeltaPct = (Qps - Want) / Want * 100.0;
    bool Bad = DeltaPct < -TolerancePct;
    Regressed |= Bad;
    Tab.addRow({Label, formatFixed(Want, 1), formatFixed(Qps, 1),
                (DeltaPct >= 0 ? "+" : "") + formatFixed(DeltaPct, 1) + "%",
                Bad ? "REGRESSION" : "ok"});
  };
  for (const auto &[T, Qps] : Rows) {
    auto It = Baseline.find(T);
    Compare(std::to_string(T), It == Baseline.end() ? -1 : It->second, Qps);
  }
  Compare("1 (args)", ArgsBaseline, ArgsQps);
  std::cout << "Throughput vs '" << File << "' (tolerance "
            << formatFixed(TolerancePct, 1) << "%):\n";
  Tab.print(std::cout);
  std::cout << "\n";
  if (Regressed) {
    std::cerr << "FAIL: throughput regressed more than "
              << formatFixed(TolerancePct, 1)
              << "% against the baseline snapshot\n";
    return 1;
  }
  std::cout << "throughput within tolerance of the baseline\n";
  return 0;
}

void BM_BatchComplete(benchmark::State &State) {
  BatchFixture &F = BatchFixture::get();
  BatchExecutor Exec(*F.P, *F.Idx, static_cast<size_t>(State.range(0)));
  Exec.completeBatch(F.Requests); // warm-up
  for (auto _ : State)
    benchmark::DoNotOptimize(Exec.completeBatch(F.Requests));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(F.Requests.size()));
}

void registerBenchmarks() {
  auto *B = benchmark::RegisterBenchmark("BM_BatchComplete", BM_BatchComplete)
                ->UseRealTime();
  for (size_t T : threadCounts())
    B->Arg(static_cast<int64_t>(T));
}

} // namespace

int main(int argc, char **argv) {
  // Strip the regression-gate flags before google-benchmark sees argv.
  std::string CheckFile;
  double TolerancePct = 10.0;
  std::vector<char *> Rest = {argv[0]};
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--check-against" && I + 1 < argc) {
      CheckFile = argv[++I];
    } else if (Arg == "--tolerance" && I + 1 < argc) {
      char *End = nullptr;
      TolerancePct = std::strtod(argv[++I], &End);
      if (End == argv[I] || *End != '\0' || TolerancePct < 0) {
        std::cerr << "error: --tolerance needs a non-negative percentage, "
                     "got '"
                  << argv[I] << "'\n";
        return 1;
      }
    } else if (Arg == "--scale" && I + 1 < argc) {
      char *End = nullptr;
      double S = std::strtod(argv[++I], &End);
      if (End == argv[I] || *End != '\0' || S <= 0) {
        std::cerr << "error: --scale needs a positive factor, got '"
                  << argv[I] << "'\n";
        return 1;
      }
      scaleOverride() = S;
    } else if (Arg == "--repeat" && I + 1 < argc) {
      char *End = nullptr;
      long N = std::strtol(argv[++I], &End, 10);
      if (End == argv[I] || *End != '\0' || N < 1) {
        std::cerr << "error: --repeat needs a positive integer, got '"
                  << argv[I] << "'\n";
        return 1;
      }
      minRepeats() = static_cast<size_t>(N);
    } else {
      Rest.push_back(argv[I]);
    }
  }

  banner("parallel batch-query throughput", "§5 experiment replay, batched",
         activeScale());
  if (!CheckFile.empty())
    return checkAgainst(CheckFile, TolerancePct);

  sweepAndSnapshot();
  registerBenchmarks();
  int RestArgc = static_cast<int>(Rest.size());
  benchmark::Initialize(&RestArgc, Rest.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
