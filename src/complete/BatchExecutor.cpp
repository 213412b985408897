//===- complete/BatchExecutor.cpp - Parallel batch queries ----------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "complete/BatchExecutor.h"

using namespace petal;

BatchExecutor::BatchExecutor(Program &P, CompletionIndexes &Idx,
                             size_t Threads)
    : P(P), Idx(Idx), Pool(Threads) {
  // Build every index table before any worker can read them; the engines
  // below then share them as immutable storage.
  Idx.freeze();
  Engines.reserve(Pool.numThreads());
  for (size_t W = 0; W != Pool.numThreads(); ++W)
    Engines.push_back(std::make_unique<CompletionEngine>(P, Idx));
}

void BatchExecutor::forEach(
    size_t N, const std::function<void(TaskContext &, size_t)> &Fn) {
  Pool.parallelFor(N, [&](size_t Index, size_t Worker) {
    Arena Scratch;
    TaskContext Ctx{*Engines[Worker], Scratch, Worker};
    Fn(Ctx, Index);
  });
}

const AbsTypeSolution &BatchExecutor::fullSolution() {
  if (!FullSolution)
    FullSolution = std::make_shared<const AbsTypeSolution>(Idx.Infer.solve());
  return *FullSolution;
}

std::shared_ptr<const AbsTypeSolution> BatchExecutor::sharedSolution() {
  fullSolution();
  return FullSolution;
}

void BatchExecutor::adoptSolution(
    std::shared_ptr<const AbsTypeSolution> Solution) {
  if (!FullSolution)
    FullSolution = std::move(Solution);
}

BatchExecutor::BatchResult
BatchExecutor::completeBatch(const std::vector<Request> &Requests) {
  BatchResult Out;
  Out.Results.resize(Requests.size());
  Out.Arenas.resize(Requests.size());
  Out.Stats.resize(Requests.size());

  // If any request will fall back to the full-corpus solution, compute it
  // once up front (serially) instead of once per worker engine.
  const AbsTypeSolution *Shared = nullptr;
  for (const Request &R : Requests) {
    if (!R.Solution && R.Opts.UseAbstractTypes && R.Opts.Rank.UseAbstractTypes) {
      Shared = &fullSolution();
      break;
    }
  }

  Pool.parallelFor(Requests.size(), [&](size_t Index, size_t Worker) {
    const Request &R = Requests[Index];
    CompletionEngine &Engine = *Engines[Worker];
    const AbsTypeSolution *Sol = R.Solution ? R.Solution : Shared;
    Out.Results[Index] = Engine.complete(R.Query, R.Site, R.N, R.Opts, Sol);
    Out.Stats[Index] = Engine.lastQueryStats();
    // Steal the arena holding this query's result expressions so the next
    // query on this worker does not free them.
    Out.Arenas[Index] = Engine.takeQueryArena();
  });
  return Out;
}
