//===- petalbench/harness/Workloads.h - The three workloads ---------------===//

#ifndef PETALBENCH_WORKLOADS_H
#define PETALBENCH_WORKLOADS_H

#include "Inputs.h"
#include "Util.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  PrepFiles Prep;
  std::string RefsDir;
  std::string ServeExe; ///< the petal_serve binary
  std::string WorkDir;  ///< logs and trace files
};

struct Metric {
  std::string Name, Unit;
  double Value = 0;
  size_t Samples = 0;
};

/// What one run produced: the metrics, the validity ledger, and notes.
struct Report {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;
  std::vector<Metric> Metrics;
  std::map<std::string, std::string> Info;

  void add(const std::string &Name, const std::string &Unit, double Value,
           size_t Samples) {
    Metrics.push_back({Name, Unit, Value, Samples});
  }
  /// Records one failed attempt (kept to the first 20 messages).
  void fail(const std::string &Why) {
    ++Failed;
    if (Problems.size() < 20)
      Problems.push_back(Why);
  }
  std::string json() const;
};

/// Reference answers and query texts, recorded once (see `record`).
struct Refs {
  struct Site {
    std::string Class, Method, Query;
  };
  std::map<std::string, Site> Texts;           ///< key -> posed query
  std::map<std::string, std::string> Digests;  ///< key|variant -> digest
  bool load(const std::string &Path);
  const std::string *digest(const std::string &Key,
                            const std::string &Variant) const;
};

/// Runs one workload; false on a set-up failure (message in \p Err).
bool runWorkload(const Config &C, Report &R, std::string &Err);

/// Records the reference files for every workload into \p RefsDir.
bool recordRefs(const PrepFiles &Prep, const std::string &RefsDir,
                std::string &Err);

/// The benchmark's self-tests; returns the number of failures.
int selfTest(const PrepFiles *Prep);

} // namespace pb

#endif // PETALBENCH_WORKLOADS_H
