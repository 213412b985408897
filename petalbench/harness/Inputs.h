//===- petalbench/harness/Inputs.h - Generated inputs and query pools -----===//
//
// The prepare step (a process of its own) generates every input the
// workloads read: the seven paper-profile sources, the edit_storm document
// and its target-class variants, the workspace base source and base
// snapshot, the overlay client documents, and the fixed query pools. A run
// only reads these files, so generation counts in neither set-up time nor
// peak memory.
//
//===----------------------------------------------------------------------===//

#ifndef PETALBENCH_INPUTS_H
#define PETALBENCH_INPUTS_H

#include <array>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Corpus scale of every workload (per-query cost grows ~8x from 0.5 to 6).
constexpr double CorpusScale = 6.0;
constexpr int NumProfiles = 7;
/// Variant counts of the edit_storm target class and the overlay documents.
constexpr int EditSigVariants = 3;
constexpr int EditBodyVariants = 4;
constexpr int OverlayDocs = 16;
constexpr int OverlayBodyVariants = 3;

/// The four §5 query families.
enum Family { FMethod, FArgs, FLookup, FCompare, NumFamilies };
const char *familyName(int F);
int familyOf(const std::string &Name);

/// A count per family.
using FamilyCounts = std::array<int, NumFamilies>;
/// Splits \p Total among the families in proportion to \p Weights (largest
/// remainder).
FamilyCounts apportion(const FamilyCounts &Weights, int Total);
/// Reads the measured mix of \p Source ("paper_0" .. "paper_6") from the
/// prepared mix.tsv: the valid harvested sites per family.
bool loadMix(const std::string &Path, const std::string &Source,
             FamilyCounts &Out);
/// The source whose measured mix the petald workloads draw by: PaintNet,
/// the code both of them serve.
constexpr const char *PaintNetMix = "paper_0";

/// One query of a fixed pool: where it is posed and its text.
struct PoolQuery {
  std::string Key; ///< e.g. "p3.args.07", "edit.lookup.02", "d05.method.01"
  int Family = 0;
  std::string Class, Method, Query;
};

/// Runs the prepare step into \p Dir. False with \p Err on failure.
bool prepareInputs(const std::string &Dir, std::string &Err);

/// Reads a query file written by prepareInputs.
bool loadQueries(const std::string &Path, std::vector<PoolQuery> &Out);

/// Text of the edit_storm document for target-class state (sig, body, ws).
std::string editDocText(const std::string &PaintNetSource,
                        const std::string &TargetTemplate, int Sig, int Body,
                        int Ws);

/// Text of overlay client document \p Doc in state (body, ws).
std::string overlayDocText(const std::string &Template, int Body, int Ws);
std::string overlayDocName(int Doc);

/// The prepared directory's file names.
struct PrepFiles {
  std::string Dir;
  std::string paperSource(int I) const {
    return Dir + "/paper_" + std::to_string(I) + ".cs";
  }
  std::string paperQueries() const { return Dir + "/paper_queries.tsv"; }
  std::string paintNet() const { return Dir + "/paintnet.cs"; }
  std::string editTarget() const { return Dir + "/edit_target.cs"; }
  std::string editQueries() const { return Dir + "/edit_queries.tsv"; }
  std::string baseSource() const { return Dir + "/ws_base.cs"; }
  std::string baseSnapshot() const { return Dir + "/ws_base.snap"; }
  std::string overlayTemplate(int D) const {
    return Dir + "/ws_doc_" + std::to_string(D) + ".cs";
  }
  std::string wsQueries() const { return Dir + "/ws_queries.tsv"; }
  std::string mix() const { return Dir + "/mix.tsv"; }
  std::string inputs() const { return Dir + "/inputs.tsv"; }
};

} // namespace pb

#endif // PETALBENCH_INPUTS_H
