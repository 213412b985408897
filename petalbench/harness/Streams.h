//===- petalbench/harness/Streams.h - Seeded request streams --------------===//
//
// The request streams of the two petald workloads. A stream is drawn from
// its seed and the fixed query pool alone, block by block, and every block
// holds an exact mix, so every seed asks for the same work in another
// order.
//
//===----------------------------------------------------------------------===//

#ifndef PETALBENCH_STREAMS_H
#define PETALBENCH_STREAMS_H

#include "Inputs.h"
#include "Util.h"

#include <set>
#include <string>
#include <vector>

namespace pb {

enum class EditKind { Body, Noop, Sig };
const char *routeOf(EditKind K);

struct Req {
  bool IsEdit = false;
  int Doc = 0;     ///< document index (0 on edit_storm)
  int Query = -1;  ///< pool index of a completion
  bool Explain = false;
  bool Repeat = false; ///< repeats a (doc, version, query) already answered
  EditKind Kind = EditKind::Body;
  int Sig = 0, Body = 0, Ws = 0; ///< document state the request sees
  int64_t Version = 1;
};

/// edit_storm: blocks of 20 edits (15 body, 2 whitespace, 3 signature) in
/// seeded order, each followed by three completions: the fewest that give
/// p99 its 1000 samples in a 30-s run. The block's 60 completions split
/// among the families by the measured mix \p Mix and come in seeded order.
/// Queries cycle through each family's pool in seeded order, so every
/// query is asked equally often.
class EditStream {
public:
  static constexpr int BodyPerBlock = 15, NoopPerBlock = 2, SigPerBlock = 3,
                       AfterEdit = 3;
  EditStream(uint64_t Seed, const std::vector<PoolQuery> &Pool,
             const FamilyCounts &Mix);
  void nextBlock(std::vector<Req> &Out);

private:
  int draw(int Family);

  Rng R;
  FamilyCounts PerBlock;
  std::vector<int> ByFamily[NumFamilies];
  std::vector<int> Cycle[NumFamilies]; ///< the rest of the current cycle
  int Sig = 0, Body = 0, Ws = 0;
  int64_t Version = 1;
};

/// workspace_serve: blocks of 20 requests over 16 overlay documents: 12
/// fresh plain completions split among the families by the measured mix
/// \p Mix, 4 plain repeats the result cache serves, 1 fresh explain
/// completion (its family rotating by block), 2 body edits and 1
/// whitespace edit. Consecutive requests go to distinct documents.
class WsStream {
public:
  static constexpr int Fresh = 12, Repeats = 4, Explains = 1, BodyEdits = 2,
                       WsEdits = 1;
  WsStream(uint64_t Seed, const std::vector<PoolQuery> &Pool,
           const FamilyCounts &Mix);
  void nextBlock(std::vector<Req> &Out);

private:
  struct DocState {
    int Body = 0, Ws = 0;
    int64_t Version = 1;
    std::set<int> Asked; ///< answered on the current body version
    std::vector<int> ByFamily[NumFamilies];
  };
  enum Slot { Fresh0, Fresh1, Fresh2, Fresh3, Repeat, Explain, BodyEdit,
              WsEdit };
  bool emit(Slot S, bool Relax, std::vector<Req> &Out);
  bool recent(int Doc) const;

  Rng R;
  FamilyCounts FreshPerBlock;
  std::vector<DocState> Docs;
  int Last1 = -1, Last2 = -1;
  uint64_t Blocks = 0;
};

/// Document index of a workspace pool key ("d05.method.01" -> 5).
int docOfKey(const std::string &Key);

} // namespace pb

#endif // PETALBENCH_STREAMS_H
