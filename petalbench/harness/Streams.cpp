//===- petalbench/harness/Streams.cpp -------------------------------------===//

#include "Streams.h"

#include <cstdlib>

namespace pb {

const char *routeOf(EditKind K) {
  switch (K) {
  case EditKind::Body:
    return "incremental-body";
  case EditKind::Noop:
    return "incremental-noop";
  case EditKind::Sig:
    return "full";
  }
  return "?";
}

int docOfKey(const std::string &Key) {
  return Key.size() > 1 && Key[0] == 'd' ? std::atoi(Key.c_str() + 1) : 0;
}

EditStream::EditStream(uint64_t Seed, const std::vector<PoolQuery> &Pool,
                       const FamilyCounts &Mix)
    : R(Seed), PerBlock(apportion(
                   Mix, (BodyPerBlock + NoopPerBlock + SigPerBlock) *
                            AfterEdit)) {
  for (size_t I = 0; I != Pool.size(); ++I)
    ByFamily[Pool[I].Family].push_back(static_cast<int>(I));
}

void EditStream::nextBlock(std::vector<Req> &Out) {
  std::vector<EditKind> Kinds;
  Kinds.insert(Kinds.end(), BodyPerBlock, EditKind::Body);
  Kinds.insert(Kinds.end(), NoopPerBlock, EditKind::Noop);
  Kinds.insert(Kinds.end(), SigPerBlock, EditKind::Sig);
  R.shuffle(Kinds);
  std::vector<int> Families;
  for (int F = 0; F != NumFamilies; ++F)
    if (!ByFamily[F].empty())
      Families.insert(Families.end(), PerBlock[F], F);
  R.shuffle(Families);
  size_t NextFamily = 0;
  for (EditKind K : Kinds) {
    switch (K) {
    case EditKind::Body:
      Body = (Body + 1 + static_cast<int>(R.below(EditBodyVariants - 1))) %
             EditBodyVariants;
      break;
    case EditKind::Noop:
      Ws = 1 - Ws;
      break;
    case EditKind::Sig:
      Sig = (Sig + 1 + static_cast<int>(R.below(EditSigVariants - 1))) %
            EditSigVariants;
      break;
    }
    Req E;
    E.IsEdit = true;
    E.Kind = K;
    E.Sig = Sig;
    E.Body = Body;
    E.Ws = Ws;
    E.Version = ++Version;
    Out.push_back(E);
    for (int I = 0; I != AfterEdit && NextFamily != Families.size(); ++I) {
      Req Q = E;
      Q.IsEdit = false;
      Q.Query = draw(Families[NextFamily++]);
      Out.push_back(Q);
    }
  }
}

int EditStream::draw(int Family) {
  if (Cycle[Family].empty()) {
    Cycle[Family] = ByFamily[Family];
    R.shuffle(Cycle[Family]);
  }
  int Q = Cycle[Family].back();
  Cycle[Family].pop_back();
  return Q;
}

WsStream::WsStream(uint64_t Seed, const std::vector<PoolQuery> &Pool,
                   const FamilyCounts &Mix)
    : R(Seed), FreshPerBlock(apportion(Mix, Fresh)), Docs(OverlayDocs) {
  for (size_t I = 0; I != Pool.size(); ++I)
    Docs[docOfKey(Pool[I].Key)].ByFamily[Pool[I].Family].push_back(
        static_cast<int>(I));
}

bool WsStream::recent(int Doc) const { return Doc == Last1 || Doc == Last2; }

bool WsStream::emit(Slot S, bool Relax, std::vector<Req> &Out) {
  Req Q;
  auto Push = [&](int D) {
    Q.Doc = D;
    Q.Body = Docs[D].Body;
    Q.Ws = Docs[D].Ws;
    Q.Version = Docs[D].Version;
    Out.push_back(Q);
    Last2 = Last1;
    Last1 = D;
    return true;
  };
  if (S == BodyEdit || S == WsEdit) {
    std::vector<int> Cand;
    for (int D = 0; D != OverlayDocs; ++D)
      if (Relax || !recent(D))
        Cand.push_back(D);
    int D = Cand[R.below(Cand.size())];
    DocState &St = Docs[D];
    Q.IsEdit = true;
    if (S == BodyEdit) {
      Q.Kind = EditKind::Body;
      St.Body = (St.Body + 1 +
                 static_cast<int>(R.below(OverlayBodyVariants - 1))) %
                OverlayBodyVariants;
      St.Asked.clear();
    } else {
      Q.Kind = EditKind::Noop;
      St.Ws = 1 - St.Ws;
    }
    ++St.Version;
    return Push(D);
  }
  if (S == Repeat) {
    std::vector<std::pair<int, int>> Cand;
    for (int D = 0; D != OverlayDocs; ++D)
      if (Relax || !recent(D))
        for (int Qi : Docs[D].Asked)
          Cand.emplace_back(D, Qi);
    if (Cand.empty())
      return false;
    auto [D, Qi] = Cand[R.below(Cand.size())];
    Q.Query = Qi;
    Q.Repeat = true;
    return Push(D);
  }
  // A fresh completion: a query not yet answered on the document's current
  // body version, so the result cache cannot serve it.
  int F = S == Explain ? static_cast<int>(Blocks % NumFamilies)
                       : static_cast<int>(S - Fresh0);
  std::vector<std::pair<int, int>> Cand;
  for (int D = 0; D != OverlayDocs; ++D)
    if (Relax || !recent(D))
      for (int Qi : Docs[D].ByFamily[F])
        if (!Docs[D].Asked.count(Qi))
          Cand.emplace_back(D, Qi);
  if (Cand.empty())
    return false;
  auto [D, Qi] = Cand[R.below(Cand.size())];
  Q.Query = Qi;
  Q.Explain = S == Explain;
  Docs[D].Asked.insert(Qi);
  return Push(D);
}

void WsStream::nextBlock(std::vector<Req> &Out) {
  std::vector<Slot> Slots;
  for (int F = 0; F != NumFamilies; ++F)
    Slots.insert(Slots.end(), FreshPerBlock[F],
                 static_cast<Slot>(Fresh0 + F));
  Slots.insert(Slots.end(), Repeats, Repeat);
  Slots.insert(Slots.end(), Explains, Explain);
  Slots.insert(Slots.end(), BodyEdits, BodyEdit);
  Slots.insert(Slots.end(), WsEdits, WsEdit);
  R.shuffle(Slots);
  ++Blocks;
  for (size_t I = 0; I != Slots.size(); ++I) {
    if (emit(Slots[I], false, Out))
      continue;
    // No candidate under the distinct-document rule (or, for a repeat,
    // nothing answered yet): serve a later slot of the block first, else
    // relax the rule. The block's mix never changes.
    bool Swapped = false;
    for (size_t J = I + 1; J != Slots.size() && !Swapped; ++J) {
      if (Slots[J] == Slots[I])
        continue;
      std::swap(Slots[I], Slots[J]);
      Swapped = emit(Slots[I], false, Out);
      if (!Swapped)
        std::swap(Slots[I], Slots[J]);
    }
    if (!Swapped)
      emit(Slots[I], true, Out);
  }
}

} // namespace pb
