//===- petalbench/harness/Util.cpp ----------------------------------------===//

#include "Util.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace pb {

uint64_t fnv1a(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string canonicalAnswer(const std::vector<AnswerItem> &Items) {
  std::string Out;
  for (const AnswerItem &I : Items) {
    Out += I.Expr;
    Out += '\t';
    Out += std::to_string(I.Score);
    if (!I.Terms.empty()) {
      Out += '\t';
      Out += I.Terms;
    }
    Out += '\n';
  }
  return Out;
}

Pctl percentile(std::vector<double> V, double Q) {
  Pctl P;
  P.Samples = V.size();
  if (V.empty())
    return P;
  size_t Rank = static_cast<size_t>(
      std::ceil(Q / 100.0 * static_cast<double>(V.size())));
  if (Rank == 0)
    Rank = 1;
  if (Rank > V.size())
    Rank = V.size();
  std::nth_element(V.begin(), V.begin() + static_cast<ptrdiff_t>(Rank - 1),
                   V.end());
  P.Value = V[Rank - 1];
  P.Beyond = V.size() - Rank;
  return P;
}

size_t samplesNeededFor(double Q) {
  for (size_t N = 1;; ++N) {
    size_t Rank = static_cast<size_t>(
        std::ceil(Q / 100.0 * static_cast<double>(N)));
    if (N - std::max<size_t>(Rank, 1) >= 10)
      return N;
  }
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

double hostReferenceUs() {
  // Hash 2^16 keys, sort them with a data-dependent comparator, and fold
  // the result through a branchy loop: the shape of compute the host's slow
  // phases were seen to slow down.
  constexpr size_t N = 1u << 16;
  static std::vector<uint64_t> Keys(N);
  Clock::time_point T0 = Clock::now();
  Rng R(12345);
  for (uint64_t &K : Keys) {
    K = R.next();
    K ^= fnv1a(std::string_view(reinterpret_cast<const char *>(&K),
                                sizeof(K)));
  }
  std::sort(Keys.begin(), Keys.end(), [](uint64_t A, uint64_t B) {
    return (A & 0xffff) != (B & 0xffff) ? (A & 0xffff) < (B & 0xffff)
                                        : A < B;
  });
  uint64_t Acc = 0;
  for (uint64_t K : Keys) {
    if (K & 1)
      Acc += K >> 3;
    else if (K & 2)
      Acc ^= K;
    else
      Acc = Acc * 31 + (K & 0xff);
  }
  double Us = usSince(T0, Clock::now());
  // Publish the result so the loop cannot be discarded.
  static std::atomic<uint64_t> Sink;
  Sink.store(Acc, std::memory_order_relaxed);
  return Us;
}

double hostReference(int Reps) {
  std::vector<double> V;
  for (int I = 0; I != Reps; ++I)
    V.push_back(hostReferenceUs());
  return median(V);
}

double peakRssMb(int Pid) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : std::string("/proc/self/status");
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

const JVal *JVal::get(std::string_view Key) const {
  for (const auto &[Name, V] : O)
    if (Name == Key)
      return &V;
  return nullptr;
}

double JVal::num(std::string_view Key, double Default) const {
  const JVal *V = get(Key);
  return V && V->K == Num ? V->N : Default;
}

std::string JVal::str(std::string_view Key) const {
  const JVal *V = get(Key);
  return V && V->K == Str ? V->S : std::string();
}

namespace {
struct JsonReader {
  std::string_view T;
  size_t P = 0;

  void ws() {
    while (P < T.size() && (T[P] == ' ' || T[P] == '\n' || T[P] == '\r' ||
                            T[P] == '\t'))
      ++P;
  }
  bool lit(std::string_view L) {
    if (T.substr(P, L.size()) != L)
      return false;
    P += L.size();
    return true;
  }
  static void utf8(unsigned Cp, std::string &Out) {
    if (Cp < 0x80) {
      Out += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      Out += static_cast<char>(0xC0 | (Cp >> 6));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      Out += static_cast<char>(0xE0 | (Cp >> 12));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }
  bool string(std::string &Out) {
    if (P >= T.size() || T[P] != '"')
      return false;
    ++P;
    while (P < T.size() && T[P] != '"') {
      char C = T[P++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (P >= T.size())
        return false;
      char E = T[P++];
      switch (E) {
      case 'n': Out += '\n'; break;
      case 't': Out += '\t'; break;
      case 'r': Out += '\r'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        if (P + 4 > T.size())
          return false;
        unsigned Cp = static_cast<unsigned>(
            std::strtoul(std::string(T.substr(P, 4)).c_str(), nullptr, 16));
        P += 4;
        utf8(Cp, Out);
        break;
      }
      default: Out += E; break;
      }
    }
    if (P >= T.size())
      return false;
    ++P;
    return true;
  }
  bool value(JVal &V, int Depth) {
    if (Depth > 64)
      return false;
    ws();
    if (P >= T.size())
      return false;
    char C = T[P];
    if (C == '{') {
      V.K = JVal::Obj;
      ++P;
      ws();
      if (P < T.size() && T[P] == '}') {
        ++P;
        return true;
      }
      for (;;) {
        ws();
        std::string Key;
        if (!string(Key))
          return false;
        ws();
        if (P >= T.size() || T[P] != ':')
          return false;
        ++P;
        V.O.emplace_back(std::move(Key), JVal());
        if (!value(V.O.back().second, Depth + 1))
          return false;
        ws();
        if (P < T.size() && T[P] == ',') {
          ++P;
          continue;
        }
        if (P < T.size() && T[P] == '}') {
          ++P;
          return true;
        }
        return false;
      }
    }
    if (C == '[') {
      V.K = JVal::Arr;
      ++P;
      ws();
      if (P < T.size() && T[P] == ']') {
        ++P;
        return true;
      }
      for (;;) {
        V.A.emplace_back();
        if (!value(V.A.back(), Depth + 1))
          return false;
        ws();
        if (P < T.size() && T[P] == ',') {
          ++P;
          continue;
        }
        if (P < T.size() && T[P] == ']') {
          ++P;
          return true;
        }
        return false;
      }
    }
    if (C == '"') {
      V.K = JVal::Str;
      return string(V.S);
    }
    if (lit("true")) {
      V.K = JVal::Bool;
      V.B = true;
      return true;
    }
    if (lit("false")) {
      V.K = JVal::Bool;
      return true;
    }
    if (lit("null"))
      return true;
    size_t Start = P;
    while (P < T.size() && (std::strchr("+-.eE", T[P]) ||
                            (T[P] >= '0' && T[P] <= '9')))
      ++P;
    if (P == Start)
      return false;
    V.K = JVal::Num;
    V.N = std::strtod(std::string(T.substr(Start, P - Start)).c_str(),
                      nullptr);
    return true;
  }
};
} // namespace

bool parseJson(std::string_view Text, JVal &Out) {
  JsonReader R{Text};
  Out = JVal();
  if (!R.value(Out, 0))
    return false;
  R.ws();
  return R.P == Text.size();
}

std::string jsonQuote(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

std::string canonicalFromJson(const JVal &Completions) {
  std::vector<AnswerItem> Items;
  for (const JVal &C : Completions.A) {
    AnswerItem I;
    I.Expr = C.str("expr");
    I.Score = static_cast<long long>(C.num("score"));
    if (const JVal *Terms = C.get("terms")) {
      std::vector<std::pair<std::string, long long>> Kv;
      for (const auto &[K, V] : Terms->O)
        Kv.emplace_back(K, static_cast<long long>(V.N));
      std::sort(Kv.begin(), Kv.end());
      for (const auto &[K, V] : Kv)
        I.Terms += K + "=" + std::to_string(V) + ",";
      I.Terms += "sub=" + std::to_string(
                              static_cast<long long>(C.num("subexpr")));
    }
    Items.push_back(std::move(I));
  }
  return canonicalAnswer(Items);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

uint32_t Tracer::intern(const char *Name) {
  auto It = Ids.find(Name);
  if (It != Ids.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.emplace_back(Name);
  Ids.emplace(Name, Id);
  return Id;
}

int Tracer::begin(const char *Name, int64_t Req) {
  if (!On)
    return -1;
  Span S;
  S.Name = intern(Name);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Req = Req < 0 && S.Parent >= 0 ? Spans[S.Parent].Req : Req;
  S.StartUs = nowUs();
  S.DurUs = -1;
  Spans.push_back(S);
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void Tracer::end(int Idx) {
  if (Idx < 0)
    return;
  Spans[Idx].DurUs = nowUs() - Spans[Idx].StartUs;
  if (!Open.empty() && Open.back() == Idx)
    Open.pop_back();
}

void Tracer::record(const char *Name, double StartUs, double DurUs,
                    int64_t Req) {
  if (!On)
    return;
  Spans.push_back({intern(Name), Open.empty() ? -1 : Open.back(), Req,
                   StartUs, DurUs});
}

std::vector<double> Tracer::selfTimes(const std::string &Name,
                                      size_t From) const {
  std::vector<double> Out;
  auto It = Ids.find(Name);
  if (It == Ids.end())
    return Out;
  std::vector<double> Child(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0 && S.DurUs >= 0)
      Child[S.Parent] += S.DurUs;
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Name == It->second && Spans[I].DurUs >= 0)
      Out.push_back(Spans[I].DurUs - Child[I]);
  return Out;
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::string Out = "{\"traceEvents\":[\n";
  char Buf[256];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.DurUs < 0)
      continue;
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"req\":%lld}}",
                  jsonQuote(Names[S.Name]).c_str(), S.StartUs, S.DurUs, I,
                  S.Parent, static_cast<long long>(S.Req));
    Out += Buf;
    Out += I + 1 == Spans.size() ? "\n" : ",\n";
  }
  if (!Out.empty() && Out[Out.size() - 2] == ',')
    Out.erase(Out.size() - 2, 1);
  Out += "]}\n";
  return writeFile(Path, Out);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

bool writeFile(const std::string &Path, std::string_view Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  return static_cast<bool>(Out);
}

std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> F;
  size_t Start = 0;
  for (;;) {
    size_t Tab = Line.find('\t', Start);
    F.push_back(Line.substr(Start, Tab == std::string::npos
                                       ? std::string::npos
                                       : Tab - Start));
    if (Tab == std::string::npos)
      return F;
    Start = Tab + 1;
  }
}

} // namespace pb
