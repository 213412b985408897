//===- petalbench/harness/Util.h - Timing, digests, JSON, spans ------------===//
//
// Part of the petal benchmark. Everything here is independent of petal's own
// code: the seeded RNG, the percentile rule, the answer digests, the JSON
// reader the load client parses responses with, and the span recorder. A
// change to petal therefore cannot change how the benchmark draws, times or
// checks its work.
//
//===----------------------------------------------------------------------===//

#ifndef PETALBENCH_UTIL_H
#define PETALBENCH_UTIL_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double usSince(Clock::time_point T0, Clock::time_point T1) {
  return std::chrono::duration<double, std::micro>(T1 - T0).count();
}
inline double nowUs() {
  static const Clock::time_point Origin = Clock::now();
  return usSince(Origin, Clock::now());
}

/// SplitMix64: the benchmark's only source of randomness.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

/// FNV-1a 64-bit, printed as 16 hex digits.
uint64_t fnv1a(std::string_view S);
std::string hex64(uint64_t V);
inline std::string digestOf(std::string_view S) { return hex64(fnv1a(S)); }

/// One answered completion in canonical form. An answer is digested as the
/// lines `expr<TAB>score[<TAB>terms]`, so a reference stays valid across
/// changes to the JSON encoding or field order.
struct AnswerItem {
  std::string Expr;
  long long Score = 0;
  std::string Terms; ///< "a=0,d=1,...,sub=2" for explain answers, else empty
};
std::string canonicalAnswer(const std::vector<AnswerItem> &Items);

/// Nearest-rank percentile with the ten-samples-beyond rule: a percentile
/// is usable only if at least ten samples lie strictly beyond its rank.
struct Pctl {
  double Value = 0;
  size_t Samples = 0;
  size_t Beyond = 0;
  bool usable() const { return Beyond >= 10; }
};
Pctl percentile(std::vector<double> V, double Q);
double median(std::vector<double> V);
double mean(const std::vector<double> &V);
/// Smallest sample count for which percentile \p Q has ten samples beyond.
size_t samplesNeededFor(double Q);

/// A fixed, petal-independent branchy hash-and-sort kernel; returns its
/// wall time in microseconds. Timed before, between the segments of, and
/// after each timed phase so a slow host phase can be told from a program
/// change.
double hostReferenceUs();
/// Median of \p Reps kernel runs.
double hostReference(int Reps = 5);

/// VmHWM (peak resident set) of process \p Pid (0 = self), in MiB.
double peakRssMb(int Pid = 0);

/// A minimal JSON reader for the load client: numbers, strings, arrays,
/// objects, literals. Object members keep their order.
struct JVal {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } K = Null;
  bool B = false;
  double N = 0;
  std::string S;
  std::vector<JVal> A;
  std::vector<std::pair<std::string, JVal>> O;

  const JVal *get(std::string_view Key) const;
  double num(std::string_view Key, double Default = 0) const;
  std::string str(std::string_view Key) const;
};
bool parseJson(std::string_view Text, JVal &Out);
/// Quotes \p S as a JSON string literal.
std::string jsonQuote(std::string_view S);

/// Canonical answer text of a petald completions array.
std::string canonicalFromJson(const JVal &Completions);

/// Spans recorded in memory and written as Chrome trace events at the end.
/// A span covers one call into a petal module's public function; Req ties
/// the spans of one request together, Parent names the enclosing span.
class Tracer {
public:
  bool On = false;

  struct Span {
    uint32_t Name;
    int32_t Parent;
    int64_t Req;
    double StartUs, DurUs;
  };

  /// Opens a span; returns its index (or -1 when tracing is off).
  int begin(const char *Name, int64_t Req = -1);
  void end(int Idx);
  /// Records a span timed by the caller (e.g. a round trip).
  void record(const char *Name, double StartUs, double DurUs, int64_t Req);

  /// Self time of every span named \p Name from span \p From on: duration
  /// minus the part its child spans cover.
  std::vector<double> selfTimes(const std::string &Name,
                                size_t From = 0) const;
  size_t size() const { return Spans.size(); }

  bool writeChrome(const std::string &Path) const;

private:
  uint32_t intern(const char *Name);
  std::vector<Span> Spans;
  std::vector<int> Open;
  std::vector<std::string> Names;
  std::map<std::string, uint32_t> Ids;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const char *Name, int64_t Req = -1)
      : T(T), Idx(T.begin(Name, Req)) {}
  ~Scope() { T.end(Idx); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int Idx;
};

/// Reads a whole file; false if unreadable.
bool readFile(const std::string &Path, std::string &Out);
bool writeFile(const std::string &Path, std::string_view Data);
/// Splits \p Line on tabs.
std::vector<std::string> splitTabs(const std::string &Line);

} // namespace pb

#endif // PETALBENCH_UTIL_H
