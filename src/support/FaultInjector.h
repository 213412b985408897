//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, seed-driven fault injector for the robustness tests and
/// the chaos CI leg. Injection points are compiled into the production
/// binary but guarded by a single relaxed atomic load (armed()), so a
/// disarmed daemon pays one predictable branch per site and nothing else.
///
/// Determinism is the design center: whether the Nth occurrence of a fault
/// fires depends only on (seed, fault kind, N) — never on wall clock,
/// thread ids, or rand(). A chaos run that crashes can therefore be
/// replayed exactly by re-arming with the same seed, even though the
/// *interleaving* of occurrences across threads still varies. Each fault
/// kind keeps its own occurrence counter, so enabling one fault never
/// shifts another's schedule.
///
/// Arming:
///  * programmatically: FaultInjector::instance().arm(Seed, Permille, Mask)
///  * from a spec string (the --faults flag):  "seed[:permille[:names]]"
///    where names is a comma list of fault names (or "all"), e.g.
///    "42", "42:250", "42:1000:build,snapshot-crc".
///  * from the PETAL_FAULTS environment variable (same spec grammar),
///    consulted once when the singleton is first touched.
///
/// Every injection site pairs with a recovery path (DESIGN.md §15);
/// noteRecovered() is called where that path engages, so
/// injectedTotal() == recoveredTotal() after a clean run is the contract
/// the chaos tests assert. Both totals surface in $/stats "health".
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_SUPPORT_FAULTINJECTOR_H
#define PETAL_SUPPORT_FAULTINJECTOR_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace petal {

/// The injectable fault kinds, one per injection point family.
enum class Fault : unsigned {
  TransportShortRead = 0, ///< a frame payload read returns fewer bytes
  TransportEintr,         ///< an fd read/write is interrupted (EINTR)
  TransportGarbageFrame,  ///< the reader yields a non-JSON payload
  SnapshotTruncate,       ///< the snapshot image appears half its size
  SnapshotCrcFlip,        ///< one payload bit of the image is flipped
  SnapshotMmapFail,       ///< mmap is unavailable; buffered read instead
  BuildThrow,             ///< a document build throws mid-flight
  OverlayBuild,           ///< an overlay build fails before completion
};
inline constexpr unsigned NumFaults = 8;

inline const char *faultName(Fault F) {
  switch (F) {
  case Fault::TransportShortRead: return "transport-short-read";
  case Fault::TransportEintr: return "transport-eintr";
  case Fault::TransportGarbageFrame: return "transport-garbage";
  case Fault::SnapshotTruncate: return "snapshot-truncate";
  case Fault::SnapshotCrcFlip: return "snapshot-crc";
  case Fault::SnapshotMmapFail: return "snapshot-mmap";
  case Fault::BuildThrow: return "build";
  case Fault::OverlayBuild: return "overlay";
  }
  return "unknown";
}

/// The exception type every throwing injection site uses, so recovery
/// paths can tell a deliberate fault from a genuine bug when deciding
/// whether a degradation (as opposed to an error report) is in order.
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(const std::string &What)
      : std::runtime_error("injected fault: " + What) {}
};

class FaultInjector {
public:
  static FaultInjector &instance() {
    static FaultInjector I;
    return I;
  }

  /// The one check production hot paths pay: a relaxed atomic load.
  static bool armed() {
    return instance().IsArmed.load(std::memory_order_relaxed);
  }

  /// Arms with \p Permille out-of-1000 firing rate for every fault whose
  /// bit is set in \p Mask (bit index = enum value). Resets all counters.
  void arm(uint64_t SeedIn, unsigned PermilleIn,
           uint32_t Mask = ~uint32_t(0)) {
    Seed = SeedIn;
    Permille = PermilleIn > 1000 ? 1000 : PermilleIn;
    EnabledMask = Mask;
    for (unsigned I = 0; I != NumFaults; ++I) {
      Occurred[I].store(0, std::memory_order_relaxed);
      Injected[I].store(0, std::memory_order_relaxed);
      Recovered[I].store(0, std::memory_order_relaxed);
    }
    IsArmed.store(true, std::memory_order_release);
  }

  void disarm() { IsArmed.store(false, std::memory_order_release); }

  /// Parses "seed[:permille[:names]]" and arms. Returns false (with a
  /// message) on a malformed spec.
  bool armFromSpec(const std::string &Spec, std::string &Error) {
    uint64_t SeedV = 0;
    unsigned PermilleV = 100;
    uint32_t Mask = ~uint32_t(0);
    size_t C1 = Spec.find(':');
    std::string SeedStr = Spec.substr(0, C1);
    if (SeedStr.empty() || !parseU64(SeedStr, SeedV)) {
      Error = "fault spec needs a numeric seed, got '" + Spec + "'";
      return false;
    }
    if (C1 != std::string::npos) {
      size_t C2 = Spec.find(':', C1 + 1);
      std::string PermStr = Spec.substr(C1 + 1, C2 == std::string::npos
                                                    ? std::string::npos
                                                    : C2 - C1 - 1);
      uint64_t P = 0;
      if (PermStr.empty() || !parseU64(PermStr, P) || P > 1000) {
        Error = "fault permille must be in [0, 1000], got '" + PermStr + "'";
        return false;
      }
      PermilleV = static_cast<unsigned>(P);
      if (C2 != std::string::npos) {
        Mask = 0;
        std::string Names = Spec.substr(C2 + 1);
        size_t Pos = 0;
        while (Pos <= Names.size()) {
          size_t Comma = Names.find(',', Pos);
          std::string Name = Names.substr(
              Pos, Comma == std::string::npos ? std::string::npos
                                              : Comma - Pos);
          if (Name == "all") {
            Mask = ~uint32_t(0);
          } else {
            bool Found = false;
            for (unsigned I = 0; I != NumFaults; ++I)
              if (Name == faultName(static_cast<Fault>(I))) {
                Mask |= 1u << I;
                Found = true;
              }
            if (!Found) {
              Error = "unknown fault name '" + Name + "'";
              return false;
            }
          }
          if (Comma == std::string::npos)
            break;
          Pos = Comma + 1;
        }
      }
    }
    arm(SeedV, PermilleV, Mask);
    return true;
  }

  /// Should this occurrence of \p F fire? Counts the occurrence either
  /// way; bumps the injected counter when it fires.
  bool fire(Fault F) {
    if (!IsArmed.load(std::memory_order_acquire))
      return false;
    unsigned I = static_cast<unsigned>(F);
    if (!(EnabledMask & (1u << I)))
      return false;
    uint64_t N = Occurred[I].fetch_add(1, std::memory_order_relaxed);
    // splitmix64 over (seed, fault, occurrence): deterministic, well-mixed,
    // no shared RNG state to contend on.
    uint64_t X = Seed ^ (uint64_t(I + 1) * 0x9e3779b97f4a7c15ull) ^
                 (N * 0xbf58476d1ce4e5b9ull);
    X ^= X >> 30;
    X *= 0xbf58476d1ce4e5b9ull;
    X ^= X >> 27;
    X *= 0x94d049bb133111ebull;
    X ^= X >> 31;
    if (X % 1000 >= Permille)
      return false;
    Injected[I].fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Records that the degradation path for \p F engaged cleanly.
  void noteRecovered(Fault F) {
    Recovered[static_cast<unsigned>(F)].fetch_add(1,
                                                  std::memory_order_relaxed);
  }

  uint64_t injected(Fault F) const {
    return Injected[static_cast<unsigned>(F)].load(std::memory_order_relaxed);
  }
  uint64_t recovered(Fault F) const {
    return Recovered[static_cast<unsigned>(F)].load(
        std::memory_order_relaxed);
  }
  uint64_t injectedTotal() const {
    uint64_t T = 0;
    for (unsigned I = 0; I != NumFaults; ++I)
      T += Injected[I].load(std::memory_order_relaxed);
    return T;
  }
  uint64_t recoveredTotal() const {
    uint64_t T = 0;
    for (unsigned I = 0; I != NumFaults; ++I)
      T += Recovered[I].load(std::memory_order_relaxed);
    return T;
  }

private:
  FaultInjector() {
    if (const char *Spec = std::getenv("PETAL_FAULTS")) {
      std::string Error;
      armFromSpec(Spec, Error); // a bad env spec leaves the injector off
    }
  }

  static bool parseU64(const std::string &S, uint64_t &Out) {
    if (S.empty())
      return false;
    uint64_t V = 0;
    for (char C : S) {
      if (C < '0' || C > '9')
        return false;
      V = V * 10 + static_cast<uint64_t>(C - '0');
    }
    Out = V;
    return true;
  }

  std::atomic<bool> IsArmed{false};
  uint64_t Seed = 0;
  unsigned Permille = 0;
  uint32_t EnabledMask = ~uint32_t(0);
  std::atomic<uint64_t> Occurred[NumFaults] = {};
  std::atomic<uint64_t> Injected[NumFaults] = {};
  std::atomic<uint64_t> Recovered[NumFaults] = {};
};

} // namespace petal

#endif // PETAL_SUPPORT_FAULTINJECTOR_H
