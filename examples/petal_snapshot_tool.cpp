//===- examples/petal_snapshot_tool.cpp - Snapshot save/inspect/check -----===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Command-line access to the snapshot store (src/snapshot):
//
//   petal_snapshot_tool --from corpus.cs out.snap   build + freeze + save
//   petal_snapshot_tool --info out.snap             header + section table
//   petal_snapshot_tool out.snap                    full validated load,
//                                                   with timings (--check)
//
// The default (check) mode is the warm-start round trip petal_serve
// performs at startup, so its timing is the number the snapshot exists to
// shrink.
//
//===----------------------------------------------------------------------===//

#include "snapshot/Snapshot.h"
#include "support/CliArgs.h"
#include "support/StrUtil.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace petal;

static int saveFrom(const std::string &SourcePath, const std::string &Out) {
  std::ifstream In(SourcePath, std::ios::binary);
  if (!In) {
    std::cerr << "error: cannot read '" << SourcePath << "'\n";
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  DiagnosticEngine Diags;
  SynFile File;
  if (!parseSourceFile(Source, File, Diags)) {
    std::ostringstream OS;
    Diags.print(OS);
    std::cerr << "error: parse failed:\n" << OS.str();
    return 1;
  }
  DocumentShape Shape = shapeOfFile(File);

  TypeSystem TS;
  Program P(TS);
  if (!resolveParsedFile(File, P, Diags)) {
    std::ostringstream OS;
    Diags.print(OS);
    std::cerr << "error: resolve failed:\n" << OS.str();
    return 1;
  }

  auto Start = std::chrono::steady_clock::now();
  CompletionIndexes Idx(P);
  Idx.freeze();
  AbsTypeSolution Solution = Idx.Infer.solve();
  double FreezeMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();

  std::string Error;
  if (!snapshot::writeSnapshot(Out, Source, Shape, Idx, Solution, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::cout << "wrote '" << Out << "': " << TS.numTypes() << " types, "
            << TS.numMethods() << " methods, freeze+solve took "
            << formatFixed(FreezeMs, 1) << " ms\n";
  return 0;
}

static int showInfo(const std::string &Path) {
  snapshot::SnapshotInfo Info;
  std::string Error;
  if (!snapshot::readSnapshotInfo(Path, Info, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  const snapshot::Header &H = Info.Hdr;
  std::cout << "snapshot '" << Path << "' (" << Info.FileBytes
            << " bytes, format v" << H.Version << ")\n"
            << "  typeGraphHash: " << H.TypeGraphHash << "\n"
            << "  codeHash:      " << H.CodeHash << "\n"
            << "  types " << H.NumTypes << ", fields " << H.NumFields
            << ", methods " << H.NumMethods << ", namespaces "
            << H.NumNamespaces << ", absVars " << H.NumAbsVars << "\n"
            << "  sections:\n";
  for (const snapshot::SectionEntry &S : Info.Sections)
    std::cout << "    " << snapshot::sectionKindName(S.Kind) << ": offset "
              << S.Offset << ", " << S.Size << " bytes, crc32 " << std::hex
              << S.Crc << std::dec << "\n";
  return 0;
}

static int checkLoad(const std::string &Path) {
  std::string Error;
  auto Snap = snapshot::loadSnapshot(Path, Error);
  if (!Snap) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::cout << "loaded '" << Path << "' in "
            << formatFixed(Snap->LoadMillis, 1) << " ms ("
            << (Snap->Mapped ? "mmap" : "buffered read") << ", "
            << Snap->Bytes << " bytes)\n"
            << "  " << Snap->TS->numTypes() << " types, "
            << Snap->TS->numMethods() << " methods, "
            << Snap->Idx->Infer.numVars() << " abstract-type vars, "
            << Snap->Solution->numClasses() << " usage classes\n"
            << "  indexes frozen: " << (Snap->Idx->frozen() ? "yes" : "no")
            << "\n";
  return 0;
}

int main(int argc, char **argv) {
  std::string FromSource;
  bool Info = false;
  std::string SnapPath;

  FlagParser Flags("petal_snapshot_tool",
                   "save, inspect, and check petal snapshot files",
                   "<snapshot-file>");
  Flags.addFlag("from", "SOURCE.cs",
                "build the corpus from SOURCE.cs and write the snapshot",
                [&](const std::string &V) {
                  FromSource = V;
                  return !FromSource.empty();
                });
  Flags.addSwitch("info", "print header + section table and exit", [&] {
    Info = true;
    return true;
  });
  Flags.addPositional("the snapshot file to write (--from) or read.",
                      [&](const std::string &V) {
                        SnapPath = V;
                        return !SnapPath.empty();
                      });
  if (!Flags.parse(argc, argv))
    return Flags.exitCode();
  if (SnapPath.empty()) {
    std::cerr << "error: a snapshot file argument is required (try "
                 "--help)\n";
    return 1;
  }

  if (!FromSource.empty())
    return saveFrom(FromSource, SnapPath);
  if (Info)
    return showInfo(SnapPath);
  return checkLoad(SnapPath);
}
