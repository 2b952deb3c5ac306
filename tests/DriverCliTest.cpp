//===- tests/DriverCliTest.cpp - fgc command-line behavior ----------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
//
// The driver's command-line contract, exercised against the real binary
// (its path arrives via the FG_FGC_PATH compile definition):
//
//   * `--help` / `-h` print the usage text to *stdout* and exit 0;
//   * a bad invocation (no input, unknown flag, malformed option)
//     prints the usage text to *stderr* and exits 2;
//   * both binaries' `--help` backend tables are generated from the
//     one registry (support/Backends.h), so registering an engine
//     without surfacing it in the help is a test failure;
//   * `--backend=aot` without a usable host compiler degrades
//     gracefully: exit 2 with a one-line actionable diagnostic;
//   * under `-O2`, tree and vm run both the raw and the specialized
//     term on the selected engine, with unchanged stdout.
//
//===----------------------------------------------------------------------===//

#include "aot/Toolchain.h"
#include "support/Backends.h"
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <regex>
#include <string>
#include <sys/wait.h>

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Stdout;
  std::string Stderr;
};

/// Runs \p Cmd through the shell, appending its output to \p Out.
int capture(const std::string &Cmd, std::string &Out) {
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr) << Cmd;
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Runs `fgc <Args>` twice, capturing the two output streams separately.
RunResult runFgc(const std::string &Args) {
  RunResult R;
  std::string Base = std::string(FG_FGC_PATH) + " " + Args;
  R.ExitCode = capture(Base + " 2>/dev/null", R.Stdout);
  int Code2 = capture(Base + " 2>&1 1>/dev/null", R.Stderr);
  EXPECT_EQ(R.ExitCode, Code2) << "fgc " << Args
                               << ": exit code differs between runs";
  return R;
}

TEST(DriverCliTest, HelpGoesToStdoutAndExitsZero) {
  RunResult R = runFgc("--help");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("usage: fgc"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("--batch"), std::string::npos) << R.Stdout;
  EXPECT_TRUE(R.Stderr.empty()) << R.Stderr;
}

TEST(DriverCliTest, ShortHelpMatchesLongHelp) {
  RunResult R = runFgc("-h");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("usage: fgc"), std::string::npos) << R.Stdout;
  EXPECT_TRUE(R.Stderr.empty()) << R.Stderr;
}

TEST(DriverCliTest, NoInputIsUsageErrorOnStderr) {
  RunResult R = runFgc("");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("usage: fgc"), std::string::npos) << R.Stderr;
  EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
}

TEST(DriverCliTest, UnknownFlagIsUsageError) {
  RunResult R = runFgc("--definitely-not-a-flag");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("usage: fgc"), std::string::npos) << R.Stderr;
}

TEST(DriverCliTest, MultipleFilesWithoutBatchIsUsageError) {
  RunResult R = runFgc("a.fg b.fg");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("usage: fgc"), std::string::npos) << R.Stderr;
}

TEST(DriverCliTest, MalformedJobsFlagIsUsageError) {
  RunResult R = runFgc("--batch -j nope a.fg");
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(DriverCliTest, StdinProgramStillWorks) {
  std::string Out;
  int Code = capture("echo 'let x = 20 in iadd(x, 1)' | " +
                         std::string(FG_FGC_PATH) + " - 2>/dev/null",
                     Out);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Out.find("value: 21"), std::string::npos) << Out;
}

// Every registered backend (and its description) must appear in the
// generated `--help` table of *both* binaries.  This is the guard the
// registry comment promises: adding an engine without documenting it
// fails here.
TEST(DriverCliTest, FgcHelpListsEveryRegisteredBackend) {
  RunResult R = runFgc("--help");
  ASSERT_EQ(R.ExitCode, 0);
  for (const fg::BackendInfo &B : fg::backendRegistry()) {
    EXPECT_NE(R.Stdout.find(B.Name), std::string::npos)
        << "backend `" << B.Name << "` missing from fgc --help";
    EXPECT_NE(R.Stdout.find(B.Description), std::string::npos)
        << "description of `" << B.Name << "` missing from fgc --help";
  }
}

TEST(DriverCliTest, FgcdHelpListsEveryRegisteredBackend) {
  std::string Out;
  int Code = capture(std::string(FG_FGCD_PATH) + " --help 2>/dev/null", Out);
  ASSERT_EQ(Code, 0);
  for (const fg::BackendInfo &B : fg::backendRegistry()) {
    EXPECT_NE(Out.find(B.Name), std::string::npos)
        << "backend `" << B.Name << "` missing from fgcd --help";
    EXPECT_NE(Out.find(B.Description), std::string::npos)
        << "description of `" << B.Name << "` missing from fgcd --help";
  }
}

TEST(DriverCliTest, UnknownBackendNamesTheRegistry) {
  // `closure` named the deleted closure-compiling engine; it is now as
  // unknown as any other name.
  for (const char *Name : {"bogus", "closure"}) {
    std::string Err;
    int Code = capture("echo 1 | " + std::string(FG_FGC_PATH) +
                           " --backend=" + Name + " - 2>&1 1>/dev/null",
                       Err);
    EXPECT_EQ(Code, 2) << Name;
    EXPECT_NE(Err.find(fg::backendNameList()), std::string::npos) << Err;
    EXPECT_NE(Err.find("tree, vm, aot"), std::string::npos) << Err;
  }
}

// Graceful degradation: no usable host compiler is not a crash and not
// a silent fallback — it is exit 2 with a one-line diagnostic naming
// the way out.
TEST(DriverCliTest, AotWithoutHostCompilerIsActionableExit2) {
  std::string Err;
  int Code = capture("echo 1 | " + std::string(FG_FGC_PATH) +
                         " --backend=aot --aot-cxx=/nonexistent/cxx - "
                         "2>&1 1>/dev/null",
                     Err);
  EXPECT_EQ(Code, 2);
  EXPECT_NE(Err.find("--backend=aot is unavailable"), std::string::npos)
      << Err;
  EXPECT_NE(Err.find("/nonexistent/cxx"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// --gen-corpus and batch aggregation at scale.
//===----------------------------------------------------------------------===//

namespace fs = std::filesystem;

/// A scratch directory wiped on construction and destruction.
struct ScratchDir {
  fs::path P;
  explicit ScratchDir(const std::string &Name)
      : P(fs::temp_directory_path() / Name) {
    fs::remove_all(P);
    fs::create_directories(P);
  }
  ~ScratchDir() { fs::remove_all(P); }
  std::string str() const { return P.string(); }
};

TEST(DriverCliTest, GenCorpusIsByteIdenticalAcrossRuns) {
  ScratchDir A("fgc_cli_corpus_a"), B("fgc_cli_corpus_b");
  RunResult RA = runFgc("--gen-corpus 40 --seed 3 --out " + A.str());
  ASSERT_EQ(RA.ExitCode, 0) << RA.Stderr;
  EXPECT_NE(RA.Stdout.find("corpus: 40 modules"), std::string::npos)
      << RA.Stdout;
  RunResult RB = runFgc("--gen-corpus 40 --seed 3 --out " + B.str());
  ASSERT_EQ(RB.ExitCode, 0) << RB.Stderr;

  std::string DiffOut;
  int DiffCode =
      capture("diff -r " + A.str() + " " + B.str() + " 2>&1", DiffOut);
  EXPECT_EQ(DiffCode, 0) << "regeneration differs:\n" << DiffOut;
}

TEST(DriverCliTest, GenCorpusOutputBatchChecksWithQuietProgress) {
  ScratchDir Dir("fgc_cli_corpus_check"), Cache("fgc_cli_corpus_cache");
  ASSERT_EQ(runFgc("--gen-corpus 40 --seed 5 --out " + Dir.str()).ExitCode,
            0);
  RunResult R = runFgc("--batch -j 2 --module-cache=" + Cache.str() + " " +
                       Dir.str());
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stdout.find("batch: 40 modules, 40 checked, 0 cached"),
            std::string::npos)
      << R.Stdout;
  // Above 32 modules the per-module progress flood is suppressed; the
  // summary line carries the signal.
  EXPECT_EQ(R.Stdout.find("module m0000"), std::string::npos) << R.Stdout;
}

TEST(DriverCliTest, GenCorpusUsageErrors) {
  // --out is mandatory; zero modules and mixing with input files are
  // contradictions.
  EXPECT_EQ(runFgc("--gen-corpus 5").ExitCode, 2);
  EXPECT_EQ(runFgc("--gen-corpus 0 --out /tmp/x").ExitCode, 2);
  EXPECT_EQ(runFgc("--gen-corpus 5 --out /tmp/x a.fg").ExitCode, 2);
  EXPECT_EQ(runFgc("--gen-corpus 5 --out /tmp/x --batch").ExitCode, 2);
  EXPECT_EQ(
      runFgc("--gen-corpus 5 --out /tmp/x --corpus-shape=mobius").ExitCode,
      2);
}

TEST(DriverCliTest, BatchFailureSummaryIsDeterministicAndExitsNonzero) {
  ScratchDir Dir("fgc_cli_batch_fail"), Cache("fgc_cli_batch_fail_cache");
  auto Put = [&](const char *Name, const char *Text) {
    std::ofstream(Dir.P / Name) << Text;
  };
  Put("good.fg", "module good;\nlet g = 1 in 0\n");
  Put("bad.fg", "module bad;\niadd(1, true)\n");
  Put("apex.fg", "module apex;\nimport good;\nimport bad;\ng\n");

  std::string Cmd = "--batch -j 2 --module-cache=" + Cache.str() + " " +
                    Dir.str();
  RunResult R1 = runFgc(Cmd);
  EXPECT_EQ(R1.ExitCode, 1);
  EXPECT_NE(R1.Stdout.find(
                "batch: 3 modules, 1 checked, 0 cached, 1 failed, 1 skipped"),
            std::string::npos)
      << R1.Stdout;
  EXPECT_NE(R1.Stderr.find("module bad: error:"), std::string::npos)
      << R1.Stderr;
  EXPECT_NE(R1.Stderr.find("module apex: skipped"), std::string::npos)
      << R1.Stderr;

  // The diagnostic digest is byte-stable run over run, independent of
  // worker scheduling.  (Fresh cache, so the summary is identical too —
  // runFgc's own double execution leaves good.fgi behind.)
  fs::remove_all(Cache.P);
  fs::create_directories(Cache.P);
  RunResult R2 = runFgc(Cmd);
  EXPECT_EQ(R2.ExitCode, 1);
  EXPECT_EQ(R1.Stderr, R2.Stderr);
  EXPECT_EQ(R1.Stdout, R2.Stdout);
}

TEST(DriverCliTest, ParallelBatchChecksDeeplyNestedModules) {
  // 20,000-deep nesting overflows a default thread stack in the parser
  // and checker; every batch worker runs on the deep stack.
  ScratchDir Dir("fgc_cli_batch_deep");
  std::string Deep =
      std::string(20000, '(') + "1" + std::string(20000, ')') + "\n";
  for (const char *Name : {"d0.fg", "d1.fg", "d2.fg", "d3.fg"})
    std::ofstream(Dir.P / Name) << Deep;
  std::string Out;
  int Code = capture(std::string(FG_FGC_PATH) + " --batch -j4 --no-cache " +
                         Dir.str() + " 2>&1",
                     Out);
  // capture() reads a signal death as -1; a shell reports it as 128+N.
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("batch: 4 modules, 4 checked"), std::string::npos)
      << Out;
}

/// The `calls` count of stats timer \p Name in a --stats-json dump, 0
/// when the timer is absent.
unsigned timerCalls(const std::string &Json, const std::string &Name) {
  std::smatch M;
  std::regex Re("\"" + Name +
                "\": \\{\"nanos\": \\d+, \"calls\": (\\d+)\\}");
  return std::regex_search(Json, M, Re) ? std::stoul(M[1]) : 0;
}

/// `fgc -O2 <Extra> --validate=passes` on the fglib root: the per-pass
/// validation checks the one optimizer run that the `-O2` report, the
/// tree cross-check and (on aot) the executed term all reuse.
void expectFglibSpecializesOnce(const std::string &Extra) {
  RunResult R = runFgc("-O2 " + Extra +
                       " --validate=passes --stats-json=- -I " FG_FGLIB_DIR
                       " " FG_FGLIB_DIR "/fglib.fg");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  for (const char *Line :
       {"\nvalue: (31, 36, 7, 24, true)\n", "\nspecialized: ",
        "\noptimized value: (31, 36, 7, 24, true)\n"})
    EXPECT_NE(R.Stdout.find(Line), std::string::npos) << Line;
  EXPECT_EQ(timerCalls(R.Stdout, "optimize.specialize"), 1u) << R.Stdout;
}

TEST(DriverCliTest, O2SpecializesOnceUnderPassValidation) {
  expectFglibSpecializesOnce("");
}

TEST(DriverCliTest, O2AotSpecializesOnceUnderPassValidation) {
  if (!fg::aot::toolchainAvailable())
    GTEST_SKIP() << "no host C++ compiler available";
  expectFglibSpecializesOnce("--backend=aot");
}

/// The value of stats counter \p Name in a --stats-json dump, 0 when
/// the counter is absent.
unsigned counterValue(const std::string &Json, const std::string &Name) {
  std::smatch M;
  std::regex Re("\"" + Name + "\": (\\d+)[,\n]");
  return std::regex_search(Json, M, Re) ? std::stoul(M[1]) : 0;
}

TEST(DriverCliTest, BatchParsesEachInterfaceOnce) {
  // The 3-module example: algebra <- intsum <- main, main also importing
  // algebra.  Each module instantiates every interface in its closure
  // (0 + 1 + 2 = 3 instantiations), from one parse per interface.
  ScratchDir Cache("fgc_cli_batch_parse_once");
  std::string Cmd = "--batch -j1 --stats-json=- --module-cache=" +
                    Cache.str() + " " FG_PROGRAMS_DIR "/modules";
  RunResult Cold = runFgc(Cmd);
  ASSERT_EQ(Cold.ExitCode, 0) << Cold.Stderr;
  EXPECT_NE(Cold.Stdout.find("batch: 3 modules, 3 checked"),
            std::string::npos)
      << Cold.Stdout;
  EXPECT_EQ(counterValue(Cold.Stdout, "modules.interface.parses"), 3u);
  EXPECT_EQ(timerCalls(Cold.Stdout, "modules.instantiate"), 3u);
  EXPECT_EQ(timerCalls(Cold.Stdout, "modules.serialize"), 3u);

  // runFgc ran the batch twice, so the cache is warm: every file is
  // parsed once to validate it, and nothing is instantiated.
  RunResult Warm = runFgc(Cmd);
  ASSERT_EQ(Warm.ExitCode, 0) << Warm.Stderr;
  EXPECT_NE(Warm.Stdout.find("batch: 3 modules, 0 checked, 3 cached"),
            std::string::npos)
      << Warm.Stdout;
  EXPECT_EQ(counterValue(Warm.Stdout, "modules.interface.parses"), 3u);
  EXPECT_EQ(timerCalls(Warm.Stdout, "modules.instantiate"), 0u);
}

/// The -O2 inputs: a sample program and the fglib root.
const char *const O2Inputs[] = {
    FG_PROGRAMS_DIR "/figure5_accumulate.fg",
    "-I " FG_FGLIB_DIR " " FG_FGLIB_DIR "/fglib.fg"};

TEST(DriverCliTest, O2VmRunsBothTermsOnTheVm) {
  for (const char *Input : O2Inputs) {
    RunResult Vm = runFgc(std::string("-O2 --backend=vm --stats-json=- ") +
                          Input);
    ASSERT_EQ(Vm.ExitCode, 0) << Input << "\n" << Vm.Stderr;
    // One chunk for the raw term, one for the specialized term.
    EXPECT_EQ(counterValue(Vm.Stdout, "vm.chunks.compiled"), 2u) << Input;
    EXPECT_EQ(timerCalls(Vm.Stdout, "eval.run"), 0u) << Input;
    // Everything before the stats dump matches the tree walker's -O2
    // output byte for byte.
    RunResult Tree = runFgc(std::string("-O2 ") + Input);
    ASSERT_EQ(Tree.ExitCode, 0) << Input << "\n" << Tree.Stderr;
    EXPECT_NE(Tree.Stdout.find("\noptimized value: "), std::string::npos);
    EXPECT_EQ(Vm.Stdout.substr(0, Tree.Stdout.size()), Tree.Stdout) << Input;
    EXPECT_EQ(Vm.Stdout.compare(Tree.Stdout.size(), 2, "{\n"), 0) << Input;
  }
}

TEST(DriverCliTest, O2TreeRunsBothTermsOnTheTreeWalker) {
  for (const char *Input : O2Inputs) {
    RunResult R = runFgc(std::string("-O2 --backend=tree --stats-json=- ") +
                         Input);
    ASSERT_EQ(R.ExitCode, 0) << Input << "\n" << R.Stderr;
    EXPECT_EQ(timerCalls(R.Stdout, "eval.run"), 2u) << Input;
    EXPECT_EQ(timerCalls(R.Stdout, "vm.compile"), 0u) << Input;
  }
}

} // namespace
