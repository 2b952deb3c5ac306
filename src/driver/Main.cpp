//===- driver/Main.cpp - The fgc command-line tool ------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver:
///
///   fgc [options] file.fg            compile and run an F_G program
///   fgc [options] -                  read the program from stdin
///   fgc --batch [options] paths...   separately check a module graph
///
/// A single file that declares `module`/`import` is automatically
/// compiled through the module loader: its imports are resolved, the
/// modules are linked into one program, and the usual pipeline runs on
/// the result.  `--batch` instead checks every module separately
/// against its dependencies' serialized `.fgi` interfaces, scheduling
/// independent modules across a thread pool; a directory argument means
/// every `.fg` file in it.
///
/// The options are documented once, in printUsage() (`fgc --help`).
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Options.h"
#include "modules/Batch.h"
#include "modules/Program.h"
#include "support/Backends.h"
#include "support/DeepStack.h"
#include "validate/Fuzz.h"
#include "validate/Validate.h"
#include "vm/Disasm.h"
#include "vm/Emit.h"
#include <algorithm>
#include <filesystem>
#include <sstream>

using namespace fg;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: fgc [options] <file.fg | ->\n"
        "       fgc --batch [options] <files-or-directories...>\n"
        "\n"
        "options:\n"
        "  --check                stop after typechecking\n"
        "  --translate            print the System F translation\n"
        "  --ast                  print the parsed program\n"
        "  --validate[=<mode>]    `off`, `translate` (re-check the\n"
        "                         translation; Theorems 1/2), or `passes`\n"
        "                         (also re-typecheck each optimizer pass);\n"
        "                         bare --validate means `passes`; default\n"
        "                         is `translate` in debug builds, `off` in\n"
        "                         release builds\n"
        "  --fuzz <n>             validate <n> generated well-typed\n"
        "                         programs across all backends\n"
        "  --seed <n>             base seed for --fuzz / --gen-corpus\n"
        "                         (default 42)\n"
        "  --direct               cross-check with the direct interpreter\n"
        "  --optimize, -O1        optimize, run the result on the selected\n"
        "                         backend (aot: on tree) and check that\n"
        "                         its value is unchanged\n"
        "  --specialize[=<lvl>]   whole-program specialization level on\n"
        "                         top of -O1: `off`, `apps` (clone\n"
        "                         polymorphic functions at concrete\n"
        "                         types), `dicts` (also devirtualize\n"
        "                         concept members), `full` (also drop\n"
        "                         dead dictionary params/fields); bare\n"
        "                         --specialize means `full`\n"
        "  -O2                    shorthand for --optimize\n"
        "                         --specialize=full: the check runs the\n"
        "                         specialized term on the selected\n"
        "                         backend\n"
        "  --backend=<name>       execution engine for the translation;\n"
        "                         one of:\n"
     << backendHelpTable("                           ")
     << "                         tree and vm run the unoptimized term\n"
        "                         (then, under -O, the optimized one);\n"
        "                         aot runs the -O2 term unless\n"
        "                         --specialize/-O2 pins a level\n"
        "  --aot-cxx=<path>       host C++ compiler for --backend=aot\n"
        "  --aot-cache=<dir>      AOT build cache directory (default\n"
        "                         ./.fgc.aot-cache or $FGC_AOT_CACHE)\n"
        "  --aot-keep-cpp         keep the generated C++ in the cache dir\n"
        "  --dump-bytecode        print the translation's VM bytecode\n"
        "  --no-superinstructions disable VM peephole fusion (for A/B;\n"
        "                         the result must be identical)\n"
        "  --batch                separately check modules (.fgi output)\n"
        "  --gen-corpus <n>       write a deterministic corpus of <n>\n"
        "                         well-typed modules into --out\n"
        "  --out <dir>            output directory for --gen-corpus\n"
        "  --corpus-shape=<s>     corpus graph shape: layered (default),\n"
        "                         chain, or fanin\n"
        "  --corpus-layers=<n>    layered-shape layer count (0 = auto)\n"
        "  --corpus-max-imports=<n>\n"
        "                         max direct imports per corpus module\n"
        "  --corpus-diamond=<p>   percent of corpus import edges that\n"
        "                         skip layers (diamond density)\n"
        "  -j <n>                 batch worker threads (0 = all cores)\n"
        "  -I <dir>               add a module search path\n"
        "  --module-cache=<dir>   directory for .fgi interface files\n"
        "  --no-cache             ignore existing .fgi files\n"
        "  --stats                print statistics to stderr on exit\n"
        "  --stats-json=<file>    write statistics as JSON (- for stdout)\n"
        "  --no-model-cache       disable checker memoization\n"
        "  --help, -h             print this help\n";
}

int usageError() {
  printUsage(std::cerr);
  return 2;
}

/// Expands batch path arguments: a directory stands for every `.fg`
/// file directly inside it, sorted by name.
bool expandBatchPaths(const std::vector<std::string> &Args,
                      std::vector<std::string> &Files) {
  namespace fs = std::filesystem;
  for (const std::string &Arg : Args) {
    std::error_code EC;
    if (fs::is_directory(Arg, EC)) {
      std::vector<std::string> Found;
      for (const auto &Entry : fs::directory_iterator(Arg, EC))
        if (Entry.path().extension() == ".fg")
          Found.push_back(Entry.path().string());
      std::sort(Found.begin(), Found.end());
      if (Found.empty()) {
        std::cerr << "fgc: error: no .fg files in `" << Arg << "`\n";
        return false;
      }
      Files.insert(Files.end(), Found.begin(), Found.end());
    } else {
      Files.push_back(Arg);
    }
  }
  return true;
}

int runBatchMode(const std::vector<std::string> &PathArgs,
                 const std::vector<std::string> &SearchPaths, unsigned Jobs,
                 const std::string &CacheDir, bool UseCache,
                 const CompileOptions &Opts) {
  std::vector<std::string> Files;
  if (!expandBatchPaths(PathArgs, Files))
    return 1;

  if (!CacheDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(CacheDir, EC);
    if (EC) {
      std::cerr << "fgc: error: cannot create module cache directory `"
                << CacheDir << "`: " << EC.message() << "\n";
      return 1;
    }
  }

  modules::ModuleLoader::Options LO;
  LO.SearchPaths = SearchPaths;
  modules::ModuleLoader Loader(LO);
  std::vector<std::string> Roots;
  for (const std::string &File : Files) {
    std::string Root, Error;
    if (!Loader.loadFile(File, Root, Error)) {
      std::cerr << "fgc: error: " << Error << "\n";
      return 1;
    }
    Roots.push_back(Root);
  }

  modules::BatchOptions BO;
  BO.Jobs = Jobs;
  BO.CacheDir = CacheDir;
  BO.UseCache = UseCache;
  BO.Verify = Opts.VerifyTranslation;
  BO.EnableModelCache = Opts.EnableModelCache;
  modules::BatchResult BR = modules::runBatch(Loader, Roots, BO);

  // Aggregate deterministically: runBatch already returns results in
  // dependency order (independent of worker scheduling), and failures
  // are re-sorted by module name so the diagnostic summary is stable
  // run over run and readable at corpus scale.
  unsigned Checked = 0, Cached = 0;
  std::vector<const modules::ModuleBuildResult *> Failed, Skipped;
  for (const modules::ModuleBuildResult &R : BR.Results) {
    if (R.Success)
      ++(R.CacheHit ? Cached : Checked);
    else if (R.Skipped)
      Skipped.push_back(&R);
    else
      Failed.push_back(&R);
  }

  // Per-module progress lines are useful at example scale and an
  // unreadable flood over a generated corpus; the summary line and the
  // sorted failure digest carry the signal either way.
  if (BR.Results.size() <= 32)
    for (const modules::ModuleBuildResult &R : BR.Results)
      if (R.Success)
        std::cout << "module " << R.Module << ": "
                  << (R.CacheHit ? "cached" : "checked") << "\n";

  auto ByName = [](const modules::ModuleBuildResult *A,
                   const modules::ModuleBuildResult *B) {
    return A->Module < B->Module;
  };
  std::sort(Failed.begin(), Failed.end(), ByName);
  std::sort(Skipped.begin(), Skipped.end(), ByName);
  const size_t MaxShown = 20;
  for (size_t I = 0; I < Failed.size() && I < MaxShown; ++I)
    std::cerr << "module " << Failed[I]->Module << ": error: "
              << Failed[I]->Error << "\n";
  if (Failed.size() > MaxShown)
    std::cerr << "... and " << Failed.size() - MaxShown
              << " more failed modules\n";
  for (size_t I = 0; I < Skipped.size() && I < MaxShown; ++I)
    std::cerr << "module " << Skipped[I]->Module << ": skipped ("
              << Skipped[I]->Error << ")\n";
  if (Skipped.size() > MaxShown)
    std::cerr << "... and " << Skipped.size() - MaxShown
              << " more skipped modules\n";

  std::cout << "batch: " << BR.Results.size() << " modules, " << Checked
            << " checked, " << Cached << " cached";
  if (!Failed.empty() || !Skipped.empty())
    std::cout << ", " << Failed.size() << " failed, " << Skipped.size()
              << " skipped";
  std::cout << "\n";
  return BR.Success ? 0 : 1;
}

int runGenCorpus(const corpus::CorpusOptions &Opts,
                 const std::string &OutDir) {
  std::vector<corpus::GeneratedModule> Mods = corpus::generate(Opts);
  std::string Error;
  if (!corpus::writeCorpus(Mods, OutDir, Error)) {
    std::cerr << "fgc: error: " << Error << "\n";
    return 1;
  }
  std::cout << "corpus: " << Mods.size() << " modules -> " << OutDir
            << " (seed " << Opts.Seed << ", shape "
            << corpus::shapeName(Opts.GraphShape) << ", root "
            << Mods.back().Name << ")\n";
  return 0;
}

int fgcMain(int Argc, char **Argv) {
  bool CheckOnly = false, PrintTranslation = false, PrintAst = false;
  bool Direct = false, Optimize = false, Batch = false, UseCache = true;
  bool DumpBytecode = false;
  sf::SpecializeLevel SpecLevel = sf::SpecializeLevel::Off;
  bool SpecSet = false;
  Backend Engine = Backend::Tree;
  aot::ToolchainOptions AotToolchain;
  unsigned Jobs = 1;
  unsigned FuzzCount = 0;
  uint64_t FuzzSeed = 42;
  // Default verification level: re-check the translation in debug
  // builds, nothing in release builds (BenchValidate measures why).
#ifndef NDEBUG
  validate::Mode VMode = validate::Mode::Translate;
#else
  validate::Mode VMode = validate::Mode::Off;
#endif
  bool VModeSet = false;
  std::vector<std::string> SearchPaths, Paths;
  std::string CacheDir;
  corpus::CorpusOptions CorpusOpts;
  unsigned GenCorpus = 0;
  std::string CorpusOut;
  CompileOptions Opts;
  StatsReporter Reporter("fgc");

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I], Value;
    unsigned long long N;
    if (Arg == "--check")
      CheckOnly = true;
    else if (Arg == "--translate")
      PrintTranslation = true;
    else if (Arg == "--ast")
      PrintAst = true;
    else if (Arg == "--direct")
      Direct = true;
    else if (Arg == "--optimize" || Arg == "-O1")
      Optimize = true;
    else if (Arg == "-O2") {
      Optimize = true;
      SpecLevel = sf::SpecializeLevel::Full;
      SpecSet = true;
    } else if (Arg == "--specialize") {
      Optimize = true;
      SpecLevel = sf::SpecializeLevel::Full;
      SpecSet = true;
    } else if (optionValue(Arg, "--specialize", false, I, Argc, Argv,
                           Value)) {
      if (!sf::parseSpecializeLevel(Value, SpecLevel)) {
        std::cerr << "fgc: error: --specialize must be one of off, apps, "
                     "dicts, full\n";
        return usageError();
      }
      SpecSet = true;
      Optimize |= SpecLevel != sf::SpecializeLevel::Off;
    } else if (Arg == "--batch")
      Batch = true;
    else if (Arg == "--no-cache")
      UseCache = false;
    else if (Arg == "--dump-bytecode")
      DumpBytecode = true;
    else if (Arg == "--no-superinstructions")
      vm::defaultEmitOptions().Superinstructions = false;
    else if (optionValue(Arg, "--backend", false, I, Argc, Argv, Value)) {
      if (!parseBackend(Value, Engine)) {
        std::cerr << "fgc: error: --backend must be one of "
                  << backendNameList() << "\n";
        return usageError();
      }
    } else if (optionValue(Arg, "--aot-cxx", false, I, Argc, Argv,
                           AotToolchain.Cxx)) {
      if (AotToolchain.Cxx.empty()) {
        std::cerr << "fgc: error: --aot-cxx= requires a compiler path\n";
        return usageError();
      }
    } else if (optionValue(Arg, "--aot-cache", false, I, Argc, Argv,
                           AotToolchain.CacheDir)) {
      if (AotToolchain.CacheDir.empty()) {
        std::cerr << "fgc: error: --aot-cache= requires a directory\n";
        return usageError();
      }
    } else if (Arg == "--aot-keep-cpp")
      AotToolchain.KeepCpp = true;
    else if (Arg == "--validate") {
      VMode = validate::Mode::Passes;
      VModeSet = true;
    } else if (optionValue(Arg, "--validate", false, I, Argc, Argv, Value)) {
      if (!validate::parseMode(Value, VMode)) {
        std::cerr << "fgc: error: --validate must be one of off, "
                     "translate, passes\n";
        return usageError();
      }
      VModeSet = true;
    } else if (optionValue(Arg, "--fuzz", true, I, Argc, Argv, Value)) {
      if (!parseNumber(Value, N) || N == 0) {
        std::cerr << "fgc: error: --fuzz requires a positive number\n";
        return usageError();
      }
      FuzzCount = static_cast<unsigned>(N);
    } else if (optionValue(Arg, "--seed", true, I, Argc, Argv, Value)) {
      if (!parseNumber(Value, N)) {
        std::cerr << "fgc: error: --seed requires a number\n";
        return usageError();
      }
      FuzzSeed = N;
    } else if (optionValue(Arg, "--gen-corpus", true, I, Argc, Argv, Value)) {
      if (!parseNumber(Value, N) || N == 0) {
        std::cerr << "fgc: error: --gen-corpus requires a positive "
                     "module count\n";
        return usageError();
      }
      GenCorpus = static_cast<unsigned>(N);
    } else if (optionValue(Arg, "--out", true, I, Argc, Argv, CorpusOut)) {
      if (CorpusOut.empty()) {
        std::cerr << "fgc: error: --out requires a directory\n";
        return usageError();
      }
    } else if (optionValue(Arg, "--corpus-shape", false, I, Argc, Argv,
                           Value)) {
      if (!corpus::parseShape(Value, CorpusOpts.GraphShape)) {
        std::cerr << "fgc: error: --corpus-shape must be one of layered, "
                     "chain, fanin\n";
        return usageError();
      }
    } else if (optionValue(Arg, "--corpus-layers", false, I, Argc, Argv,
                           Value)) {
      if (!parseNumber(Value, N)) {
        std::cerr << "fgc: error: --corpus-layers requires a number\n";
        return usageError();
      }
      CorpusOpts.Layers = static_cast<unsigned>(N);
    } else if (optionValue(Arg, "--corpus-max-imports", false, I, Argc, Argv,
                           Value)) {
      if (!parseNumber(Value, N) || N == 0) {
        std::cerr << "fgc: error: --corpus-max-imports requires a "
                     "positive number\n";
        return usageError();
      }
      CorpusOpts.MaxImports = static_cast<unsigned>(N);
    } else if (optionValue(Arg, "--corpus-diamond", false, I, Argc, Argv,
                           Value)) {
      if (!parseNumber(Value, N) || N > 100) {
        std::cerr << "fgc: error: --corpus-diamond requires a percentage "
                     "(0-100)\n";
        return usageError();
      }
      CorpusOpts.DiamondPct = static_cast<unsigned>(N);
    } else if (Arg == "--stats")
      Reporter.Human = true;
    else if (optionValue(Arg, "--stats-json", false, I, Argc, Argv,
                         Reporter.JsonPath)) {
      if (Reporter.JsonPath.empty()) {
        std::cerr << "fgc: error: --stats-json= requires a file name\n";
        return usageError();
      }
    } else if (optionValue(Arg, "--module-cache", false, I, Argc, Argv,
                           CacheDir)) {
      if (CacheDir.empty()) {
        std::cerr << "fgc: error: --module-cache= requires a directory\n";
        return usageError();
      }
    } else if (Arg == "--no-model-cache")
      Opts.EnableModelCache = false;
    else if (optionValue(Arg, "-j", true, I, Argc, Argv, Value)) {
      if (!parseNumber(Value, N)) {
        std::cerr << "fgc: error: -j requires a number\n";
        return usageError();
      }
      Jobs = static_cast<unsigned>(N);
    } else if (optionValue(Arg, "-I", true, I, Argc, Argv, Value)) {
      if (Value.empty()) {
        std::cerr << "fgc: error: -I requires a directory\n";
        return usageError();
      }
      SearchPaths.push_back(Value);
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-")
      return usageError();
    else
      Paths.push_back(Arg);
  }
  Opts.VerifyTranslation = VMode != validate::Mode::Off;
  if (Paths.empty() && FuzzCount == 0 && GenCorpus == 0)
    return usageError();
  if (!Batch && Paths.size() > 1)
    return usageError();
  if (Reporter.Human || !Reporter.JsonPath.empty())
    stats::Statistics::global().enable(true);

  if (GenCorpus != 0) {
    if (!Paths.empty() || Batch || FuzzCount != 0)
      return usageError();
    if (CorpusOut.empty()) {
      std::cerr << "fgc: error: --gen-corpus requires --out <dir>\n";
      return usageError();
    }
    CorpusOpts.Modules = GenCorpus;
    CorpusOpts.Seed = FuzzSeed;
    return runGenCorpus(CorpusOpts, CorpusOut);
  }

  if (FuzzCount != 0) {
    if (!Paths.empty() || Batch)
      return usageError();
    validate::FuzzOptions FO;
    FO.Count = FuzzCount;
    FO.Seed = FuzzSeed;
    // Fuzzing exists to exercise the validators; keep per-pass
    // checking on unless the user explicitly lowered the level.
    FO.ValidatePasses = !VModeSet || VMode == validate::Mode::Passes;
    FO.Specialize = SpecLevel;
    FO.Log = &std::cerr;
    if (Engine == Backend::Aot) {
      // Fuzzing the AOT backend is opt-in (each program costs a host
      // compile); degrade to a notice when no toolchain exists.
      std::string WhyNot;
      if (backendAvailable(Engine, AotToolchain, &WhyNot)) {
        FO.IncludeAot = true;
        FO.AotToolchain = AotToolchain;
      } else {
        std::cerr << "fgc: note: skipping the aot backend in the fuzz "
                     "sweep: "
                  << WhyNot << "\n";
      }
    }
    validate::FuzzResult FR = validate::runFuzz(FO);
    std::cout << "fuzz: " << FR.Generated << " programs, "
              << FR.Failures.size() << " failures (seed " << FuzzSeed
              << ")\n";
    return FR.ok() ? 0 : 1;
  }

  if (Batch)
    return runBatchMode(Paths, SearchPaths, Jobs, CacheDir, UseCache, Opts);

  const std::string &Path = Paths[0];
  std::string Source;
  if (Path == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Source = SS.str();
  } else {
    std::ifstream In(Path);
    if (!In) {
      std::cerr << "fgc: error: cannot open `" << Path << "`\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  }

  // A file with a module header routes through the loader: imports are
  // resolved and the graph is linked into one program, which then flows
  // through the same pipeline as a plain file.
  modules::Program Prog =
      Path == "-" ? modules::Program("<stdin>", Source,
                                     modules::Program::Headers::Ignore)
                  : modules::Program(Path, Source,
                                     modules::Program::Headers::Resolve,
                                     SearchPaths);
  std::string Error;
  if (Prog.open(Error) != modules::Program::Status::Ok) {
    std::cerr << "fgc: error: " << Error << "\n";
    return 1;
  }
  Frontend FE;
  CompileOutput Out = Prog.compile(FE, Opts);
  if (!Out.Success) {
    if (!Prog.linkError().empty())
      std::cerr << "fgc: error: " << Prog.linkError() << "\n";
    std::cerr << FE.getDiags().render();
    return 1;
  }
  // Validation rides on the one optimizer run that every later use of
  // the optimized term (aot, the -O report, the -O value check) reuses.
  if (VMode == validate::Mode::Passes) {
    std::string Failure = validate::optimizeCheckingPasses(FE, Out, SpecLevel);
    if (!Failure.empty()) {
      std::cerr << "fgc: " << Failure << "\n";
      return 1;
    }
  }
  if (PrintAst)
    std::cout << "ast: " << termToString(Out.Ast) << "\n";
  if (PrintTranslation) {
    std::cout << "systemf: " << sf::termToString(Out.SfTerm) << "\n";
    if (Out.SfType)
      std::cout << "systemf-type: " << sf::typeToString(Out.SfType) << "\n";
  }
  if (DumpBytecode) {
    std::shared_ptr<const vm::Chunk> Chunk =
        vm::compile(Out.SfTerm, FE.getPrelude(), &Error);
    if (!Chunk) {
      std::cerr << "fgc: error: cannot compile to bytecode: " << Error
                << "\n";
      return 1;
    }
    std::cout << "bytecode:\n" << vm::disassemble(*Chunk);
  }
  std::cout << "type: " << typeToString(Out.FgType) << "\n";
  if (CheckOnly)
    return 0;

  std::string WhyNot;
  if (!backendAvailable(Engine, AotToolchain, &WhyNot)) {
    std::cerr << "fgc: error: --backend=" << backendName(Engine)
              << " is unavailable: " << WhyNot << "\n";
    return 2;
  }
  // The selected engine runs its default level; only aot honours a
  // level pinned by --specialize/-O2 (tree and vm run the raw term here
  // and the optimized term in the -O check below, on the same engine).
  aot::RunInfo Info;
  RunOptions RO{.Engine = Engine, .Toolchain = AotToolchain, .AotInfo = &Info};
  if (SpecSet && Engine == Backend::Aot)
    RO.Level = RunLevel::at(SpecLevel);
  sf::EvalResult R = FE.run(Out, RO);
  if (!Info.CppPath.empty())
    std::cerr << "fgc: note: kept generated C++ at " << Info.CppPath << "\n";
  if (!R.ok()) {
    std::cerr << "runtime error: " << R.Error << "\n";
    return 1;
  }
  std::cout << "value: " << sf::valueToString(R.Val) << "\n";

  if (Optimize) {
    sf::OptimizeStats Stats;
    sf::OptimizeOptions SOpts;
    SOpts.Specialize = SpecLevel;
    std::cout << "specialized: "
              << sf::termToString(FE.optimize(Out, &Stats, SOpts)) << "\n";
    std::cout << "  (nodes " << Stats.NodesBefore << " -> "
              << Stats.NodesAfter << ", " << Stats.TypeAppsInlined
              << " instantiations, " << Stats.LetsInlined
              << " lets inlined, " << Stats.ProjectionsFolded
              << " projections folded)\n";
    if (SpecLevel != sf::SpecializeLevel::Off) {
      std::cout << "  (specialize " << sf::specializeLevelName(SpecLevel)
                << ": " << Stats.ClonesCreated << " clones, "
                << Stats.SpecCacheHits << " cache hits, "
                << Stats.MembersDevirtualized << " members devirtualized, "
                << Stats.DictParamsEliminated << " params + "
                << Stats.DictFieldsEliminated << " fields dropped, "
                << Stats.BudgetHits << " budget hits)\n";
      if (Stats.BudgetHits != 0 && Reporter.Human)
        std::cerr << "fgc: note: the specialization size budget declined "
                  << Stats.BudgetHits
                  << " specialization(s) (specialize.budget_hits)\n";
    }
    // Both values come from one engine, except on aot: its value above
    // already ran an optimized term, so its check runs on the tree walker.
    Backend CheckEngine = Engine == Backend::Aot ? Backend::Tree : Engine;
    sf::EvalResult O = FE.run(
        Out, {.Engine = CheckEngine, .Level = RunLevel::at(SpecLevel)});
    if (!O.ok()) {
      std::cerr << "specialized evaluation error: " << O.Error << "\n";
      return 1;
    }
    std::cout << "optimized value: " << sf::valueToString(O.Val) << "\n";
    if (sf::valueToString(O.Val) != sf::valueToString(R.Val)) {
      std::cerr << "error: specialization changed the program's value\n";
      return 1;
    }
  }

  if (Direct) {
    interp::EvalResult D = FE.runDirect(Out);
    if (!D.ok()) {
      std::cerr << "direct interpreter error: " << D.Error << "\n";
      return 1;
    }
    std::cout << "direct: " << interp::valueToString(D.Val) << "\n";
    if (interp::valueToString(D.Val) != sf::valueToString(R.Val)) {
      std::cerr << "error: direct interpretation disagrees with the "
                   "translation\n";
      return 1;
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  return runOnDeepStack([&] { return fgcMain(Argc, Argv); });
}
