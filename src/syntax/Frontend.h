//===- syntax/Frontend.h - End-to-end F_G pipeline --------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: parse an F_G program, check
/// and translate it to System F, optionally re-check the output with the
/// independent System F typechecker (a dynamic verification of the
/// paper's Theorems 1 and 2), and evaluate it.
///
/// Typical use:
/// \code
///   fg::Frontend FE;
///   fg::CompileOutput Out = FE.compile("demo", Source);
///   if (Out.Success) {
///     sf::EvalResult R = FE.run(Out, {.Engine = fg::Backend::Vm});
///     ... sf::valueToString(R.Val) ...
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYNTAX_FRONTEND_H
#define FG_SYNTAX_FRONTEND_H

#include "aot/Aot.h"
#include "core/Builtins.h"
#include "core/Check.h"
#include "core/Interp.h"
#include "systemf/Optimize.h"
#include "support/Backends.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "syntax/Parser.h"
#include "systemf/Builtins.h"
#include "systemf/Eval.h"
#include "systemf/TypeCheck.h"
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

namespace fg {

/// Options controlling one compilation.
struct CompileOptions {
  /// Re-check the translated term with the System F typechecker and
  /// fail if it does not typecheck (Theorem 1/2 as a dynamic check).
  bool VerifyTranslation = true;

  /// Memoize model resolution and congruence queries in the checker.
  /// Semantics-neutral either way (enforced by ModelCacheTest); off is
  /// for A/B comparison and debugging.
  bool EnableModelCache = true;

  /// Extra System F typings for the free variables a module's
  /// translation references (imported values and dictionaries).  The
  /// verifier extends the prelude environment with these; used by the
  /// module loader when checking a module against its imports'
  /// interfaces.  Not owned.
  const sf::TypeEnv *ImportTypes = nullptr;

  /// Lift the rule-CPT concept-escape restriction; set for module
  /// export probes, whose type deliberately mentions the module's
  /// exported concepts (see Checker::setAllowConceptEscape).
  bool AllowConceptEscape = false;
};

/// Everything produced for one program.
struct CompileOutput {
  bool Success = false;
  const Term *Ast = nullptr;        ///< Parsed F_G program.
  const Type *FgType = nullptr;     ///< F_G type of the program.
  const sf::Term *SfTerm = nullptr; ///< Dictionary-passing translation.
  const sf::Type *SfType = nullptr; ///< Type assigned by the SF checker.
  /// The System F image of FgType per Figures 8/12 — the type Theorem 2
  /// promises for SfTerm.  When verification runs, SfType is checked to
  /// be pointer-identical to this (hash-consing makes pointer equality
  /// alpha-equivalence).  Null when the checker could not produce it
  /// (module export probes).
  const sf::Type *SfExpectedType = nullptr;
  /// Frontend::optimize()'s output per specialization level (indexed by
  /// sf::SpecializeLevel): the specialized translation (dictionaries
  /// eliminated) and the statistics of the one optimizer run that built
  /// it.
  struct Optimized {
    const sf::Term *Term = nullptr;
    sf::OptimizeStats Stats;
  };
  std::array<Optimized, size_t(sf::SpecializeLevel::Full) + 1> SfOptimized;
  std::string ErrorMessage;         ///< First error, empty on success.
};

/// The form of the translation an engine runs: the raw dictionary-
/// passing translation, or the optimizer's output (systemf/Optimize.h)
/// at a specialization level — `Off` is -O1's baseline passes, `Full`
/// is -O2.
struct RunLevel {
  bool Optimized = false;
  sf::SpecializeLevel Specialize = sf::SpecializeLevel::Off;

  static RunLevel raw() { return RunLevel(); }
  static RunLevel at(sf::SpecializeLevel L) { return {true, L}; }
};

/// The level \p Engine runs when the caller pins none.  aot runs the
/// -O2 term: the backend exists to measure the paper's zero-overhead
/// claim, and the specialized term is what that claim is about.  Every
/// other engine runs the raw translation.
RunLevel defaultRunLevel(Backend Engine);

/// How Frontend::run executes a compiled program.  Every member has an
/// initializer so designated-initializer call sites (`{.Engine = ...}`)
/// may name only what they change.
struct RunOptions {
  Backend Engine = Backend::Tree;
  /// The form of the translation to run; unset means
  /// defaultRunLevel(Engine).
  std::optional<RunLevel> Level = std::nullopt;
  sf::EvalOptions Eval = {};
  aot::ToolchainOptions Toolchain = {}; ///< Host toolchain for Backend::Aot.
  aot::RunInfo *AotInfo = nullptr; ///< Filled by Backend::Aot when set.
};

/// The one engine dispatch: runs \p T under the builtin prelude \p P on
/// \p Opts.Engine (Opts.Level is Frontend::run's business and ignored
/// here).  Every engine reports values and runtime errors identically
/// (tests/Differential.h holds them to it).
sf::EvalResult runEngine(const sf::Term *T, const sf::Prelude &P,
                         const RunOptions &Opts = RunOptions());

/// False, with the one-line reason in \p WhyNot, when \p Engine cannot
/// run in this environment: aot without a usable host C++ compiler.
bool backendAvailable(Backend Engine, const aot::ToolchainOptions &Toolchain,
                      std::string *WhyNot = nullptr);

/// Owns every context needed to compile and run F_G programs.  One
/// Frontend can compile many programs; they share builtins and interned
/// types.
class Frontend {
public:
  Frontend()
      : Diags(&SM), ThePrelude(sf::makePrelude(SfCtx)),
        TheChecker(FgCtx, SfCtx, SfArena, Diags) {
    bindPrelude(TheChecker, FgCtx, ThePrelude);
  }

  /// Parses, checks and translates \p Source (registered as buffer
  /// \p Name).  Diagnostics accumulate in getDiags().
  CompileOutput compile(const std::string &Name, const std::string &Source,
                        const CompileOptions &Opts = CompileOptions());

  /// Checks and translates an already-parsed term (the module loader
  /// parses separately so it can seed imported names).  \p Ast must
  /// have been built from this Frontend's contexts/arenas.
  CompileOutput compileTerm(const Term *Ast,
                            const CompileOptions &Opts = CompileOptions());

  /// Runs a successful compilation under the builtin prelude: picks
  /// the term \p Opts.Level names (optimizing on demand; the optimized
  /// term is cached in Out.SfOptimized per specialization level) and
  /// hands it to runEngine.  Every System F run in the tools, tests
  /// and benches goes through here.
  sf::EvalResult run(CompileOutput &Out, const RunOptions &Opts = RunOptions());

  /// Compile-and-run convenience on the tree walker; returns a failure
  /// EvalResult carrying the first diagnostic if compilation fails.
  sf::EvalResult runProgram(const std::string &Name,
                            const std::string &Source);

  /// Evaluates a compiled program with the *direct* F_G interpreter
  /// (core/Interp.h), bypassing the System F translation entirely.
  /// Tests compare this against run() to validate translation adequacy.
  interp::EvalResult runDirect(const CompileOutput &Out,
                               const interp::InterpOptions &Opts =
                                   interp::InterpOptions());

  /// Specializes the translation (systemf/Optimize.h): instantiates
  /// type applications, inlines dictionaries, folds member-access
  /// projections.  Stores the term in Out.SfOptimized at \p Opts'
  /// specialization level and returns it, reusing a stored one (and
  /// copying its statistics into \p Stats) — so the optimizer runs once
  /// per compilation and level.  A call carrying a PassHook or TestPass
  /// always runs the optimizer, since its hook must see every pass;
  /// later calls then reuse that run.
  const sf::Term *optimize(CompileOutput &Out,
                           sf::OptimizeStats *Stats = nullptr,
                           const sf::OptimizeOptions &Opts =
                               sf::OptimizeOptions());

  SourceManager &getSourceManager() { return SM; }
  DiagnosticEngine &getDiags() { return Diags; }
  TypeContext &getFgContext() { return FgCtx; }
  sf::TypeContext &getSfContext() { return SfCtx; }
  sf::TermArena &getSfArena() { return SfArena; }
  TermArena &getFgArena() { return FgArena; }
  const sf::Prelude &getPrelude() const { return ThePrelude; }
  Checker &getChecker() { return TheChecker; }

  /// The builtin names, as the default OptimizeOptions::HoistableTyApps
  /// set: globally bound, pure, safe to instantiate at program start.
  const std::unordered_set<std::string> &preludeNames();

private:
  SourceManager SM;
  DiagnosticEngine Diags;
  TypeContext FgCtx;
  sf::TypeContext SfCtx;
  TermArena FgArena;
  sf::TermArena SfArena;
  sf::Prelude ThePrelude;
  Checker TheChecker;
  std::unordered_set<std::string> PreludeNames; ///< Lazy; see preludeNames().
};

} // namespace fg

#endif // FG_SYNTAX_FRONTEND_H
