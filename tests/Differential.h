//===- tests/Differential.h - Cross-backend differential harness -*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing contract for execution backends: any
/// compiled program, run through every registered System F engine
/// (support/Backends.h) — the tree-walking evaluator, the bytecode VM
/// and, with a host compiler, the AOT transpiler — must produce the
/// identical outcome: the same printed value on success, or the same
/// error string on failure (including the EvalOptions step/depth abort
/// diagnostics).
///
/// ConformanceTest routes the whole corpus through here and VmTest
/// adds the examples and limit cases, so a future backend gets
/// coverage by joining the registry.
///
//===----------------------------------------------------------------------===//

#ifndef FG_TESTS_DIFFERENTIAL_H
#define FG_TESTS_DIFFERENTIAL_H

#include "aot/Toolchain.h"
#include "syntax/Frontend.h"
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

namespace fgtest {

/// Outcome of one backend on one program.
struct BackendOutcome {
  std::string Name;
  bool Ok = false;
  std::string Rendered; ///< Printed value when Ok, error otherwise.
};

/// Every registered backend that can run here.  The AOT backend needs
/// a host C++ compiler; when none is available it is skipped with a
/// one-time notice rather than failing the whole suite (CI without a
/// toolchain still verifies the in-process engines).
inline const std::vector<fg::BackendInfo> &backends() {
  static const std::vector<fg::BackendInfo> All = [] {
    std::vector<fg::BackendInfo> Engines;
    for (const fg::BackendInfo &B : fg::backendRegistry()) {
      std::string WhyNot;
      if (fg::backendAvailable(B.Kind, fg::aot::ToolchainOptions(), &WhyNot))
        Engines.push_back(B);
      else
        std::fprintf(stderr, "differential: skipping the %s backend: %s\n",
                     B.Name, WhyNot.c_str());
    }
    return Engines;
  }();
  return All;
}

/// A copy of \p Out whose System F term is \p T — the hook for running
/// the backends over a *rewritten* (specialized) term: the copy rides
/// through runAllBackends and every engine compiles/evaluates T in
/// place of the original translation.
inline fg::CompileOutput withSfTerm(const fg::CompileOutput &Out,
                                    const fg::sf::Term *T) {
  fg::CompileOutput Copy = Out;
  Copy.SfTerm = T;
  return Copy;
}

/// Runs \p Out through every backend and EXPECTs pairwise-identical
/// outcomes (success flag and rendered value/error).  Returns the
/// outcomes, reference (tree) backend first; \p Context names the
/// program in failure messages.
inline std::vector<BackendOutcome>
runAllBackends(fg::Frontend &FE, const fg::CompileOutput &Out,
               const fg::sf::EvalOptions &Opts = fg::sf::EvalOptions(),
               const std::string &Context = std::string()) {
  // Every engine runs the term as given: the raw level pins the AOT leg
  // to the same term as the tree walker.
  fg::CompileOutput Run = Out;
  std::vector<BackendOutcome> Results;
  for (const fg::BackendInfo &B : backends()) {
    fg::sf::EvalResult R = FE.run(
        Run, {.Engine = B.Kind, .Level = fg::RunLevel::raw(), .Eval = Opts});
    Results.push_back(
        {B.Name, R.ok(),
         R.ok() ? fg::sf::valueToString(R.Val) : R.Error});
  }
  const BackendOutcome &Ref = Results.front();
  for (size_t I = 1; I < Results.size(); ++I) {
    EXPECT_EQ(Ref.Ok, Results[I].Ok)
        << Context << ": backend `" << Results[I].Name << "` "
        << (Results[I].Ok ? "succeeded" : "failed") << " but `" << Ref.Name
        << "` " << (Ref.Ok ? "succeeded" : "failed") << " (" << Ref.Rendered
        << " vs " << Results[I].Rendered << ")";
    EXPECT_EQ(Ref.Rendered, Results[I].Rendered)
        << Context << ": backend `" << Results[I].Name
        << "` disagrees with `" << Ref.Name << "`";
  }
  return Results;
}

/// Compiles \p Source and runs the differential check; EXPECTs the
/// compilation to succeed.  Returns the reference outcome's rendering.
inline std::string
runDifferential(const std::string &Source,
                const fg::sf::EvalOptions &Opts = fg::sf::EvalOptions()) {
  fg::Frontend FE;
  fg::CompileOutput Out = FE.compile("differential.fg", Source);
  EXPECT_TRUE(Out.Success) << Out.ErrorMessage << "\nprogram:\n" << Source;
  if (!Out.Success)
    return std::string();
  std::vector<BackendOutcome> R = runAllBackends(FE, Out, Opts, Source);
  return R.front().Rendered;
}

} // namespace fgtest

#endif // FG_TESTS_DIFFERENTIAL_H
