//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#ifndef FG_TESTS_TESTUTIL_H
#define FG_TESTS_TESTUTIL_H

#include "syntax/Frontend.h"
#include <gtest/gtest.h>
#include <string>

namespace fgtest {

/// Outcome of compiling and running one F_G source program.
struct RunResult {
  bool CompileOk = false;
  bool RunOk = false;
  std::string Type;    ///< Pretty-printed F_G type.
  std::string SfType;  ///< Type assigned by the independent SF checker.
  std::string Value;   ///< Pretty-printed result value.
  std::string SfTerm;  ///< Pretty-printed translation.
  std::string Error;   ///< First diagnostic or runtime error.
};

/// Compiles (with Theorem-1/2 verification) and runs \p Source.  Also
/// runs the specializer (systemf/Optimize.h) and asserts it preserves
/// the result, so every test routed through this helper exercises the
/// optimizer as well.
inline RunResult runFg(const std::string &Source) {
  fg::Frontend FE;
  RunResult R;
  fg::CompileOutput Out = FE.compile("test.fg", Source);
  R.CompileOk = Out.Success;
  if (!Out.Success) {
    R.Error = Out.ErrorMessage;
    return R;
  }
  R.Type = fg::typeToString(Out.FgType);
  R.SfType = fg::sf::typeToString(Out.SfType);
  R.SfTerm = fg::sf::termToString(Out.SfTerm);
  fg::sf::EvalResult E = FE.run(Out);
  R.RunOk = E.ok();
  if (E.ok())
    R.Value = fg::sf::valueToString(E.Val);
  else
    R.Error = E.Error;

  // Specialization must not change the observable outcome, and the
  // bytecode VM must agree on the raw translation, including on
  // runtime errors.
  struct Leg {
    const char *What;
    fg::RunOptions Opts;
  };
  const Leg Legs[] = {
      {"specializer",
       {.Level = fg::RunLevel::at(fg::sf::SpecializeLevel::Off)}},
      {"vm backend", {.Engine = fg::Backend::Vm}},
  };
  for (const Leg &L : Legs) {
    fg::sf::EvalResult O = FE.run(Out, L.Opts);
    EXPECT_EQ(E.ok(), O.ok())
        << L.What << " changed success/failure: " << E.Error << " vs "
        << O.Error << "\nprogram:\n"
        << Source;
    if (E.ok() && O.ok()) {
      EXPECT_EQ(fg::sf::valueToString(E.Val), fg::sf::valueToString(O.Val))
          << L.What << " changed the value of:\n"
          << Source;
    } else if (!E.ok() && !O.ok()) {
      EXPECT_EQ(E.Error, O.Error) << L.What << " changed the error of:\n"
                                  << Source;
    }
  }
  return R;
}

/// Compiles only; returns the first diagnostic (empty if it compiled).
inline std::string compileError(const std::string &Source) {
  fg::Frontend FE;
  fg::CompileOutput Out = FE.compile("test.fg", Source);
  return Out.Success ? std::string() : Out.ErrorMessage;
}

} // namespace fgtest

#endif // FG_TESTS_TESTUTIL_H
