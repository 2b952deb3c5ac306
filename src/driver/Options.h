//===- driver/Options.h - Plumbing shared by fgc and fgcd -------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line plumbing both drivers share: option-value spellings,
/// numeric option values, and the exit-path statistics report.
///
//===----------------------------------------------------------------------===//

#ifndef FG_DRIVER_OPTIONS_H
#define FG_DRIVER_OPTIONS_H

#include "support/Stats.h"
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

namespace fg {

/// Matches \p Arg against the option \p Name and stores its value.  A
/// long option takes `Name=v`, and `Name v` (the next argument, empty
/// at the end of argv) when \p Separate; a short one (`-j`, `-I`)
/// takes `-jv` and `-j v`.
inline bool optionValue(const std::string &Arg, const std::string &Name,
                        bool Separate, int &I, int Argc, char **Argv,
                        std::string &Value) {
  bool Short = Name.size() == 2;
  if (Arg == Name && (Short || Separate)) {
    Value = I + 1 < Argc ? Argv[++I] : "";
    return true;
  }
  std::string Prefix = Short ? Name : Name + "=";
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Value = Arg.substr(Prefix.size());
  return true;
}

/// Parses a numeric option value: false when \p Value is empty or has
/// anything after the decimal number.
inline bool parseNumber(const std::string &Value, unsigned long long &N) {
  char *End = nullptr;
  N = std::strtoull(Value.c_str(), &End, 10);
  return !Value.empty() && End && *End == '\0';
}

/// Emits the accumulated statistics per the --stats/--stats-json flags.
/// Runs on every exit path once requested, so failed compilations still
/// report (that is when the numbers are most interesting).
struct StatsReporter {
  explicit StatsReporter(const char *Tool) : Tool(Tool) {}

  const char *Tool; ///< Prefix of the warning line: `fgc` or `fgcd`.
  bool Human = false;
  std::string JsonPath;

  ~StatsReporter() {
    const stats::Statistics &S = stats::Statistics::global();
    if (Human)
      S.print(std::cerr);
    if (JsonPath.empty())
      return;
    if (JsonPath == "-") {
      S.printJson(std::cout);
      return;
    }
    std::ofstream Out(JsonPath);
    if (!Out)
      std::cerr << Tool << ": warning: cannot write stats to `" << JsonPath
                << "`\n";
    else
      S.printJson(Out);
  }
};

} // namespace fg

#endif // FG_DRIVER_OPTIONS_H
