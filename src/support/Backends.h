//===- support/Backends.h - Execution backend registry ----------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single registry of System F execution backends.  Everything that
/// names backends — `fgc --backend=`, the `fgcd` help text, the wire
/// protocol's `backend` parameter, and the error messages all three
/// print — derives from this table, and the one run dispatch
/// (fg::runEngine, syntax/Frontend.h) switches on its Backend key, so
/// adding an engine means adding one enumerator, one row here and one
/// dispatch arm; DriverCliTest fails if a registered backend is missing
/// from either binary's `--help`.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SUPPORT_BACKENDS_H
#define FG_SUPPORT_BACKENDS_H

#include <string>
#include <vector>

namespace fg {

/// The System F execution engines.
enum class Backend {
  Tree, ///< Reference tree-walking evaluator (systemf/Eval.h).
  Vm,   ///< Register bytecode VM (vm/VM.h).
  Aot,  ///< Ahead-of-time C++ transpiler (aot/Aot.h).
};

/// One execution backend, as the user-facing surfaces see it.
struct BackendInfo {
  Backend Kind;
  const char *Name;        ///< The `--backend=` / protocol value.
  const char *Description; ///< One line for the generated help table.
};

/// Every registered backend, in presentation order (the default first).
const std::vector<BackendInfo> &backendRegistry();

/// Looks \p Name up in the registry; false when it names no backend.
bool parseBackend(const std::string &Name, Backend &Out);

/// True when \p Name names a registered backend.
bool isBackendName(const std::string &Name);

/// The registry name of \p B.
const char *backendName(Backend B);

/// `tree, vm, aot` — for error messages.
std::string backendNameList();

/// The generated `--backend=` help table: one aligned
/// `<indent><name>  <description>` line per backend.
std::string backendHelpTable(const std::string &Indent);

} // namespace fg

#endif // FG_SUPPORT_BACKENDS_H
