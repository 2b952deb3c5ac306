//===- modules/Program.h - The one compile entry ----------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one entry through which the tools compile a program: fgc's
/// single-file mode, every fgcd request and the fuzzer.  A Program is
/// named the way its caller names it — source text, or a file whose
/// import cone is loaded with `-I` search paths — and compiles in two
/// steps, so a cache keyed on the input can answer before any Frontend
/// exists:
///
///   open()     scans the text's module header, or loads the file's
///              import cone (whose content hash is the cache key);
///   compile()  links the cone, then checks, translates and verifies
///              in the caller's Frontend.
///
/// What follows compilation works on the CompileOutput:
/// Frontend::optimize runs the optimizer once per compilation and
/// level, and Frontend::run reuses that term.
///
//===----------------------------------------------------------------------===//

#ifndef FG_MODULES_PROGRAM_H
#define FG_MODULES_PROGRAM_H

#include "modules/Loader.h"
#include "syntax/Frontend.h"
#include <optional>
#include <string>
#include <vector>

namespace fg {
namespace modules {

/// One program, named as its caller names it; see the file comment.
class Program {
public:
  /// What source text does with a `module`/`import` header.
  enum class Headers {
    Ignore,  ///< Compile the text as is; a header is a parse error.
    Reject,  ///< Refuse a header: text alone cannot resolve imports.
    Resolve, ///< Load the import cone of the file the text was read from.
  };

  /// Why open() failed.
  enum class Status {
    Ok,
    BadHeader,  ///< The header itself is malformed (a compile diagnostic).
    Refused,    ///< Headers::Reject met a header.
    LoadFailed, ///< I/O, import resolution, module naming or a cycle.
  };

  /// Source text compiled as buffer \p Name.  Under Headers::Resolve,
  /// \p Name is also the path of the file the text was read from.
  Program(std::string Name, std::string Source, Headers H,
          std::vector<std::string> SearchPaths = {})
      : Name(std::move(Name)), Source(std::move(Source)), HeaderPolicy(H),
        SearchPaths(std::move(SearchPaths)) {}

  /// The file at \p Path and its whole import cone.
  static Program file(std::string Path, std::vector<std::string> SearchPaths);

  /// Scans the header, or loads the import cone; no Frontend is
  /// involved.  On failure \p Error says why.  Text under
  /// Headers::Ignore needs no open().
  Status open(std::string &Error);

  /// After open(): true when an import cone was loaded (file(), or a
  /// header under Headers::Resolve).  A cache keys a linked program on
  /// the cone's contentHash(), any other on its source(); both under
  /// name(), which diagnostics carry.
  bool linked() const { return Loader.has_value(); }
  const std::string &name() const { return Name; }
  const std::string &source() const { return Source; }
  uint64_t contentHash() const { return Loader->contentHash(Root); }

  /// Links the cone (when one was loaded), then checks, translates and
  /// verifies per \p Opts in \p FE.  After a failed link, linkError()
  /// holds the loader's message; FE's diagnostics hold the rest.
  CompileOutput compile(Frontend &FE,
                        const CompileOptions &Opts = CompileOptions());
  const std::string &linkError() const { return LinkError; }

  /// After open() loaded a cone: the loader and the root module's name
  /// (the REPL's `:load` splices the cone's declarations).
  const ModuleLoader &loader() const { return *Loader; }
  const std::string &root() const { return Root; }

private:
  std::string Name, Source;
  Headers HeaderPolicy;
  bool IsFile = false; ///< Made by file(): Name is the path to load.
  std::vector<std::string> SearchPaths;
  std::optional<ModuleLoader> Loader; ///< Set once a cone is loaded.
  std::string Root, LinkError;
};

} // namespace modules
} // namespace fg

#endif // FG_MODULES_PROGRAM_H
