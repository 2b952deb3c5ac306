//===- server/Session.cpp - One compiler-service session ------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "server/Session.h"
#include "modules/Program.h"
#include "support/Stats.h"
#include "vm/Disasm.h"
#include "vm/Emit.h"
#include <cctype>
#include <optional>

using namespace fg;
using namespace fg::server;

namespace {

/// First word of \p S after leading whitespace (REPL input
/// classification; see docs/REPL.md).
std::string firstWord(const std::string &S) {
  size_t I = S.find_first_not_of(" \t\r\n");
  if (I == std::string::npos)
    return "";
  size_t E = I;
  while (E < S.size() &&
         (std::isalnum(static_cast<unsigned char>(S[E])) || S[E] == '_'))
    ++E;
  return S.substr(I, E - I);
}

bool isDeclKeyword(const std::string &W) {
  return W == "let" || W == "concept" || W == "model" || W == "type" ||
         W == "use";
}

/// Best-effort declared-name extraction for REPL feedback: the next
/// identifier after the keyword (for `model [name] ...`, the bracketed
/// name).
std::string declaredName(const std::string &Input, const std::string &Kind) {
  size_t I = Input.find(Kind) + Kind.size();
  while (I < Input.size() &&
         (std::isspace(static_cast<unsigned char>(Input[I])) ||
          Input[I] == '['))
    ++I;
  size_t E = I;
  while (E < Input.size() &&
         (std::isalnum(static_cast<unsigned char>(Input[E])) ||
          Input[E] == '_'))
    ++E;
  return Input.substr(I, E - I);
}

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r\n");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r\n");
  return S.substr(B, E - B + 1);
}

/// Runs a successful compilation per \p RO into \p O's value or error.
/// Returns false, with O.BackendUnavailable set, when the engine cannot
/// run here; that outcome must not be cached.
bool runOn(Frontend &FE, CompileOutput &Out, const RunOptions &RO,
           Outcome &O) {
  std::string WhyNot;
  if (!backendAvailable(RO.Engine, RO.Toolchain, &WhyNot)) {
    O.BackendUnavailable = true;
    O.Error = WhyNot;
    return false;
  }
  sf::EvalResult R = FE.run(Out, RO);
  if (!R.ok())
    O.Error = R.Error;
  else
    O.Value = sf::valueToString(R.Val);
  return true;
}

} // namespace

Session::Session(std::shared_ptr<ArtifactCache> Cache, Options Opts)
    : Cache(std::move(Cache)), Opts(std::move(Opts)) {
  stats::Statistics::global().add("server.sessions.opened");
}

Outcome Session::compiled(modules::Program &P, const char *KeyKind,
                          const char *TimerName, const Tail &Finish) {
  Outcome O;
  std::string Error;
  switch (P.open(Error)) {
  case modules::Program::Status::Ok:
    break;
  case modules::Program::Status::BadHeader:
    O.Diagnostics = Error + "\n";
    return O;
  case modules::Program::Status::Refused:
    O.Error = "source has a module header; submit it as a file via the "
              "`path` parameter so imports can be resolved";
    return O;
  case modules::Program::Status::LoadFailed:
    O.Error = Error;
    return O;
  }

  // A path's key covers its entire import cone, so an edit in any
  // imported file invalidates — the same discipline as `.fgi` interface
  // hashes.  Diagnostics carry the buffer name (a source's display
  // name, a path's root), so the key covers it too; no kind tag holds a
  // NUL, so tag and name stay apart.
  std::optional<CacheKey> Key;
  if (KeyKind) {
    std::string Kind = std::string(KeyKind) + '\0' + P.name();
    Key = P.linked() ? ArtifactCache::key(Kind, "", P.contentHash())
                     : ArtifactCache::key(Kind, P.source());
    if (ArtifactPtr A = Cache->get(*Key)) {
      static_cast<Artifact &>(O) = *A;
      O.Cached = true;
      return O;
    }
  }

  stats::ScopedTimer Timer(TimerName);
  Frontend FE;
  CompileOutput Out = P.compile(FE);
  O.Success = Out.Success;
  if (!Out.Success) {
    if (!P.linkError().empty())
      O.Diagnostics = P.linkError() + "\n";
    O.Diagnostics += FE.getDiags().render();
  } else {
    O.Type = typeToString(Out.FgType);
    if (Finish && !Finish(FE, Out, O))
      return O;
  }
  if (Key)
    Cache->put(*Key, std::make_shared<Artifact>(O));
  return O;
}

Outcome Session::check(const std::string &Source, const std::string &Name) {
  modules::Program P(Name, Source, modules::Program::Headers::Reject);
  return compiled(P, "check:v1", "server.check");
}

Outcome Session::checkPath(const std::string &Path) {
  modules::Program P = modules::Program::file(Path, Opts.SearchPaths);
  return compiled(P, "check:v1", "server.check");
}

Outcome Session::run(const std::string &Source, const std::string &Name,
                     const std::string &Backend, int OptLevel,
                     const std::string &Path) {
  RunOptions RO;
  if (!parseBackend(Backend, RO.Engine)) {
    Outcome O;
    O.Error = "unknown backend `" + Backend + "`";
    return O;
  }
  // optimize > 0 pins the level on every engine; 0 leaves each engine
  // its default (fg::defaultRunLevel).  The key names the level that
  // runs, so requests that run the same term share one entry.
  RO.Level = OptLevel > 0 ? RunLevel::at(OptLevel >= 2
                                             ? sf::SpecializeLevel::Full
                                             : sf::SpecializeLevel::Off)
                          : defaultRunLevel(RO.Engine);
  std::string KeyKind =
      std::string("run:v2:") + backendName(RO.Engine) + ":" +
      (RO.Level->Optimized ? sf::specializeLevelName(RO.Level->Specialize)
                           : "raw");
  modules::Program P =
      Path.empty()
          ? modules::Program(Name, Source, modules::Program::Headers::Reject)
          : modules::Program::file(Path, Opts.SearchPaths);
  return compiled(P, KeyKind.c_str(), "server.run",
                  [&](Frontend &FE, CompileOutput &Out, Outcome &O) {
                    return runOn(FE, Out, RO, O);
                  });
}

Outcome Session::typeOf(const std::string &Expr) {
  modules::Program P("<repl>", Decls + Expr,
                     modules::Program::Headers::Ignore);
  return compiled(P, "type:v1", "server.check");
}

Outcome Session::dumpBytecode(const std::string &Source,
                              const std::string &Name) {
  modules::Program P(Name, Source, modules::Program::Headers::Reject);
  return compiled(P, "bytecode:v1", "server.check",
                  [](Frontend &FE, CompileOutput &Out, Outcome &O) {
                    std::string Error;
                    std::shared_ptr<const vm::Chunk> Chunk =
                        vm::compile(Out.SfTerm, FE.getPrelude(), &Error);
                    if (!Chunk) {
                      O.Success = false;
                      O.Type.clear();
                      O.Error = "cannot compile to bytecode: " + Error;
                    } else {
                      O.Bytecode = vm::disassemble(*Chunk);
                    }
                    return true;
                  });
}

Outcome Session::eval(const std::string &RawInput,
                      const std::string &Backend) {
  stats::ScopedTimer Timer("server.eval");
  std::string Input = trim(RawInput);
  Outcome O;
  RunOptions RO;
  if (!parseBackend(Backend, RO.Engine)) {
    O.Error = "unknown backend `" + Backend + "`";
    return O;
  }
  if (Input.empty()) {
    O.Success = true;
    return O;
  }
  bool DeclCandidate = isDeclKeyword(firstWord(Input));

  // Expression attempt first: a complete expression (even one starting
  // with `let ... in ...`) evaluates; otherwise a leading declaration
  // keyword means the input extends the scope (docs/REPL.md §2).
  {
    Frontend FE;
    CompileOutput Out = FE.compile("<repl>", Decls + Input);
    if (Out.Success) {
      O.Success = true;
      O.Type = typeToString(Out.FgType);
      runOn(FE, Out, RO, O);
      return O;
    }
    if (!DeclCandidate) {
      O.Success = false;
      O.Diagnostics = FE.getDiags().render();
      return O;
    }
  }

  // Declaration probe: the input must form a valid spine item, i.e.
  // `<scope> <input> in 0` must compile.
  Frontend FE;
  CompileOutput Probe = FE.compile("<repl>", Decls + Input + " in 0");
  if (!Probe.Success) {
    O.Success = false;
    O.Diagnostics = FE.getDiags().render();
    return O;
  }
  O.Success = true;
  O.IsDecl = true;
  O.DeclKind = firstWord(Input);
  O.DeclName = declaredName(Input, O.DeclKind);
  Decls += Input + " in\n";
  // For a value binding, report the bound name's type.
  if (O.DeclKind == "let" && !O.DeclName.empty()) {
    Frontend FE2;
    CompileOutput Typed = FE2.compile("<repl>", Decls + O.DeclName);
    if (Typed.Success)
      O.Type = typeToString(Typed.FgType);
  }
  return O;
}

Outcome Session::load(const std::string &Path) {
  modules::Program P = modules::Program::file(Path, Opts.SearchPaths);
  // Evaluate the file itself (its imports resolved), uncached: the
  // splice below must happen on every load ...
  return compiled(P, nullptr, "server.load",
                  [&](Frontend &FE, CompileOutput &Out, Outcome &O) {
    runOn(FE, Out, RunOptions(), O);
    // ... then splice the whole closure's declaration spines into the
    // session scope, deps outermost — textual linking.
    Frontend SpineFE;
    std::string Spine, Error;
    if (!P.loader().spineText(SpineFE, P.root(), Spine, Error)) {
      // The file ran but its declarations could not be spliced into the
      // session scope — report failure, not a half-loaded success.
      O.Success = false;
      O.Error = "declarations not loaded: " + Error;
      return false;
    }
    Decls += Spine;
    stats::Statistics::global().add("server.loads");
    return false;
  });
}
