//===- modules/Program.cpp - The one compile entry ------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "modules/Program.h"

using namespace fg;
using namespace fg::modules;

Program Program::file(std::string Path, std::vector<std::string> SearchPaths) {
  Program P(std::move(Path), "", Headers::Resolve, std::move(SearchPaths));
  P.IsFile = true;
  return P;
}

Program::Status Program::open(std::string &Error) {
  if (!IsFile) {
    if (HeaderPolicy == Headers::Ignore)
      return Status::Ok;
    ModuleHeader Header;
    if (!ModuleLoader::scanHeader(Name, Source, Header, Error))
      return Status::BadHeader;
    if (!Header.HasModuleDecl && Header.Imports.empty())
      return Status::Ok;
    if (HeaderPolicy == Headers::Reject)
      return Status::Refused;
  }
  ModuleLoader::Options LO;
  LO.SearchPaths = SearchPaths;
  Loader.emplace(LO);
  if (!Loader->loadFile(Name, Root, Error)) {
    Loader.reset();
    return Status::LoadFailed;
  }
  return Status::Ok;
}

CompileOutput Program::compile(Frontend &FE, const CompileOptions &Opts) {
  if (!Loader)
    return FE.compile(Name, Source, Opts);
  const Term *Linked = Loader->link(FE, Root, LinkError);
  if (!Linked)
    return CompileOutput();
  return FE.compileTerm(Linked, Opts);
}
