//===- modules/Interface.cpp - Serialized module interfaces ---------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "modules/Interface.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include <cassert>
#include <cctype>
#include <cstdio>
#include <sstream>

using namespace fg;
using namespace fg::modules;

//===----------------------------------------------------------------------===//
// Declaration-spine helpers
//===----------------------------------------------------------------------===//

static bool isSpineNode(const Term *T) {
  switch (T->getKind()) {
  case TermKind::Let:
  case TermKind::ConceptDecl:
  case TermKind::ModelDecl:
  case TermKind::TypeAlias:
  case TermKind::UseModel:
    return true;
  default:
    return false;
  }
}

static const Term *spineBody(const Term *T) {
  switch (T->getKind()) {
  case TermKind::Let:
    return cast<LetTerm>(T)->getBody();
  case TermKind::ConceptDecl:
    return cast<ConceptDeclTerm>(T)->getBody();
  case TermKind::ModelDecl:
    return cast<ModelDeclTerm>(T)->getBody();
  case TermKind::TypeAlias:
    return cast<TypeAliasTerm>(T)->getBody();
  case TermKind::UseModel:
    return cast<UseModelTerm>(T)->getBody();
  default:
    assert(false && "not a spine node");
    return nullptr;
  }
}

SpineScan fg::modules::scanSpine(const Term *ModuleBody) {
  SpineScan S;
  const Term *T = ModuleBody;
  while (isSpineNode(T)) {
    S.Nodes.push_back(T);
    T = spineBody(T);
  }
  S.Tail = T;
  return S;
}

const Term *fg::modules::rebuildSpine(TermArena &Arena, const Term *ModuleBody,
                                      const Term *NewTail) {
  if (!isSpineNode(ModuleBody))
    return NewTail;
  const Term *Body = rebuildSpine(Arena, spineBody(ModuleBody), NewTail);
  switch (ModuleBody->getKind()) {
  case TermKind::Let: {
    const auto *L = cast<LetTerm>(ModuleBody);
    return Arena.makeLet(L->getName(), L->getInit(), Body, L->getLoc());
  }
  case TermKind::ConceptDecl: {
    const auto *C = cast<ConceptDeclTerm>(ModuleBody);
    return Arena.makeConceptDecl(C->getConceptId(), C->getName(),
                                 C->getParams(), C->getAssocTypes(),
                                 C->getRefines(), C->getMembers(),
                                 C->getEquations(), Body, C->getLoc());
  }
  case TermKind::ModelDecl: {
    const auto *M = cast<ModelDeclTerm>(ModuleBody);
    return Arena.makeModelDecl(M->getConceptId(), M->getConceptName(),
                               M->getArgs(), M->getAssocBindings(),
                               M->getMembers(), M->getModelName(), Body,
                               M->getLoc(), M->getParams(),
                               M->getRequirements(), M->getEquations());
  }
  case TermKind::TypeAlias: {
    const auto *A = cast<TypeAliasTerm>(ModuleBody);
    return Arena.makeTypeAlias(A->getParamId(), A->getName(),
                               A->getAliased(), Body, A->getLoc());
  }
  case TermKind::UseModel: {
    const auto *U = cast<UseModelTerm>(ModuleBody);
    return Arena.makeUseModel(U->getModelName(), Body, U->getLoc());
  }
  default:
    return NewTail;
  }
}

const Term *fg::modules::buildExportProbe(TermArena &Arena,
                                          const Term *ModuleBody,
                                          std::vector<std::string>
                                              &ExportNames) {
  SpineScan S = scanSpine(ModuleBody);
  ExportNames.clear();
  std::set<std::string> Seen;
  for (const Term *N : S.Nodes)
    if (const auto *L = dyn_cast<LetTerm>(N))
      if (Seen.insert(L->getName()).second)
        ExportNames.push_back(L->getName());
  if (ExportNames.empty())
    return ModuleBody;
  std::vector<const Term *> Elems;
  Elems.reserve(ExportNames.size() + 1);
  for (const std::string &Name : ExportNames)
    Elems.push_back(Arena.makeVar(Name));
  Elems.push_back(S.Tail);
  return rebuildSpine(Arena, ModuleBody, Arena.makeTuple(std::move(Elems)));
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

uint64_t fg::modules::fnv1a64(std::string_view Data, uint64_t Seed) {
  uint64_t H = Seed;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

static std::string hashToHex(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

uint64_t fg::modules::interfaceHash(
    const std::string &Source,
    const std::vector<std::pair<std::string, uint64_t>> &Deps) {
  uint64_t H = fnv1a64("fgi 1");
  H = fnv1a64(Source, H);
  for (const auto &[Name, DepHash] : Deps) {
    H = fnv1a64(Name, H);
    H = fnv1a64(hashToHex(DepHash), H);
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Wire writer
//===----------------------------------------------------------------------===//

namespace {

/// Writes wire-format types and records every concept id and type
/// parameter id they mention, so the reference lines can be limited to
/// the imports the interface actually uses.
struct Writer {
  std::ostringstream OS;
  std::set<unsigned> Concepts, Params;

  void ref(const ConceptRef &R) {
    Concepts.insert(R.ConceptId);
    OS << "(ref " << R.ConceptId;
    for (const Type *A : R.Args) {
      OS << " ";
      type(A);
    }
    OS << ")";
  }

  void eq(const TypeEquation &E) {
    OS << "(";
    type(E.Lhs);
    OS << " ";
    type(E.Rhs);
    OS << ")";
  }

  void type(const Type *T) {
    switch (T->getKind()) {
    case TypeKind::Int:
      OS << "int";
      return;
    case TypeKind::Bool:
      OS << "bool";
      return;
    case TypeKind::Param: {
      const auto *P = cast<ParamType>(T);
      Params.insert(P->getId());
      OS << "(p " << P->getId() << " " << P->getName() << ")";
      return;
    }
    case TypeKind::Arrow: {
      const auto *A = cast<ArrowType>(T);
      OS << "(-> (";
      bool First = true;
      for (const Type *P : A->getParams()) {
        OS << (First ? "" : " ");
        type(P);
        First = false;
      }
      OS << ") ";
      type(A->getResult());
      OS << ")";
      return;
    }
    case TypeKind::Tuple: {
      OS << "(tup";
      for (const Type *E : cast<TupleType>(T)->getElements()) {
        OS << " ";
        type(E);
      }
      OS << ")";
      return;
    }
    case TypeKind::List:
      OS << "(list ";
      type(cast<ListType>(T)->getElement());
      OS << ")";
      return;
    case TypeKind::ForAll: {
      const auto *F = cast<ForAllType>(T);
      OS << "(all (";
      bool First = true;
      for (const TypeParamDecl &P : F->getParams()) {
        OS << (First ? "" : " ") << "(" << P.Id << " " << P.Name << ")";
        First = false;
      }
      OS << ") (reqs";
      for (const ConceptRef &R : F->getRequirements()) {
        OS << " ";
        ref(R);
      }
      OS << ") (eqs";
      for (const TypeEquation &E : F->getEquations()) {
        OS << " ";
        eq(E);
      }
      OS << ") ";
      type(F->getBody());
      OS << ")";
      return;
    }
    case TypeKind::Assoc: {
      const auto *A = cast<AssocType>(T);
      Concepts.insert(A->getConceptId());
      OS << "(assoc " << A->getConceptId() << " " << A->getMember();
      for (const Type *Arg : A->getArgs()) {
        OS << " ";
        type(Arg);
      }
      OS << ")";
      return;
    }
    }
    assert(false && "unknown type kind");
  }

  void paramList(const char *Head, const std::vector<TypeParamDecl> &Ps) {
    OS << "(" << Head;
    for (const TypeParamDecl &P : Ps)
      OS << " (" << P.Id << " " << P.Name << ")";
    OS << ")";
  }
};

} // namespace

std::string fg::modules::serializeInterface(const ModuleInterface &I,
                                            const ImportEnv &Env) {
  // Everything after the reference lines is written first, so that the
  // references can be limited to the imports it mentions.
  Writer W;
  std::ostringstream &OS = W.OS;
  // Own declarations in spine order: each references only earlier ones.
  for (const auto &D : I.Decls) {
    if (const auto *CI = std::get_if<ConceptInfo>(&D)) {
      OS << " (cdecl " << CI->Id << " " << CI->Name << " ";
      W.paramList("params", CI->Params);
      OS << " (assocs";
      for (const AssocTypeDecl &A : CI->Assocs)
        OS << " (" << A.ParamId << " " << A.Name << ")";
      OS << ") (refines";
      for (const ConceptRef &R : CI->Refines) {
        OS << " ";
        W.ref(R);
      }
      OS << ") (members";
      for (const ConceptMember &M : CI->Members) {
        OS << " (" << M.Name << " ";
        W.type(M.Ty);
        OS << " " << (M.Default ? 1 : 0) << ")";
      }
      OS << ") (eqs";
      for (const TypeEquation &E : CI->Equations) {
        OS << " ";
        W.eq(E);
      }
      OS << "))\n";
    } else {
      const auto &A = std::get<AliasExport>(D);
      OS << " (adecl " << A.ParamId << " " << A.Name << " ";
      W.type(A.Target);
      OS << ")\n";
    }
  }
  OS << ")\n";

  OS << "(models\n";
  for (const ModelExport &M : I.Models) {
    W.Concepts.insert(M.ConceptId);
    OS << " (mdl " << (M.Name ? *M.Name : std::string("_")) << " "
       << M.DictVar << " " << M.ConceptId << " ";
    W.paramList("params", M.Params);
    OS << " (reqs";
    for (const ConceptRef &R : M.Requirements) {
      OS << " ";
      W.ref(R);
    }
    OS << ") (eqs";
    for (const TypeEquation &E : M.Equations) {
      OS << " ";
      W.eq(E);
    }
    OS << ") (args";
    for (const Type *A : M.Args) {
      OS << " ";
      W.type(A);
    }
    OS << ") (assocs";
    for (const auto &[Name, Ty] : M.AssocBindings) {
      OS << " (" << Name << " ";
      W.type(Ty);
      OS << ")";
    }
    OS << "))\n";
  }
  OS << ")\n";

  OS << "(values\n";
  for (const ValueExport &V : I.Values) {
    OS << " (val " << V.Name << " ";
    W.type(V.Ty);
    OS << ")\n";
  }
  OS << ")\n";

  OS << "(result ";
  if (I.ResultType)
    W.type(I.ResultType);
  else
    OS << "int";
  OS << ")\n)\n";

  std::ostringstream Head;
  Head << "(fgi 1\n";
  Head << "(module " << I.ModuleName << ")\n";
  Head << "(hash " << hashToHex(I.Hash) << ")\n";
  Head << "(deps";
  for (const auto &[Name, H] : I.Deps)
    Head << " (" << Name << " " << hashToHex(H) << ")";
  Head << ")\n";
  Head << "(decls\n";
  // The imports mentioned above (no dependencies among references), in
  // the deterministic map order.
  for (const auto &[Key, Id] : Env.ConceptIds)
    if (W.Concepts.count(Id))
      Head << " (cref " << Id << " " << Key.first << " " << Key.second
           << ")\n";
  for (const auto &[Key, Id] : Env.AliasParams)
    if (W.Params.count(Id))
      Head << " (aref " << Id << " " << Key.first << " " << Key.second
           << ")\n";
  return Head.str() + OS.str();
}

//===----------------------------------------------------------------------===//
// Building an interface from a checked module
//===----------------------------------------------------------------------===//

bool fg::modules::buildInterface(Frontend &FE, const ImportEnv &Env,
                                 const std::string &ModuleName,
                                 const Term *ModuleBody,
                                 const std::vector<std::string> &ExportNames,
                                 const Type *ProbeType, ModuleInterface &Out,
                                 std::string &Error) {
  Out = ModuleInterface();
  Out.ModuleName = ModuleName;
  Checker &C = FE.getChecker();
  SpineScan S = scanSpine(ModuleBody);
  unsigned NextModel = 0;
  auto freshDictVar = [&]() {
    return "$" + ModuleName + "$model" + std::to_string(NextModel++);
  };

  for (const Term *N : S.Nodes) {
    switch (N->getKind()) {
    case TermKind::Let:
      break; // Values are read off the probe type below.
    case TermKind::ConceptDecl: {
      const auto *CD = cast<ConceptDeclTerm>(N);
      const ConceptInfo *Info = C.findConcept(CD->getConceptId());
      if (!Info) {
        Error = "internal error: spine concept `" + CD->getName() +
                "` was not registered by the checker";
        return false;
      }
      Out.Decls.emplace_back(*Info);
      break;
    }
    case TermKind::TypeAlias: {
      const auto *A = cast<TypeAliasTerm>(N);
      Out.Decls.emplace_back(
          AliasExport{A->getParamId(), A->getName(), A->getAliased()});
      break;
    }
    case TermKind::ModelDecl: {
      const auto *MD = cast<ModelDeclTerm>(N);
      ModelExport M;
      M.ConceptId = MD->getConceptId();
      M.Args = MD->getArgs();
      M.Params = MD->getParams();
      M.Requirements = MD->getRequirements();
      M.Equations = MD->getEquations();
      for (const AssocBinding &B : MD->getAssocBindings())
        M.AssocBindings.emplace_back(B.Name, B.Ty);
      M.Name = MD->getModelName();
      M.DictVar = freshDictVar();
      Out.Models.push_back(std::move(M));
      break;
    }
    case TermKind::UseModel: {
      // A spine-level `use` makes a named model ambient for the rest of
      // the module, and thus for importers: re-export it unnamed.
      const auto *U = cast<UseModelTerm>(N);
      const ModelExport *Found = nullptr;
      for (size_t I = Out.Models.size(); I != 0; --I)
        if (Out.Models[I - 1].Name &&
            *Out.Models[I - 1].Name == U->getModelName()) {
          Found = &Out.Models[I - 1];
          break;
        }
      if (!Found) {
        auto It = Env.NamedModels.find(U->getModelName());
        if (It != Env.NamedModels.end())
          Found = &It->second;
      }
      if (!Found) {
        Error = "internal error: `use " + U->getModelName() +
                "` in the module spine resolves to no exported model";
        return false;
      }
      ModelExport M = *Found;
      M.Name = std::nullopt;
      M.DictVar = freshDictVar();
      Out.Models.push_back(std::move(M));
      break;
    }
    default:
      break;
    }
  }

  if (ExportNames.empty()) {
    Out.ResultType = ProbeType;
    return true;
  }
  const auto *Tup = dyn_cast<TupleType>(ProbeType);
  if (!Tup || Tup->getNumElements() != ExportNames.size() + 1) {
    Error = "internal error: export probe did not produce a tuple of " +
            std::to_string(ExportNames.size() + 1) + " types";
    return false;
  }
  for (size_t I = 0; I != ExportNames.size(); ++I)
    Out.Values.push_back({ExportNames[I], Tup->getElement(I)});
  Out.ResultType = Tup->getElement(ExportNames.size());
  return true;
}

//===----------------------------------------------------------------------===//
// Wire reader
//===----------------------------------------------------------------------===//

struct fg::modules::Sexp {
  bool IsAtom = false;
  std::string Atom;
  std::vector<Sexp> Items;

  bool isList(const char *Head) const {
    return !IsAtom && !Items.empty() && Items[0].IsAtom &&
           Items[0].Atom == Head;
  }
};

namespace {

bool parseSexp(const std::string &Text, size_t &Pos, Sexp &Out,
               std::string &Error) {
  while (Pos < Text.size() &&
         std::isspace(static_cast<unsigned char>(Text[Pos])))
    ++Pos;
  if (Pos >= Text.size()) {
    Error = "unexpected end of interface text";
    return false;
  }
  if (Text[Pos] == '(') {
    ++Pos;
    Out.IsAtom = false;
    Out.Items.clear();
    for (;;) {
      while (Pos < Text.size() &&
             std::isspace(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      if (Pos >= Text.size()) {
        Error = "unterminated list in interface text";
        return false;
      }
      if (Text[Pos] == ')') {
        ++Pos;
        return true;
      }
      Sexp Child;
      if (!parseSexp(Text, Pos, Child, Error))
        return false;
      Out.Items.push_back(std::move(Child));
    }
  }
  if (Text[Pos] == ')') {
    Error = "unbalanced `)` in interface text";
    return false;
  }
  size_t Begin = Pos;
  while (Pos < Text.size() && Text[Pos] != '(' && Text[Pos] != ')' &&
         !std::isspace(static_cast<unsigned char>(Text[Pos])))
    ++Pos;
  Out.IsAtom = true;
  Out.Atom = Text.substr(Begin, Pos - Begin);
  return true;
}

bool parseHex(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  Out = 0;
  for (char C : S) {
    Out <<= 4;
    if (C >= '0' && C <= '9')
      Out |= static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Out |= static_cast<uint64_t>(C - 'a' + 10);
    else
      return false;
  }
  return true;
}

bool parseKey(const Sexp &S, unsigned &Out) {
  if (!S.IsAtom)
    return false;
  try {
    Out = static_cast<unsigned>(std::stoul(S.Atom));
  } catch (...) {
    return false;
  }
  return true;
}

/// State for deserializing one interface's types into a Frontend.
struct ReadContext {
  Frontend &FE;
  ImportEnv &Env;
  std::string File; ///< For diagnostics: the module being instantiated.
  std::unordered_map<unsigned, unsigned> ParamMap;
  std::unordered_map<unsigned, unsigned> ConceptMap;
  std::string Error;

  bool fail(const std::string &Msg) {
    Error = "interface of module `" + File + "`: " + Msg;
    return false;
  }
};

const Type *readType(ReadContext &RC, const Sexp &S);

bool readRef(ReadContext &RC, const Sexp &S, ConceptRef &Out);

bool mapConcept(ReadContext &RC, const Sexp &KeyS, unsigned &LocalId) {
  unsigned Key;
  if (!parseKey(KeyS, Key))
    return RC.fail("malformed concept key");
  auto It = RC.ConceptMap.find(Key);
  if (It == RC.ConceptMap.end())
    return RC.fail("reference to concept key " + KeyS.Atom +
                   " before its declaration");
  LocalId = It->second;
  return true;
}

const Type *readType(ReadContext &RC, const Sexp &S) {
  TypeContext &Ctx = RC.FE.getFgContext();
  if (S.IsAtom) {
    if (S.Atom == "int")
      return Ctx.getIntType();
    if (S.Atom == "bool")
      return Ctx.getBoolType();
    RC.fail("unknown type atom `" + S.Atom + "`");
    return nullptr;
  }
  if (S.Items.empty() || !S.Items[0].IsAtom) {
    RC.fail("malformed type expression");
    return nullptr;
  }
  const std::string &Head = S.Items[0].Atom;
  if (Head == "p") {
    unsigned Key;
    if (S.Items.size() != 3 || !parseKey(S.Items[1], Key) ||
        !S.Items[2].IsAtom) {
      RC.fail("malformed parameter reference");
      return nullptr;
    }
    auto It = RC.ParamMap.find(Key);
    if (It == RC.ParamMap.end()) {
      RC.fail("unbound type parameter `" + S.Items[2].Atom + "`");
      return nullptr;
    }
    return Ctx.getParamType(It->second, S.Items[2].Atom);
  }
  if (Head == "->") {
    if (S.Items.size() != 3 || S.Items[1].IsAtom) {
      RC.fail("malformed function type");
      return nullptr;
    }
    std::vector<const Type *> Params;
    for (const Sexp &P : S.Items[1].Items) {
      const Type *T = readType(RC, P);
      if (!T)
        return nullptr;
      Params.push_back(T);
    }
    const Type *Res = readType(RC, S.Items[2]);
    return Res ? Ctx.getArrowType(std::move(Params), Res) : nullptr;
  }
  if (Head == "tup") {
    std::vector<const Type *> Elems;
    for (size_t I = 1; I != S.Items.size(); ++I) {
      const Type *T = readType(RC, S.Items[I]);
      if (!T)
        return nullptr;
      Elems.push_back(T);
    }
    return Ctx.getTupleType(std::move(Elems));
  }
  if (Head == "list") {
    if (S.Items.size() != 2) {
      RC.fail("malformed list type");
      return nullptr;
    }
    const Type *E = readType(RC, S.Items[1]);
    return E ? Ctx.getListType(E) : nullptr;
  }
  if (Head == "all") {
    if (S.Items.size() != 5 || S.Items[1].IsAtom ||
        !S.Items[2].isList("reqs") || !S.Items[3].isList("eqs")) {
      RC.fail("malformed forall type");
      return nullptr;
    }
    std::vector<TypeParamDecl> Params;
    for (const Sexp &P : S.Items[1].Items) {
      unsigned Key;
      if (P.IsAtom || P.Items.size() != 2 || !parseKey(P.Items[0], Key) ||
          !P.Items[1].IsAtom) {
        RC.fail("malformed forall binder");
        return nullptr;
      }
      unsigned Fresh = Ctx.freshParamId();
      RC.ParamMap[Key] = Fresh;
      Params.push_back({Fresh, P.Items[1].Atom});
    }
    std::vector<ConceptRef> Reqs;
    for (size_t I = 1; I != S.Items[2].Items.size(); ++I) {
      ConceptRef R;
      if (!readRef(RC, S.Items[2].Items[I], R))
        return nullptr;
      Reqs.push_back(std::move(R));
    }
    std::vector<TypeEquation> Eqs;
    for (size_t I = 1; I != S.Items[3].Items.size(); ++I) {
      const Sexp &E = S.Items[3].Items[I];
      if (E.IsAtom || E.Items.size() != 2) {
        RC.fail("malformed type equation");
        return nullptr;
      }
      const Type *L = readType(RC, E.Items[0]);
      const Type *R = readType(RC, E.Items[1]);
      if (!L || !R)
        return nullptr;
      Eqs.push_back({L, R});
    }
    const Type *Body = readType(RC, S.Items[4]);
    if (!Body)
      return nullptr;
    return Ctx.getForAllType(std::move(Params), std::move(Reqs),
                             std::move(Eqs), Body);
  }
  if (Head == "assoc") {
    if (S.Items.size() < 3 || !S.Items[2].IsAtom) {
      RC.fail("malformed associated type");
      return nullptr;
    }
    unsigned Cid;
    if (!mapConcept(RC, S.Items[1], Cid))
      return nullptr;
    const ConceptInfo *Info = RC.FE.getChecker().findConcept(Cid);
    if (!Info) {
      RC.fail("associated type of an unknown concept");
      return nullptr;
    }
    std::vector<const Type *> Args;
    for (size_t I = 3; I != S.Items.size(); ++I) {
      const Type *T = readType(RC, S.Items[I]);
      if (!T)
        return nullptr;
      Args.push_back(T);
    }
    return Ctx.getAssocType(Cid, Info->Name, std::move(Args),
                            S.Items[2].Atom);
  }
  RC.fail("unknown type form `" + Head + "`");
  return nullptr;
}

bool readRef(ReadContext &RC, const Sexp &S, ConceptRef &Out) {
  if (S.IsAtom || S.Items.size() < 2 || !S.Items[0].IsAtom ||
      S.Items[0].Atom != "ref")
    return RC.fail("malformed concept reference");
  unsigned Cid;
  if (!mapConcept(RC, S.Items[1], Cid))
    return false;
  const ConceptInfo *Info = RC.FE.getChecker().findConcept(Cid);
  if (!Info)
    return RC.fail("reference to an unknown concept");
  Out.ConceptId = Cid;
  Out.ConceptName = Info->Name;
  Out.Args.clear();
  for (size_t I = 2; I != S.Items.size(); ++I) {
    const Type *T = readType(RC, S.Items[I]);
    if (!T)
      return false;
    Out.Args.push_back(T);
  }
  return true;
}

bool readEqs(ReadContext &RC, const Sexp &EqsList,
             std::vector<TypeEquation> &Out) {
  for (size_t I = 1; I != EqsList.Items.size(); ++I) {
    const Sexp &E = EqsList.Items[I];
    if (E.IsAtom || E.Items.size() != 2)
      return RC.fail("malformed type equation");
    const Type *L = readType(RC, E.Items[0]);
    const Type *R = readType(RC, E.Items[1]);
    if (!L || !R)
      return false;
    Out.push_back({L, R});
  }
  return true;
}

bool readRefs(ReadContext &RC, const Sexp &RefsList,
              std::vector<ConceptRef> &Out) {
  for (size_t I = 1; I != RefsList.Items.size(); ++I) {
    ConceptRef R;
    if (!readRef(RC, RefsList.Items[I], R))
      return false;
    Out.push_back(std::move(R));
  }
  return true;
}

/// Reads a `(params (key name)...)`-shaped list, minting fresh local
/// parameter ids and recording them in the ParamMap.
bool readBinders(ReadContext &RC, const Sexp &List,
                 std::vector<TypeParamDecl> &Out) {
  for (size_t I = 1; I != List.Items.size(); ++I) {
    const Sexp &P = List.Items[I];
    unsigned Key;
    if (P.IsAtom || P.Items.size() != 2 || !parseKey(P.Items[0], Key) ||
        !P.Items[1].IsAtom)
      return RC.fail("malformed parameter binder");
    unsigned Fresh = RC.FE.getFgContext().freshParamId();
    RC.ParamMap[Key] = Fresh;
    Out.push_back({Fresh, P.Items[1].Atom});
  }
  return true;
}

const Sexp *findField(const Sexp &Root, const char *Head) {
  for (const Sexp &S : Root.Items)
    if (S.isList(Head))
      return &S;
  return nullptr;
}

} // namespace

bool fg::modules::parseInterface(const std::string &Text,
                                 ParsedInterface &Out, std::string &Error) {
  stats::Statistics::global().add("modules.interface.parses");
  auto Root = std::make_shared<Sexp>();
  size_t Pos = 0;
  if (!parseSexp(Text, Pos, *Root, Error))
    return false;
  if (Root->IsAtom || Root->Items.size() < 2 || !Root->Items[0].IsAtom ||
      Root->Items[0].Atom != "fgi") {
    Error = "not an fgc interface file";
    return false;
  }
  if (!Root->Items[1].IsAtom || Root->Items[1].Atom != "1") {
    Error = "unsupported interface format version";
    return false;
  }
  const Sexp *ModuleS = findField(*Root, "module");
  if (!ModuleS || ModuleS->Items.size() != 2 || !ModuleS->Items[1].IsAtom) {
    Error = "interface is missing its module name";
    return false;
  }
  Out = ParsedInterface();
  Out.ModuleName = ModuleS->Items[1].Atom;
  auto fail = [&](const std::string &Msg) {
    Error = "interface of module `" + Out.ModuleName + "`: " + Msg;
    return false;
  };
  const Sexp *HashS = findField(*Root, "hash");
  if (!HashS || HashS->Items.size() != 2 || !HashS->Items[1].IsAtom ||
      !parseHex(HashS->Items[1].Atom, Out.Hash))
    return fail("missing or malformed hash");
  if (const Sexp *DepsS = findField(*Root, "deps"))
    for (size_t I = 1; I != DepsS->Items.size(); ++I) {
      const Sexp &D = DepsS->Items[I];
      uint64_t H;
      if (D.IsAtom || D.Items.size() != 2 || !D.Items[0].IsAtom ||
          !D.Items[1].IsAtom || !parseHex(D.Items[1].Atom, H))
        return fail("malformed dependency entry");
      Out.Deps.emplace_back(D.Items[0].Atom, H);
    }
  Out.Root = std::move(Root);
  return true;
}

bool fg::modules::instantiateInterface(const std::string &Text, Frontend &FE,
                                       ImportEnv &Env, ModuleInterface &Out,
                                       std::string &Error) {
  ParsedInterface P;
  return parseInterface(Text, P, Error) &&
         instantiateInterface(P, FE, Env, Out, Error);
}

bool fg::modules::instantiateInterface(const ParsedInterface &P,
                                       Frontend &FE, ImportEnv &Env,
                                       ModuleInterface &Out,
                                       std::string &Error) {
  stats::ScopedTimer Timer("modules.instantiate");
  const Sexp &Root = *P.Root;
  Out = ModuleInterface();
  Out.ModuleName = P.ModuleName;
  Out.Hash = P.Hash;
  Out.Deps = P.Deps;

  ReadContext RC{FE, Env, Out.ModuleName, {}, {}, {}};
  Checker &C = FE.getChecker();
  auto fail = [&](const std::string &Msg) {
    Error = RC.Error.empty()
                ? "interface of module `" + Out.ModuleName + "`: " + Msg
                : RC.Error;
    return false;
  };

  // Declarations, in dependency order.
  if (const Sexp *Decls = findField(Root, "decls")) {
    for (size_t I = 1; I != Decls->Items.size(); ++I) {
      const Sexp &D = Decls->Items[I];
      if (D.IsAtom || D.Items.empty() || !D.Items[0].IsAtom)
        return fail("malformed declaration entry");
      const std::string &Kind = D.Items[0].Atom;
      if (Kind == "cref" || Kind == "aref") {
        unsigned Key;
        if (D.Items.size() != 4 || !parseKey(D.Items[1], Key) ||
            !D.Items[2].IsAtom || !D.Items[3].IsAtom)
          return fail("malformed import reference");
        std::pair<std::string, std::string> Origin{D.Items[2].Atom,
                                                   D.Items[3].Atom};
        if (Kind == "cref") {
          auto It = Env.ConceptIds.find(Origin);
          if (It == Env.ConceptIds.end())
            return fail("references concept `" + Origin.second +
                        "` of module `" + Origin.first +
                        "`, whose interface is not loaded");
          RC.ConceptMap[Key] = It->second;
        } else {
          auto It = Env.AliasParams.find(Origin);
          if (It == Env.AliasParams.end())
            return fail("references type alias `" + Origin.second +
                        "` of module `" + Origin.first +
                        "`, whose interface is not loaded");
          RC.ParamMap[Key] = It->second;
        }
      } else if (Kind == "cdecl") {
        unsigned Key;
        if (D.Items.size() != 8 || !parseKey(D.Items[1], Key) ||
            !D.Items[2].IsAtom || !D.Items[3].isList("params") ||
            !D.Items[4].isList("assocs") || !D.Items[5].isList("refines") ||
            !D.Items[6].isList("members") || !D.Items[7].isList("eqs"))
          return fail("malformed concept declaration");
        ConceptInfo Info;
        Info.Id = FE.getFgContext().freshConceptId();
        Info.Name = D.Items[2].Atom;
        if (!readBinders(RC, D.Items[3], Info.Params))
          return fail(RC.Error);
        std::vector<TypeParamDecl> AssocParams;
        if (!readBinders(RC, D.Items[4], AssocParams))
          return fail(RC.Error);
        for (const TypeParamDecl &A : AssocParams)
          Info.Assocs.push_back({A.Id, A.Name});
        // The concept must be visible to its own member types' assoc
        // references before they are read.
        RC.ConceptMap[Key] = Info.Id;
        if (!readRefs(RC, D.Items[5], Info.Refines))
          return fail(RC.Error);
        for (size_t J = 1; J != D.Items[6].Items.size(); ++J) {
          const Sexp &M = D.Items[6].Items[J];
          if (M.IsAtom || M.Items.size() != 3 || !M.Items[0].IsAtom ||
              !M.Items[2].IsAtom)
            return fail("malformed concept member");
          ConceptMember CM;
          CM.Name = M.Items[0].Atom;
          CM.Ty = readType(RC, M.Items[1]);
          if (!CM.Ty)
            return fail(RC.Error);
          // Default bodies are terms and do not serialize; the member
          // must be given explicitly by cross-module models.
          CM.Default = nullptr;
          Info.Members.push_back(std::move(CM));
        }
        if (!readEqs(RC, D.Items[7], Info.Equations))
          return fail(RC.Error);
        Env.ConceptIds[{Out.ModuleName, Info.Name}] = Info.Id;
        Env.ConceptOrigin[Info.Id] = {Out.ModuleName, Info.Name};
        Out.Decls.emplace_back(Info);
        C.declareConcept(std::move(Info));
      } else if (Kind == "adecl") {
        unsigned Key;
        if (D.Items.size() != 4 || !parseKey(D.Items[1], Key) ||
            !D.Items[2].IsAtom)
          return fail("malformed alias declaration");
        const Type *Target = readType(RC, D.Items[3]);
        if (!Target)
          return fail(RC.Error);
        unsigned Fresh = FE.getFgContext().freshParamId();
        RC.ParamMap[Key] = Fresh;
        const std::string &Name = D.Items[2].Atom;
        C.bindImportedAlias(Fresh, Name, Target);
        Env.AliasParams[{Out.ModuleName, Name}] = Fresh;
        Env.AliasOrigin[Fresh] = {Out.ModuleName, Name};
        Out.Decls.emplace_back(AliasExport{Fresh, Name, Target});
      } else {
        return fail("unknown declaration kind `" + Kind + "`");
      }
    }
  }

  // Models.
  if (const Sexp *Models = findField(Root, "models")) {
    for (size_t I = 1; I != Models->Items.size(); ++I) {
      const Sexp &M = Models->Items[I];
      if (M.IsAtom || M.Items.size() != 9 || !M.Items[0].IsAtom ||
          M.Items[0].Atom != "mdl" || !M.Items[1].IsAtom ||
          !M.Items[2].IsAtom || !M.Items[4].isList("params") ||
          !M.Items[5].isList("reqs") || !M.Items[6].isList("eqs") ||
          !M.Items[7].isList("args") || !M.Items[8].isList("assocs"))
        return fail("malformed model entry");
      ModelExport E;
      if (M.Items[1].Atom != "_")
        E.Name = M.Items[1].Atom;
      E.DictVar = M.Items[2].Atom;
      if (!mapConcept(RC, M.Items[3], E.ConceptId))
        return fail(RC.Error);
      if (!readBinders(RC, M.Items[4], E.Params))
        return fail(RC.Error);
      if (!readRefs(RC, M.Items[5], E.Requirements))
        return fail(RC.Error);
      if (!readEqs(RC, M.Items[6], E.Equations))
        return fail(RC.Error);
      for (size_t J = 1; J != M.Items[7].Items.size(); ++J) {
        const Type *T = readType(RC, M.Items[7].Items[J]);
        if (!T)
          return fail(RC.Error);
        E.Args.push_back(T);
      }
      for (size_t J = 1; J != M.Items[8].Items.size(); ++J) {
        const Sexp &B = M.Items[8].Items[J];
        if (B.IsAtom || B.Items.size() != 2 || !B.Items[0].IsAtom)
          return fail("malformed associated type binding");
        const Type *T = readType(RC, B.Items[1]);
        if (!T)
          return fail(RC.Error);
        E.AssocBindings.emplace_back(B.Items[0].Atom, T);
      }

      Checker::ImportedModel IM;
      IM.Record.ConceptId = E.ConceptId;
      IM.Record.Args = E.Args;
      IM.Record.DictVar = E.DictVar;
      IM.Record.Params = E.Params;
      IM.Record.Requirements = E.Requirements;
      IM.Record.Equations = E.Equations;
      IM.Record.AssocBindings = E.AssocBindings;
      IM.Name = E.Name;
      const sf::Type *DictTy = C.bindImportedModel(IM);
      if (!DictTy)
        return fail("model of `" +
                    (C.findConcept(E.ConceptId)
                         ? C.findConcept(E.ConceptId)->Name
                         : std::string("?")) +
                    "` could not be instantiated: " +
                    FE.getDiags().firstError());
      Env.ImportTypes.bind(E.DictVar, DictTy);
      if (E.Name)
        Env.NamedModels[*E.Name] = E;
      Out.Models.push_back(std::move(E));
    }
  }

  // Values and result type.
  if (const Sexp *Values = findField(Root, "values")) {
    for (size_t I = 1; I != Values->Items.size(); ++I) {
      const Sexp &V = Values->Items[I];
      if (V.IsAtom || V.Items.size() != 3 || !V.Items[0].IsAtom ||
          V.Items[0].Atom != "val" || !V.Items[1].IsAtom)
        return fail("malformed value entry");
      const Type *T = readType(RC, V.Items[2]);
      if (!T)
        return fail(RC.Error);
      Out.Values.push_back({V.Items[1].Atom, T});
    }
  }
  if (const Sexp *Result = findField(Root, "result")) {
    if (Result->Items.size() != 2)
      return fail("malformed result type");
    Out.ResultType = readType(RC, Result->Items[1]);
    if (!Out.ResultType)
      return fail(RC.Error);
  }

  Env.Instantiated.insert(Out.ModuleName);
  return true;
}

bool fg::modules::bindImportedValues(Frontend &FE, ImportEnv &Env,
                                     const ModuleInterface &I,
                                     std::string &Error) {
  Checker &C = FE.getChecker();
  for (const ValueExport &V : I.Values) {
    C.bindGlobal(V.Name, V.Ty);
    const sf::Type *SfTy = C.sfTypeOf(V.Ty, SourceLocation());
    if (!SfTy) {
      Error = "imported value `" + V.Name + "` of module `" + I.ModuleName +
              "` has no System F type: " + FE.getDiags().firstError();
      return false;
    }
    Env.ImportTypes.bind(V.Name, SfTy);
  }
  return true;
}
