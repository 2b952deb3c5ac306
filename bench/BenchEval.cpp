//===- bench/BenchEval.cpp - Experiment P2 --------------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment P2: the run-time mechanism.  The paper's translation
/// compiles concepts into dictionary passing; Figure 3 shows the
/// alternative the programmer would write by hand in System F
/// (higher-order parameters).  This benchmark folds a list of N ints
/// three ways:
///
///   fg_dict : Figure 5's accumulate via concepts -> dictionaries
///   sf_hof  : Figure 3's sum with explicitly passed add/zero
///   native  : the same fold in C++ over the runtime list value
///
/// Expected shape: fg_dict ~ sf_hof (dictionary projection adds only a
/// small constant over a direct parameter), both orders of magnitude
/// above native (interpretation overhead), and all three linear in N.
///
//===----------------------------------------------------------------------===//

#include "syntax/Frontend.h"
#include "BenchMain.h"
#include <benchmark/benchmark.h>
#include <sstream>

using namespace fg;

namespace {

std::string consList(unsigned N) {
  std::string L = "nil[int]";
  for (unsigned I = 0; I < N; ++I)
    L = "cons[int](" + std::to_string(I % 7) + ", " + L + ")";
  return L;
}

std::string dictProgram(unsigned N) {
  return R"(
    concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = (forall t where Monoid<t>.
      fix (fun(accum : fn(list t) -> t).
        fun(ls : list t).
          if null[t](ls) then Monoid<t>.identity_elt
          else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))))
    in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int]()" +
         consList(N) + ")";
}

std::string hofProgram(unsigned N) {
  return R"(
    let sum = (forall t.
      fix (fun(sum : fn(list t, fn(t,t) -> t, t) -> t).
        fun(ls : list t, add : fn(t,t) -> t, zero : t).
          if null[t](ls) then zero
          else add(car[t](ls), sum(cdr[t](ls), add, zero))))
    in
    sum[int]()" +
         consList(N) + ", iadd, 0)";
}

/// Compile once, evaluate per iteration.
class CompiledProgram {
public:
  explicit CompiledProgram(const std::string &Source) {
    Out = FE.compile("bench.fg", Source);
  }
  bool ok() const { return Out.Success; }
  const std::string &error() const { return Out.ErrorMessage; }
  sf::EvalResult run() { return FE.run(Out); }

private:
  Frontend FE;
  CompileOutput Out;
};

} // namespace

static void BM_EvalDictAccumulate(benchmark::State &State) {
  CompiledProgram P(dictProgram(State.range(0)));
  if (!P.ok()) {
    State.SkipWithError(P.error().c_str());
    return;
  }
  for (auto _ : State) {
    sf::EvalResult R = P.run();
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    benchmark::DoNotOptimize(R.Val);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_EvalDictAccumulate)->Arg(16)->Arg(128)->Arg(512)->Arg(1024);

static void BM_EvalHigherOrderSum(benchmark::State &State) {
  CompiledProgram P(hofProgram(State.range(0)));
  if (!P.ok()) {
    State.SkipWithError(P.error().c_str());
    return;
  }
  for (auto _ : State) {
    sf::EvalResult R = P.run();
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    benchmark::DoNotOptimize(R.Val);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_EvalHigherOrderSum)->Arg(16)->Arg(128)->Arg(512)->Arg(1024);

static void BM_EvalSpecializedAccumulate(benchmark::State &State) {
  // The C++-instantiation model recovered by the specializer
  // (systemf/Optimize.h): dictionaries inlined, member projections
  // folded — measures what the dictionary indirection itself costs.
  Frontend FE;
  CompileOutput Out = FE.compile("bench.fg", dictProgram(State.range(0)));
  if (!Out.Success) {
    State.SkipWithError(Out.ErrorMessage.c_str());
    return;
  }
  RunOptions O1{.Level = RunLevel::at(sf::SpecializeLevel::Off)};
  FE.optimize(Out);
  for (auto _ : State) {
    sf::EvalResult R = FE.run(Out, O1);
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    benchmark::DoNotOptimize(R.Val);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_EvalSpecializedAccumulate)->Arg(16)->Arg(128)->Arg(512)->Arg(1024);

static void BM_EvalDirectInterpreter(benchmark::State &State) {
  // Ablation: the same concept-based accumulate run by the *direct*
  // F_G interpreter (runtime model lookup + type normalization) instead
  // of the dictionary-passing translation.  Shows what the translation
  // buys: dictionaries are resolved once per instantiation, whereas the
  // direct semantics re-resolves at member access.
  Frontend FE;
  CompileOutput Out = FE.compile("bench.fg", dictProgram(State.range(0)));
  if (!Out.Success) {
    State.SkipWithError(Out.ErrorMessage.c_str());
    return;
  }
  for (auto _ : State) {
    interp::EvalResult R = FE.runDirect(Out);
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    benchmark::DoNotOptimize(R.Val);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_EvalDirectInterpreter)->Arg(16)->Arg(128)->Arg(512)->Arg(1024);

static void BM_EvalNativeFold(benchmark::State &State) {
  // The same fold over the same runtime list representation, in C++.
  std::vector<int64_t> Elems;
  for (unsigned I = 0; I < State.range(0); ++I)
    Elems.push_back((State.range(0) - 1 - I) % 7);
  sf::ValuePtr L = sf::makeIntListValue(Elems);
  for (auto _ : State) {
    int64_t Sum = 0;
    for (const auto *N = cast<sf::ListValue>(L.get()); N && !N->isNil();
         N = N->getTail().get())
      Sum += cast<sf::IntValue>(N->getHead().get())->getValue();
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_EvalNativeFold)->Arg(16)->Arg(128)->Arg(1024)->Arg(4096);

/// Instantiation cost alone: evaluate `accumulate[int]` (dictionary
/// application) without folding anything.
static void BM_EvalInstantiationOnly(benchmark::State &State) {
  CompiledProgram P(R"(
    concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = (forall t where Monoid<t>.
      fix (fun(accum : fn(list t) -> t).
        fun(ls : list t).
          if null[t](ls) then Monoid<t>.identity_elt
          else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))))
    in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int])");
  if (!P.ok()) {
    State.SkipWithError(P.error().c_str());
    return;
  }
  for (auto _ : State) {
    sf::EvalResult R = P.run();
    benchmark::DoNotOptimize(R.Val);
  }
}
BENCHMARK(BM_EvalInstantiationOnly);

FG_BENCH_MAIN()
