//===- bench/BenchSpecialize.cpp - Specialization payoff ------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what whole-program specialization (-O2, systemf/Specialize.h)
/// buys over the baseline -O1 pipeline on the paper's dictionary-heavy
/// loop shapes, on both in-process execution backends (tree / vm).
/// Two workloads:
///
///   dict-accumulate : Figure 5's accumulate where the monoid members
///     are *lambda* witnesses — -O1 cannot beta-reduce the impure
///     per-element application, so every element pays a closure call;
///     -O2's let-beta names the argument and eliminates it.
///
///   model-lookup : a refinement hierarchy (Ord refines Eq) whose
///     members are consulted twice per element — the shape where
///     dictionary construction and member projection dominate.
///
/// Besides the google-benchmark timings, the custom main times -O1 vs
/// -O2 terms directly and records, per backend, the percent
/// improvement `specialize.speedup_vs_O1_pct.<backend>` (clamped at 0)
/// and the raw ratio `specialize.o1_over_o2_x100.<backend>` (100 =
/// parity, 150 = 1.5x) into the bench-stats JSON
/// (BENCH_specialize.json), keeping the headline numbers comparable
/// across PRs.
///
//===----------------------------------------------------------------------===//

#include "BenchMain.h"
#include "syntax/Frontend.h"
#include "systemf/Optimize.h"
#include "vm/Emit.h"
#include "vm/VM.h"
#include <algorithm>
#include <benchmark/benchmark.h>
#include <chrono>
#include <string>

using namespace fg;

namespace {

std::string consList(unsigned N) {
  std::string L = "nil[int]";
  for (unsigned I = 0; I < N; ++I)
    L = "cons[int](" + std::to_string(I % 7) + ", " + L + ")";
  return L;
}

/// Figure 5's accumulate with lambda witnesses: the -O1 residual is a
/// closure application per element.
std::string dictAccumulateProgram(unsigned N) {
  return R"(
    concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = (forall t where Monoid<t>.
      fix (fun(accum : fn(list t) -> t).
        fun(ls : list t).
          if null[t](ls) then Monoid<t>.identity_elt
          else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))))
    in
    model Semigroup<int> { binary_op = fun(a : int, b : int). iadd(a, b); } in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int]()" +
         consList(N) + ")";
}

/// A refinement hierarchy consulted twice per element: max-fold over
/// Ord<t> (refining Eq<t>), both members lambda witnesses.
std::string modelLookupProgram(unsigned N) {
  return R"(
    concept Eq<t> { eq : fn(t,t) -> bool; } in
    concept Ord<t> { refines Eq<t>; lt : fn(t,t) -> bool; } in
    let maxfold = (forall t where Ord<t>.
      fix (fun(go : fn(list t, t) -> t).
        fun(ls : list t, best : t).
          if null[t](ls) then best
          else if Eq<t>.eq(car[t](ls), best)
               then go(cdr[t](ls), best)
               else if Ord<t>.lt(best, car[t](ls))
                    then go(cdr[t](ls), car[t](ls))
                    else go(cdr[t](ls), best)))
    in
    model Eq<int> { eq = fun(a : int, b : int). ieq(a, b); } in
    model Ord<int> { lt = fun(a : int, b : int). ilt(a, b); } in
    maxfold[int]()" +
         consList(N) + ", 0)";
}

/// One program compiled once, optimized at the given specialization
/// level, and prepared for repeated execution on every backend.
class SpecSuite {
public:
  SpecSuite(const std::string &Source, sf::SpecializeLevel Level)
      : Level(Level) {
    Out = FE.compile("bench.fg", Source);
    if (!Out.Success) {
      Error = Out.ErrorMessage;
      return;
    }
    sf::OptimizeOptions Opts;
    Opts.Specialize = Level;
    sf::OptimizeStats Stats;
    const sf::Term *Opt = FE.optimize(Out, &Stats, Opts);
    if (!Opt) {
      Error = "optimization failed";
      return;
    }
    Chunk = vm::compile(Opt, FE.getPrelude(), &Error);
  }

  bool ok() const { return Out.Success && Chunk; }
  const std::string &error() const { return Error; }

  sf::EvalResult runOnTree() {
    return FE.run(Out, {.Level = RunLevel::at(Level)});
  }
  sf::EvalResult runOnVm() {
    vm::VM M;
    return M.run(Chunk);
  }

private:
  Frontend FE;
  sf::SpecializeLevel Level;
  CompileOutput Out;
  std::shared_ptr<const vm::Chunk> Chunk;
  std::string Error;
};

void runSpec(benchmark::State &State, const std::string &Source,
             sf::SpecializeLevel Level,
             sf::EvalResult (SpecSuite::*Run)()) {
  SpecSuite S(Source, Level);
  if (!S.ok()) {
    State.SkipWithError(S.error().c_str());
    return;
  }
  for (auto _ : State) {
    sf::EvalResult R = (S.*Run)();
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    benchmark::DoNotOptimize(R.Val);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

} // namespace

static void BM_SpecDictAccumTreeO1(benchmark::State &State) {
  runSpec(State, dictAccumulateProgram(State.range(0)),
          sf::SpecializeLevel::Off, &SpecSuite::runOnTree);
}
BENCHMARK(BM_SpecDictAccumTreeO1)->Arg(256)->Arg(1024);

static void BM_SpecDictAccumTreeO2(benchmark::State &State) {
  runSpec(State, dictAccumulateProgram(State.range(0)),
          sf::SpecializeLevel::Full, &SpecSuite::runOnTree);
}
BENCHMARK(BM_SpecDictAccumTreeO2)->Arg(256)->Arg(1024);

static void BM_SpecDictAccumVmO1(benchmark::State &State) {
  runSpec(State, dictAccumulateProgram(State.range(0)),
          sf::SpecializeLevel::Off, &SpecSuite::runOnVm);
}
BENCHMARK(BM_SpecDictAccumVmO1)->Arg(256)->Arg(1024);

static void BM_SpecDictAccumVmO2(benchmark::State &State) {
  runSpec(State, dictAccumulateProgram(State.range(0)),
          sf::SpecializeLevel::Full, &SpecSuite::runOnVm);
}
BENCHMARK(BM_SpecDictAccumVmO2)->Arg(256)->Arg(1024);

static void BM_SpecModelLookupVmO1(benchmark::State &State) {
  runSpec(State, modelLookupProgram(State.range(0)),
          sf::SpecializeLevel::Off, &SpecSuite::runOnVm);
}
BENCHMARK(BM_SpecModelLookupVmO1)->Arg(256)->Arg(1024);

static void BM_SpecModelLookupVmO2(benchmark::State &State) {
  runSpec(State, modelLookupProgram(State.range(0)),
          sf::SpecializeLevel::Full, &SpecSuite::runOnVm);
}
BENCHMARK(BM_SpecModelLookupVmO2)->Arg(256)->Arg(1024);

namespace {

uint64_t timeBackend(SpecSuite &S, sf::EvalResult (SpecSuite::*Run)(),
                     unsigned Iters) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Iters; ++I) {
    sf::EvalResult R = (S.*Run)();
    benchmark::DoNotOptimize(R.Val);
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Best-of-\p Rounds wall-clock: the minimum is the least-noise
/// estimator for a deterministic workload.
uint64_t bestOf(SpecSuite &S, sf::EvalResult (SpecSuite::*Run)(),
                unsigned Iters, unsigned Rounds) {
  uint64_t Best = ~uint64_t(0);
  for (unsigned R = 0; R < Rounds; ++R)
    Best = std::min(Best, timeBackend(S, Run, Iters));
  return Best;
}

/// Times -O1 vs -O2 on both workloads per backend and records the
/// averaged improvement into the statistics registry for the
/// bench-stats JSON.
void recordSpeedupSummary() {
  constexpr unsigned N = 512, Iters = 30, Warmup = 3, Rounds = 3;
  struct BackendRow {
    const char *Name;
    sf::EvalResult (SpecSuite::*Run)();
    double RatioSum = 0;
    int Workloads = 0;
  } Rows[] = {{"tree", &SpecSuite::runOnTree}, {"vm", &SpecSuite::runOnVm}};

  for (const std::string &Source :
       {dictAccumulateProgram(N), modelLookupProgram(N)}) {
    SpecSuite O1(Source, sf::SpecializeLevel::Off);
    SpecSuite O2(Source, sf::SpecializeLevel::Full);
    if (!O1.ok() || !O2.ok())
      continue;
    // Both pipelines must agree on the value before being compared on
    // speed.
    sf::EvalResult V1 = O1.runOnTree(), V2 = O2.runOnTree();
    if (!V1.ok() || !V2.ok() ||
        sf::valueToString(V1.Val) != sf::valueToString(V2.Val))
      continue;
    for (BackendRow &Row : Rows) {
      for (unsigned W = 0; W < Warmup; ++W) {
        (void)(O1.*Row.Run)();
        (void)(O2.*Row.Run)();
      }
      uint64_t T1 = bestOf(O1, Row.Run, Iters, Rounds);
      uint64_t T2 = bestOf(O2, Row.Run, Iters, Rounds);
      if (T2 == 0)
        continue;
      Row.RatioSum += double(T1) / double(T2);
      ++Row.Workloads;
    }
  }

  auto &Stats = stats::Statistics::global();
  for (const BackendRow &Row : Rows) {
    if (!Row.Workloads)
      continue;
    double Ratio = Row.RatioSum / Row.Workloads;
    double ImprovementPct = 100.0 * (Ratio - 1.0);
    Stats.counter(std::string("specialize.speedup_vs_O1_pct.") + Row.Name) =
        ImprovementPct > 0 ? uint64_t(ImprovementPct + 0.5) : 0;
    Stats.counter(std::string("specialize.o1_over_o2_x100.") + Row.Name) =
        uint64_t(100.0 * Ratio + 0.5);
  }
}

} // namespace

int main(int argc, char **argv) {
  fg::stats::Statistics::global().enable(true);
  recordSpeedupSummary();
  return fg::bench::runAndEmitStats(argc, argv);
}
