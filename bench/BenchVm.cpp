//===- bench/BenchVm.cpp - Execution backend comparison -------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Head-to-head comparison of the two in-process System F execution
/// backends on BenchEval's loop workloads (the Figure 5 dictionary
/// accumulate and the Figure 3 higher-order sum):
///
///   tree : the tree-walking evaluator (systemf/Eval.h)
///   vm   : the bytecode VM (vm/VM.h)
///
/// Expected shape: vm > tree in throughput, both linear in N.
/// The flat bytecode wins on exactly what the tree walk pays for per
/// node — dispatch, environment chaining, and allocation of
/// interior environment frames.
///
/// Besides the google-benchmark timings, the custom main measures the
/// ratio directly and records it in the stats JSON as
/// `vm.speedup_vs_tree_pct` (percent, so 250 means 2.5x), keeping the
/// headline number comparable across PRs via the `bench-stats`
/// trajectory.
///
//===----------------------------------------------------------------------===//

#include "BenchMain.h"
#include "syntax/Frontend.h"
#include "vm/Emit.h"
#include "vm/VM.h"
#include <algorithm>
#include <benchmark/benchmark.h>
#include <chrono>
#include <functional>
#include <string>

using namespace fg;

namespace {

// The same loop workloads as BenchEval (experiment P2), so the
// backend comparison reads against that baseline table.
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

/// One program prepared for repeated execution on both backends: the
/// bytecode chunk is built once, as a real embedder would, so the VM
/// leg times dispatch rather than emission.
class BackendSuite {
public:
  explicit BackendSuite(const std::string &Source) {
    Out = FE.compile("bench.fg", Source);
    if (!Out.Success) {
      Error = Out.ErrorMessage;
      return;
    }
    Chunk = vm::compile(Out.SfTerm, FE.getPrelude(), &Error);
  }

  bool ok() const { return Out.Success && Chunk; }
  const std::string &error() const { return Error; }

  sf::EvalResult runOnTree() { return FE.run(Out); }
  sf::EvalResult runOnVm() {
    vm::VM M;
    return M.run(Chunk);
  }

  /// Dictionary-projection inline-cache hit rate of one VM run, as an
  /// integer percent (100 * hits / (hits + misses)); 0 if the workload
  /// never projects.
  uint64_t icHitRatePct() {
    vm::VM M;
    (void)M.run(Chunk);
    uint64_t Total = M.getIcHits() + M.getIcMisses();
    return Total ? 100 * M.getIcHits() / Total : 0;
  }

private:
  Frontend FE;
  CompileOutput Out;
  std::shared_ptr<const vm::Chunk> Chunk;
  std::string Error;
};

void runBackend(benchmark::State &State, const std::string &Source,
                sf::EvalResult (BackendSuite::*Run)()) {
  BackendSuite S(Source);
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

static void BM_VmDictAccumulateTree(benchmark::State &State) {
  runBackend(State, dictProgram(State.range(0)), &BackendSuite::runOnTree);
}
BENCHMARK(BM_VmDictAccumulateTree)->Arg(128)->Arg(512)->Arg(1024);

static void BM_VmDictAccumulateVm(benchmark::State &State) {
  runBackend(State, dictProgram(State.range(0)), &BackendSuite::runOnVm);
}
BENCHMARK(BM_VmDictAccumulateVm)->Arg(128)->Arg(512)->Arg(1024);

static void BM_VmHigherOrderSumTree(benchmark::State &State) {
  runBackend(State, hofProgram(State.range(0)), &BackendSuite::runOnTree);
}
BENCHMARK(BM_VmHigherOrderSumTree)->Arg(128)->Arg(512)->Arg(1024);

static void BM_VmHigherOrderSumVm(benchmark::State &State) {
  runBackend(State, hofProgram(State.range(0)), &BackendSuite::runOnVm);
}
BENCHMARK(BM_VmHigherOrderSumVm)->Arg(128)->Arg(512)->Arg(1024);

namespace {

/// Wall-clock for \p Iters runs of one backend, in nanoseconds.
uint64_t timeBackend(BackendSuite &S, sf::EvalResult (BackendSuite::*Run)(),
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

/// Best-of-\p Rounds wall-clock for \p Iters runs of one backend: the
/// minimum is the standard least-noise estimator for a deterministic
/// workload (any excess over it is scheduler/cache interference).
uint64_t bestOf(BackendSuite &S, sf::EvalResult (BackendSuite::*Run)(),
                unsigned Iters, unsigned Rounds) {
  uint64_t Best = ~uint64_t(0);
  for (unsigned R = 0; R < Rounds; ++R)
    Best = std::min(Best, timeBackend(S, Run, Iters));
  return Best;
}

/// Measures the VM's speedup on the two loop workloads and records it
/// in the statistics registry, so the bench-stats JSON carries the
/// headline ratio directly: per-workload keys
/// (`vm.speedup_vs_tree_pct.dict` / `.hof`), the average under the
/// original key name (the CI-gated trajectory),
/// and the dict workload's inline-cache hit rate
/// (`vm.ic.hit_rate_pct`) — the dictionary-projection caches are only
/// worth their checks if a stable-model loop hits nearly always.
void recordSpeedupSummary() {
  constexpr unsigned N = 512, Iters = 30, Warmup = 3, Rounds = 3;
  struct Workload {
    const char *Name;
    std::string Source;
  };
  const Workload Workloads[] = {{"dict", dictProgram(N)},
                                {"hof", hofProgram(N)}};
  auto &Stats = stats::Statistics::global();
  double TreeOverVm = 0;
  int Measured = 0;
  for (const Workload &W : Workloads) {
    BackendSuite S(W.Source);
    if (!S.ok())
      continue;
    for (unsigned I = 0; I < Warmup; ++I) {
      (void)S.runOnTree();
      (void)S.runOnVm();
    }
    uint64_t Tree = bestOf(S, &BackendSuite::runOnTree, Iters, Rounds);
    uint64_t Vm = bestOf(S, &BackendSuite::runOnVm, Iters, Rounds);
    if (Vm == 0)
      continue;
    double TreeRatio = double(Tree) / double(Vm);
    Stats.counter(std::string("vm.speedup_vs_tree_pct.") + W.Name) =
        uint64_t(100.0 * TreeRatio);
    if (std::string(W.Name) == "dict")
      Stats.counter("vm.ic.hit_rate_pct") = S.icHitRatePct();
    TreeOverVm += TreeRatio;
    ++Measured;
  }
  if (!Measured)
    return;
  Stats.counter("vm.speedup_vs_tree_pct") =
      uint64_t(100.0 * TreeOverVm / Measured);
}

} // namespace

int main(int argc, char **argv) {
  fg::stats::Statistics::global().enable(true);
  recordSpeedupSummary();
  return fg::bench::runAndEmitStats(argc, argv);
}
