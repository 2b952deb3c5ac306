//===- bench/BenchAot.cpp - AOT backend: the zero-overhead claim ----------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement the AOT backend exists for: after `-O2`
/// specialization eliminates dictionaries, transpiling the residual
/// System F to C++ and compiling it natively should leave *no*
/// interpretive overhead — the paper's "zero-overhead generics" claim,
/// made concrete as a ratio against the fastest in-process engine (the
/// bytecode VM) on BenchVm's loop workloads (the Figure 5 dictionary
/// accumulate and the Figure 3 higher-order sum, N = 512).
///
/// Two headline numbers land in the bench-stats JSON (BENCH_aot.json):
///
///   aot.speedup_vs_vm_pct  in-process ns/run of the VM over the
///                          compiled binary's ns/run (percent, so 250
///                          means the native code is 2.5x faster),
///                          averaged over the two workloads; per-
///                          workload values under .dict / .hof
///   aot.compile_ms         cold host-compile cost for one workload's
///                          translation unit — the price paid once per
///                          program, amortized by the build cache
///
/// The child binary's own `--repeat` loop does the run timing, so
/// process spawn and cache lookup are excluded from ns/run — the same
/// in-process discipline the other backends get from BenchVm.
///
//===----------------------------------------------------------------------===//

#include "BenchMain.h"
#include "aot/Aot.h"
#include "aot/CppEmitter.h"
#include "aot/Toolchain.h"
#include "syntax/Frontend.h"
#include "vm/VM.h"
#include <algorithm>
#include <benchmark/benchmark.h>
#include <chrono>
#include <string>
#include <unistd.h>

using namespace fg;

namespace {

// The same loop workloads as BenchVm (and BenchEval's experiment P2),
// so the aot column reads against those tables.
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

/// One workload prepared for both sides of the comparison: the VM runs
/// the plain translation (its natural input, as in BenchVm), the AOT
/// backend the `-O2`-specialized term (its natural input — the driver
/// always specializes before emitting).
class AotSuite {
public:
  explicit AotSuite(const std::string &Source) {
    Out = FE.compile("bench.fg", Source);
    if (!Out.Success) {
      Error = Out.ErrorMessage;
      return;
    }
    sf::OptimizeOptions OO;
    OO.Specialize = sf::SpecializeLevel::Full;
    Specialized = FE.optimize(Out, nullptr, OO);
    if (!Specialized)
      Error = "specialization failed";
  }

  bool ok() const { return Out.Success && Specialized; }
  const std::string &error() const { return Error; }

  sf::EvalResult runOnVm() { return FE.run(Out, {.Engine = Backend::Vm}); }

  /// One AOT execution (cached compile + child process); \p Repeat > 1
  /// additionally fills \p Info->BenchNsPerRun from the child's
  /// in-process timing loop — a knob only this bench needs, so it
  /// calls the backend directly rather than through Frontend::run.
  sf::EvalResult runAot(const aot::ToolchainOptions &TO, aot::RunInfo *Info,
                        long long Repeat = 1) {
    return aot::runAot(Specialized, FE.getPrelude(), sf::EvalOptions(), TO,
                       Info, Repeat);
  }

  const sf::Term *specialized() const { return Specialized; }
  const sf::Prelude &prelude() const { return FE.getPrelude(); }

private:
  Frontend FE;
  CompileOutput Out;
  const sf::Term *Specialized = nullptr;
  std::string Error;
};

void runAotBackend(benchmark::State &State, const std::string &Source) {
  if (!aot::toolchainAvailable()) {
    State.SkipWithError("no host C++ compiler available");
    return;
  }
  AotSuite S(Source);
  if (!S.ok()) {
    State.SkipWithError(S.error().c_str());
    return;
  }
  aot::ToolchainOptions TO;
  // Warm the build cache so the loop below measures dispatch (spawn +
  // cache hit + run), not repeated host compiles.
  aot::RunInfo Warm;
  sf::EvalResult First = S.runAot(TO, &Warm);
  if (!First.ok()) {
    State.SkipWithError(First.Error.c_str());
    return;
  }
  for (auto _ : State) {
    sf::EvalResult R = S.runAot(TO, nullptr);
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    benchmark::DoNotOptimize(R.Val);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

} // namespace

static void BM_AotDictAccumulate(benchmark::State &State) {
  runAotBackend(State, dictProgram(State.range(0)));
}
BENCHMARK(BM_AotDictAccumulate)->Arg(512);

static void BM_AotHigherOrderSum(benchmark::State &State) {
  runAotBackend(State, hofProgram(State.range(0)));
}
BENCHMARK(BM_AotHigherOrderSum)->Arg(512);

namespace {

/// In-process ns/run of the VM over \p Iters runs (best of \p Rounds;
/// the minimum is the least-noise estimator for deterministic work).
uint64_t vmNsPerRun(AotSuite &S, unsigned Iters, unsigned Rounds) {
  uint64_t Best = ~uint64_t(0);
  for (unsigned R = 0; R < Rounds; ++R) {
    auto Start = std::chrono::steady_clock::now();
    for (unsigned I = 0; I < Iters; ++I) {
      sf::EvalResult Res = S.runOnVm();
      benchmark::DoNotOptimize(Res.Val);
    }
    uint64_t Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    Best = std::min(Best, Ns / Iters);
  }
  return Best;
}

/// Measures the headline ratios and records them in the statistics
/// registry for the bench-stats JSON.
void recordAotSummary() {
  if (!aot::toolchainAvailable())
    return;
  constexpr unsigned N = 512, Iters = 30, Rounds = 3;
  auto &Stats = stats::Statistics::global();

  struct Workload {
    const char *Key;
    std::string Source;
  } Workloads[] = {{"dict", dictProgram(N)}, {"hof", hofProgram(N)}};

  double SpeedupSum = 0;
  int Measured = 0;
  for (const Workload &W : Workloads) {
    AotSuite S(W.Source);
    if (!S.ok())
      continue;

    // Cold compile cost, measured against a private cache dir so a
    // warm bench working dir cannot turn it into a lookup.
    aot::ToolchainOptions Cold;
    Cold.CacheDir = ".fgc.aot-cache/bench-cold-" + std::to_string(::getpid());
    aot::EmittedProgram E = aot::emitCpp(S.specialized(), S.prelude());
    if (E.ok()) {
      auto Start = std::chrono::steady_clock::now();
      aot::CompiledProgram C = aot::compileProgram(E.Cpp, Cold);
      uint64_t Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
      if (C.ok())
        Stats.counter(std::string("aot.compile_ms.") + W.Key) = Ms;
    }

    // ns/run on both sides; the child times its own --repeat loop, so
    // neither side pays process spawn.
    aot::ToolchainOptions TO;
    uint64_t BestAot = ~uint64_t(0);
    for (unsigned R = 0; R < Rounds; ++R) {
      aot::RunInfo Info;
      sf::EvalResult Res = S.runAot(TO, &Info, Iters);
      if (!Res.ok() || Info.BenchNsPerRun <= 0) {
        BestAot = 0;
        break;
      }
      BestAot = std::min(BestAot, uint64_t(Info.BenchNsPerRun));
    }
    if (BestAot == 0 || BestAot == ~uint64_t(0))
      continue;
    uint64_t Vm = vmNsPerRun(S, Iters, Rounds);

    double Speedup = double(Vm) / double(BestAot);
    Stats.counter(std::string("aot.speedup_vs_vm_pct.") + W.Key) =
        uint64_t(100.0 * Speedup);
    SpeedupSum += Speedup;
    ++Measured;
  }
  if (!Measured)
    return;
  Stats.counter("aot.speedup_vs_vm_pct") =
      uint64_t(100.0 * SpeedupSum / Measured);
  // The averaged compile cost as the headline aot.compile_ms.
  uint64_t MsSum = 0, MsN = 0;
  for (const char *Key : {"aot.compile_ms.dict", "aot.compile_ms.hof"}) {
    uint64_t V = Stats.counter(Key).load();
    if (V) {
      MsSum += V;
      ++MsN;
    }
  }
  if (MsN)
    Stats.counter("aot.compile_ms") = MsSum / MsN;
}

} // namespace

int main(int argc, char **argv) {
  fg::stats::Statistics::global().enable(true);
  recordAotSummary();
  return fg::bench::runAndEmitStats(argc, argv);
}
