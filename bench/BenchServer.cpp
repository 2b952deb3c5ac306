//===- bench/BenchServer.cpp - fgcd daemon latency and throughput ---------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
//
// What a persistent compiler server buys: `check` request latency
// against the real Unix-socket daemon, cold artifact cache vs warm,
// under 1, 4, and 16 concurrent client connections.
//
// Two layers of measurement:
//
//  * google-benchmark cases time single in-process session checks
//    (cold = every iteration a distinct program, warm = byte-identical
//    program) — the per-request cost floor without socket overhead;
//  * a custom concurrency sweep drives the real daemon with client
//    threads and records percentile summaries as counters, so
//    `bench-stats` lands them in BENCH_server.json:
//
//      server.check.p50_us.{cold,warm}.c{1,4,16}
//      server.check.p99_us.{cold,warm}.c{1,4,16}
//      server.check.throughput_rps.{cold,warm}.c{1,4,16}
//      server.check.warm_speedup_pct.c{1,4,16}   (100 = parity)
//
// The warm numbers are the daemon's pitch: a byte-identical re-check —
// every editor keystroke-save, every CI job on an unchanged module —
// is a content-hash lookup instead of a compile.
//
//===----------------------------------------------------------------------===//

#include "BenchMain.h"
#include "server/Json.h"
#include "server/Server.h"
#include "server/Session.h"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace fg;
using namespace fg::server;

namespace {

/// A small but non-trivial program for the checker: a concept, a
/// model, and a constrained generic call — the paper's core machinery.
/// \p Tag varies the program text so "cold" requests never collide in
/// the content-hash cache.
std::string checkProgram(uint64_t Tag) {
  return "concept Acc<t> { combine : fn(t,t) -> t; zero : t; } in\n"
         "model Acc<int> { combine = iadd; zero = " +
         std::to_string(Tag) +
         "; } in\n"
         "let fold3 = forall t where Acc<t>. fun(a : t, b : t, c : t).\n"
         "  Acc<t>.combine(a, Acc<t>.combine(b, Acc<t>.combine(c, "
         "Acc<t>.zero)))\n"
         "in fold3[int](1, 2, 3)\n";
}

//===----------------------------------------------------------------------===//
// In-process per-request cost floor (google-benchmark)
//===----------------------------------------------------------------------===//

void BM_ServerCheckCold(benchmark::State &State) {
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  uint64_t Tag = 0;
  for (auto _ : State) {
    Outcome O = S.check(checkProgram(Tag++));
    benchmark::DoNotOptimize(O.Success);
    if (!O.Success) {
      State.SkipWithError(("check failed: " + O.Diagnostics).c_str());
      break;
    }
  }
}
BENCHMARK(BM_ServerCheckCold);

void BM_ServerCheckWarm(benchmark::State &State) {
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  std::string Program = checkProgram(0);
  S.check(Program); // Prime.
  for (auto _ : State) {
    Outcome O = S.check(Program);
    benchmark::DoNotOptimize(O.Cached);
    if (!O.Success || !O.Cached) {
      State.SkipWithError(("warm check failed or missed the cache: " +
                           O.Diagnostics)
                              .c_str());
      break;
    }
  }
}
BENCHMARK(BM_ServerCheckWarm);

//===----------------------------------------------------------------------===//
// The daemon under concurrent clients
//===----------------------------------------------------------------------===//

/// One blocking protocol request over an already-connected socket;
/// returns the round-trip latency in microseconds, or -1 on a transport
/// failure or when the reply does not report a successful check.
int64_t timedRequest(int Fd, std::string &Buffer, const std::string &Line) {
  auto Start = std::chrono::steady_clock::now();
  std::string Out = Line + "\n";
  size_t Sent = 0;
  while (Sent < Out.size()) {
    ssize_t W = ::send(Fd, Out.data() + Sent, Out.size() - Sent, 0);
    if (W <= 0)
      return -1;
    Sent += static_cast<size_t>(W);
  }
  char Chunk[4096];
  size_t NL;
  while ((NL = Buffer.find('\n')) == std::string::npos) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      return -1;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
  int64_t Us = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
  Json Reply;
  std::string Error;
  bool Parsed = Json::parse(Buffer.substr(0, NL), Reply, Error);
  Buffer.erase(0, NL + 1);
  const Json *Result = Parsed ? Reply.find("result") : nullptr;
  const Json *Success = Result ? Result->find("success") : nullptr;
  return Success && Success->asBool() ? Us : -1;
}

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

std::string checkRequest(const std::string &Source) {
  Json Params = Json::object();
  Params.set("source", Json::string(Source));
  Json R = Json::object();
  R.set("id", Json::number(int64_t(1)));
  R.set("method", Json::string("check"));
  R.set("params", std::move(Params));
  return R.write();
}

int64_t percentile(std::vector<int64_t> &V, int P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = std::min(V.size() - 1, V.size() * P / 100);
  return V[I];
}

/// Runs one (concurrency, cold/warm) cell against \p SocketPath and
/// records the latency percentiles and throughput as counters.  Returns
/// false, recording nothing, when any check fails.
bool runCell(const std::string &SocketPath, unsigned Clients, bool Warm,
             unsigned TotalRequests, std::atomic<uint64_t> &ColdTag,
             int64_t &P50Out) {
  const std::string WarmProgram = checkProgram(999999);
  if (Warm) { // Prime the shared cache once.
    int Fd = connectTo(SocketPath);
    std::string Buf;
    timedRequest(Fd, Buf, checkRequest(WarmProgram));
    ::close(Fd);
  }

  unsigned PerClient = TotalRequests / Clients;
  std::vector<std::vector<int64_t>> Latencies(Clients);
  std::atomic<unsigned> Failed{0};
  auto WallStart = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      int Fd = connectTo(SocketPath);
      if (Fd < 0)
        return;
      std::string Buf;
      for (unsigned I = 0; I < PerClient; ++I) {
        std::string Source =
            Warm ? WarmProgram : checkProgram(ColdTag.fetch_add(1));
        int64_t Us = timedRequest(Fd, Buf, checkRequest(Source));
        if (Us < 0) {
          ++Failed;
          break;
        }
        Latencies[C].push_back(Us);
      }
      ::close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  double WallSecs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - WallStart)
                        .count();

  std::string Suffix =
      std::string(Warm ? "warm" : "cold") + ".c" + std::to_string(Clients);
  if (Failed != 0) {
    // Timing failed requests would measure error paths, not checks.
    std::fprintf(stderr,
                 "BenchServer: %u client(s) got a failed check in cell %s; "
                 "not recorded\n",
                 Failed.load(), Suffix.c_str());
    return false;
  }
  std::vector<int64_t> All;
  for (std::vector<int64_t> &L : Latencies)
    All.insert(All.end(), L.begin(), L.end());
  stats::Statistics &S = stats::Statistics::global();
  P50Out = percentile(All, 50);
  S.add("server.check.p50_us." + Suffix, uint64_t(P50Out));
  S.add("server.check.p99_us." + Suffix, uint64_t(percentile(All, 99)));
  S.add("server.check.throughput_rps." + Suffix,
        WallSecs > 0 ? uint64_t(All.size() / WallSecs) : 0);
  return true;
}

/// The full sweep: 1/4/16 clients, cold then warm, against one daemon.
void runConcurrencySweep() {
  ServerOptions Opts;
  Opts.SocketPath = (std::filesystem::temp_directory_path() /
                     ("fgcd-bench-" + std::to_string(::getpid()) + ".sock"))
                        .string();
  Opts.Threads = 16;
  Server Srv(Opts);
  std::string Error;
  if (!Srv.start(Error)) {
    std::fprintf(stderr, "BenchServer: cannot start daemon: %s\n",
                 Error.c_str());
    return;
  }

  std::atomic<uint64_t> ColdTag{0};
  for (unsigned Clients : {1u, 4u, 16u}) {
    int64_t ColdP50 = 0, WarmP50 = 0;
    bool Ok = runCell(Srv.socketPath(), Clients, /*Warm=*/false,
                      /*Total=*/96, ColdTag, ColdP50);
    Ok &= runCell(Srv.socketPath(), Clients, /*Warm=*/true, /*Total=*/96,
                  ColdTag, WarmP50);
    // 100 = parity; the daemon earns its keep when this is >= 200.
    if (Ok && WarmP50 > 0)
      stats::Statistics::global().add(
          "server.check.warm_speedup_pct.c" + std::to_string(Clients),
          uint64_t(100 * ColdP50 / WarmP50));
  }
  Srv.stop();
}

} // namespace

int main(int argc, char **argv) {
  // The sweep runs first so its counters are in the registry when
  // runAndEmitStats writes $FG_STATS_JSON after the timed benchmarks.
  runConcurrencySweep();
  return fg::bench::runAndEmitStats(argc, argv);
}
