//===- perfbench/fgbench.cpp - Benchmark helper: load client, traced run --===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled half of the end-to-end benchmark (perfbench/run.py
/// drives it):
///
///   fgbench load --socket PATH --conns C --first I --count N
///                --requests FILE --samples OUT
///       Closed-loop fgcd client: C connections, each sending its next
///       request only after the previous reply arrived, until N
///       requests (FILE's lines in order from line I, wrapping around)
///       are done or 60 seconds passed.  Every reply is checked against
///       the expected type and value from FILE; a request not answered
///       by the deadline counts as failed.  Writes each round trip
///       (microseconds) to OUT and prints one JSON object: attempted
///       (always N), failed, elapsed seconds and the first failure.
///
///   fgbench trace --program P --type T --value V --batch-dir D
///                 --requests FILE --session-requests K --search-path I
///                 --aot-cxx CXX --tmp DIR --seconds S --spans FILE
///                 [--corpus N --seed S]
///       Reproduces each of a workload's operations in-process — the
///       four `fgc` wall configurations, cold and warm batch, a replay
///       of the daemon's requests through server::Session, and corpus
///       generation — with spans around each layer's public calls.
///       Where one public call spans two layers, the program's own
///       stats timers split it.  Spans stay in memory and are written
///       to FILE at the end; stdout gets one JSON object of per-layer
///       metrics.  An op whose time its layer spans and the tracer's
///       own bookkeeping leave more than MaxGluePct uncovered fails.
///
/// Request file lines are tab-separated:
///   method, field (source|path|-), JSON string literal, backend,
///   optimize, expected type (JSON literal), expected value (JSON
///   literal); `-` marks an absent column.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "modules/Batch.h"
#include "modules/Loader.h"
#include "server/Session.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include "aot/CppEmitter.h"
#include "aot/Toolchain.h"
#include "vm/Emit.h"
#include "vm/VM.h"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <pthread.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace fg;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::cerr << "fgbench: error: " << Msg << "\n";
  std::exit(2);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read `" + Path + "`");
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// Decodes a JSON string literal (quotes included) as written by
/// Python's json.dumps with ASCII output.
std::string jsonUnquote(const std::string &Lit) {
  if (Lit.size() < 2 || Lit.front() != '"' || Lit.back() != '"')
    die("not a JSON string literal: " + Lit.substr(0, 40));
  std::string Out;
  for (size_t I = 1; I + 1 < Lit.size(); ++I) {
    char C = Lit[I];
    if (C != '\\') {
      Out += C;
      continue;
    }
    char E = Lit[++I];
    switch (E) {
    case 'n': Out += '\n'; break;
    case 't': Out += '\t'; break;
    case 'r': Out += '\r'; break;
    case 'b': Out += '\b'; break;
    case 'f': Out += '\f'; break;
    case 'u':
      Out += static_cast<char>(std::stoi(Lit.substr(I + 1, 4), nullptr, 16));
      I += 4;
      break;
    default: Out += E;
    }
  }
  return Out;
}

/// One line of a request file.
struct Request {
  std::string Method, Field, Text, Backend, Type, Value;
  std::string TextLit, TypeLit, ValueLit; ///< JSON literals as written.
  int Optimize = -1;
};

std::vector<Request> readRequests(const std::string &Path) {
  std::vector<Request> Reqs;
  std::istringstream In(readFile(Path));
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::vector<std::string> Cols;
    size_t Start = 0;
    for (;;) {
      size_t Tab = Line.find('\t', Start);
      Cols.push_back(Line.substr(Start, Tab - Start));
      if (Tab == std::string::npos)
        break;
      Start = Tab + 1;
    }
    if (Cols.size() != 7)
      die("malformed request line in `" + Path + "`");
    Request R;
    R.Method = Cols[0];
    R.Field = Cols[1];
    if (Cols[2] != "-") {
      R.TextLit = Cols[2];
      R.Text = jsonUnquote(Cols[2]);
    }
    R.Backend = Cols[3] == "-" ? "" : Cols[3];
    R.Optimize = Cols[4] == "-" ? -1 : std::stoi(Cols[4]);
    if (Cols[5] != "-") {
      R.TypeLit = Cols[5];
      R.Type = jsonUnquote(Cols[5]);
    }
    if (Cols[6] != "-") {
      R.ValueLit = Cols[6];
      R.Value = jsonUnquote(Cols[6]);
    }
    Reqs.push_back(std::move(R));
  }
  if (Reqs.empty())
    die("no requests in `" + Path + "`");
  return Reqs;
}

/// Minimal argv parser: `--key value` pairs.
std::map<std::string, std::string> parseArgs(int Argc, char **Argv,
                                             int First) {
  std::map<std::string, std::string> Args;
  for (int I = First; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K.rfind("--", 0) != 0 || I + 1 >= Argc)
      die("bad argument `" + K + "`");
    Args[K.substr(2)] = Argv[++I];
  }
  return Args;
}

std::string need(const std::map<std::string, std::string> &Args,
                 const std::string &Key) {
  auto It = Args.find(Key);
  if (It == Args.end())
    die("missing --" + Key);
  return It->second;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Load client
//===----------------------------------------------------------------------===//

std::string requestLine(const Request &R, uint64_t Id) {
  std::string L = "{\"id\":" + std::to_string(Id) + ",\"method\":\"" +
                  R.Method + "\"";
  if (R.Field != "-") {
    L += ",\"params\":{\"" + R.Field + "\":" + R.TextLit;
    if (!R.Backend.empty())
      L += ",\"backend\":\"" + R.Backend + "\"";
    if (R.Optimize >= 0)
      L += ",\"optimize\":" + std::to_string(R.Optimize);
    L += "}";
  }
  return L + "}\n";
}

/// Checks one reply; returns an empty string when it is right.
std::string checkReply(const Request &R, uint64_t Id,
                       const std::string &Reply) {
  std::string Head = "{\"id\":" + std::to_string(Id) + ",\"ok\":true,";
  if (Reply.rfind(Head, 0) != 0)
    return "not ok: " + Reply.substr(0, 200);
  if (R.Method == "version")
    return Reply.find("\"server\":\"fgcd\"") == std::string::npos
               ? "bad version reply: " + Reply.substr(0, 200)
               : "";
  if (Reply.find("\"success\":true") == std::string::npos)
    return "not success: " + Reply.substr(0, 300);
  if (Reply.find("\"error\":") != std::string::npos)
    return "error in reply: " + Reply.substr(0, 300);
  if (!R.TypeLit.empty() &&
      Reply.find("\"type\":" + R.TypeLit) == std::string::npos)
    return "wrong type: " + Reply.substr(0, 300);
  if (!R.ValueLit.empty() &&
      Reply.find("\"value\":" + R.ValueLit) == std::string::npos)
    return "wrong value: " + Reply.substr(0, 300);
  return "";
}

class Connection {
public:
  explicit Connection(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Fd < 0 || Path.size() >= sizeof(Addr.sun_path))
      die("cannot create socket for `" + Path + "`");
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0)
      die("cannot connect to `" + Path + "`");
  }
  ~Connection() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool send(const std::string &Line) {
    size_t Off = 0;
    while (Off < Line.size()) {
      ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  bool readLine(std::string &Line) {
    for (;;) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Line = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      char Chunk[65536];
      ssize_t N = ::read(Fd, Chunk, sizeof Chunk);
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// How long one `fgbench load` may take; requests not answered by then
/// count as failed.
constexpr double LoadDeadlineSeconds = 60;

int runLoad(const std::map<std::string, std::string> &Args) {
  std::string Socket = need(Args, "socket");
  unsigned Conns = std::stoul(need(Args, "conns"));
  uint64_t First = std::stoull(need(Args, "first"));
  uint64_t Count = std::stoull(need(Args, "count"));
  uint64_t End = First + Count;
  std::vector<Request> Reqs = readRequests(need(Args, "requests"));

  std::atomic<uint64_t> Next{First};
  std::mutex Mu;
  std::vector<double> Rtts; // microseconds
  uint64_t Failed = 0;
  std::string FirstFailure;
  // Connect everyone first so connection set-up is not timed.
  std::vector<std::unique_ptr<Connection>> Cs;
  for (unsigned I = 0; I < Conns; ++I)
    Cs.push_back(std::make_unique<Connection>(Socket));

  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::nanoseconds(
                  static_cast<int64_t>(LoadDeadlineSeconds * 1e9));
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < Conns; ++I)
    Ts.emplace_back([&, I] {
      Connection &C = *Cs[I];
      std::vector<double> Mine;
      uint64_t MyFailed = 0;
      std::string MyFirst;
      while (Clock::now() < Deadline) {
        uint64_t Idx = Next.fetch_add(1);
        if (Idx >= End)
          break;
        const Request &R = Reqs[Idx % Reqs.size()];
        std::string Line = requestLine(R, Idx + 1), Reply;
        Clock::time_point T0 = Clock::now();
        bool Ok = C.send(Line) && C.readLine(Reply);
        Clock::time_point T1 = Clock::now();
        std::string Why = Ok ? checkReply(R, Idx + 1, Reply)
                             : std::string("connection lost");
        if (!Why.empty()) {
          ++MyFailed;
          if (MyFirst.empty())
            MyFirst = Why;
          if (!Ok)
            break;
          continue;
        }
        Mine.push_back(
            std::chrono::duration<double, std::micro>(T1 - T0).count());
      }
      std::lock_guard<std::mutex> L(Mu);
      Rtts.insert(Rtts.end(), Mine.begin(), Mine.end());
      Failed += MyFailed;
      if (FirstFailure.empty())
        FirstFailure = MyFirst;
    });
  for (std::thread &T : Ts)
    T.join();
  double Elapsed =
      std::chrono::duration<double>(Clock::now() - Start).count();
  // Requests never sent (the deadline passed, or every connection was
  // lost) are failures too, so `attempted` is always Count.
  uint64_t Done = Rtts.size() + Failed;
  if (Done < Count) {
    std::string Why = "only " + std::to_string(Done) + " of " +
                      std::to_string(Count) + " requests answered within " +
                      std::to_string(static_cast<int>(LoadDeadlineSeconds)) +
                      " s";
    FirstFailure = FirstFailure.empty() ? Why : Why + "; " + FirstFailure;
    Failed += Count - Done;
  }
  {
    std::ofstream Out(need(Args, "samples"));
    for (double Us : Rtts)
      Out << Us << "\n";
  }
  std::cout << "{\"attempted\":" << Count
            << ",\"failed\":" << Failed << ",\"seconds\":" << Elapsed
            << ",\"first_failure\":\"" << jsonEscape(FirstFailure) << "\"}\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced in-process run
//===----------------------------------------------------------------------===//

/// The program's own stats timers used to split a public call that
/// spans two layers, and the bucket (`<layer>.<what>`) each one's time
/// goes to.  Only timers that never nest inside one another are listed
/// (so `frontend.compile`, `checker.check`, `lexer.lex` and friends are
/// left out: they sit inside the ones below).
const std::map<std::string, std::string> &timerBuckets() {
  static const std::map<std::string, std::string> M = {
      {"frontend.parse", "syntax.parse"},
      {"modules.parse", "syntax.parse"},
      {"frontend.check", "core.check"},
      {"validate.translate", "validate.translate"},
      {"modules.instantiate", "modules.instantiate"},
      {"modules.serialize", "modules.serialize"},
      {"optimize.specialize", "systemf.specialize"},
      {"eval.run", "systemf.eval"},
      {"vm.compile", "vm.emit"},
      {"vm.run", "vm.run"},
      {"aot.emit", "aot.emit"},
      {"aot.compile", "aot.compile"},
      {"aot.run", "aot.child"},
  };
  return M;
}

const char *const Layers[] = {"driver",   "syntax", "modules", "core",
                              "validate", "systemf", "vm",     "aot",
                              "server",   "corpus"};

/// A recorded span.  Self time is the span's duration minus the part
/// its children cover: here the children are the stats-timer intervals
/// of *other* buckets recorded while it was open (and, for an op's root
/// span, the layer spans under it).
struct SpanRec {
  int Id = 0, Parent = -1;
  std::string Op, Name, Layer, Bucket;
  uint64_t Start = 0, End = 0;
  uint64_t BookNs = 0; ///< Root spans: the tracer's bookkeeping inside.
  std::map<std::string, uint64_t> TimerNs; ///< Other-bucket timer deltas.
};

class Tracer {
public:
  bool On = false;
  std::vector<SpanRec> Spans;
  std::string CurOp;
  int CurRoot = -1;
  /// Time the spans spent outside their own intervals (the timer
  /// snapshots): the tracer's bookkeeping, per op.
  uint64_t BookNs = 0;

  std::map<std::string, uint64_t> timerSnapshot() const {
    std::map<std::string, uint64_t> S;
    for (const auto &[Name, Rec] : stats::Statistics::global().timers())
      if (timerBuckets().count(Name))
        S[Name] = Rec.Nanos;
    return S;
  }
};

/// RAII layer span around one public call; its self time goes to
/// \p Bucket (`<layer>.<what>`).
class Span {
public:
  Span(Tracer &T, const char *Name, const char *Bucket) : T(T) {
    if (!T.On)
      return;
    uint64_t T0 = nowNs();
    Rec.Id = static_cast<int>(T.Spans.size());
    Rec.Parent = T.CurRoot;
    Rec.Op = T.CurOp;
    Rec.Name = Name;
    Rec.Bucket = Bucket;
    Rec.Layer = Rec.Bucket.substr(0, Rec.Bucket.find('.'));
    Before = T.timerSnapshot();
    Rec.Start = nowNs();
    T.BookNs += Rec.Start - T0;
  }
  ~Span() {
    if (!T.On)
      return;
    uint64_t End = Rec.End = nowNs();
    for (const auto &[Name, Ns] : T.timerSnapshot()) {
      uint64_t D = Ns - Before[Name];
      if (D && timerBuckets().at(Name) != Rec.Bucket)
        Rec.TimerNs[Name] = D;
    }
    T.Spans.push_back(std::move(Rec));
    T.BookNs += nowNs() - End;
  }

private:
  Tracer &T;
  SpanRec Rec;
  std::map<std::string, uint64_t> Before;
};

/// Destroys \p Obj inside a span on every path out of a scope, so that
/// freeing a layer's data counts toward that layer.
template <class X> class ReleaseInSpan {
public:
  ReleaseInSpan(Tracer &T, std::optional<X> &Obj, const char *Name,
                const char *Bucket)
      : T(T), Obj(Obj), Name(Name), Bucket(Bucket) {}
  ~ReleaseInSpan() {
    Span S(T, Name, Bucket);
    Obj.reset();
  }

private:
  Tracer &T;
  std::optional<X> &Obj;
  const char *Name, *Bucket;
};

struct Program {
  std::string Path, Type, Value;
};

struct Failure {
  std::string Op, Why;
};

/// Everything one traced pass over the ops observed.
struct RoundResult {
  std::map<std::string, double> OpMs;  ///< Op name -> duration.
  std::map<std::string, uint64_t> Counts;
  std::vector<double> SessionUs;
};

class TraceRun {
public:
  TraceRun(const std::map<std::string, std::string> &Args) {
    Prog.Path = need(Args, "program");
    Prog.Type = jsonUnquote(need(Args, "type"));
    Prog.Value = jsonUnquote(need(Args, "value"));
    BatchDir = need(Args, "batch-dir");
    Reqs = readRequests(need(Args, "requests"));
    SessionRequests = std::stoul(need(Args, "session-requests"));
    if (need(Args, "search-path") != "-")
      SessionOpts.SearchPaths.push_back(Args.at("search-path"));
    Toolchain.Cxx = need(Args, "aot-cxx");
    Tmp = need(Args, "tmp");
    Seconds = std::stod(need(Args, "seconds"));
    SpansPath = need(Args, "spans");
    if (Args.count("corpus")) {
      CorpusModules = std::stoul(Args.at("corpus"));
      CorpusSeed = std::stoull(need(Args, "seed"));
    }
    for (const auto &E : fs::directory_iterator(BatchDir))
      if (E.path().extension() == ".fg")
        BatchFiles.push_back(E.path().string());
    std::sort(BatchFiles.begin(), BatchFiles.end());
    if (BatchFiles.empty())
      die("no .fg files in `" + BatchDir + "`");
  }

  int run();

private:
  // --- ops ---------------------------------------------------------------
  bool frontHalf(Frontend &FE, CompileOutput &Out);
  void opWall(const std::string &Config);
  void opBatch(bool Cold);
  void opSession(RoundResult &RR);
  void opCorpus();
  void runOps(RoundResult &RR);

  std::string batchCacheDir() const { return Tmp + "/trace-modcache"; }
  std::string corpusDir() const { return Tmp + "/trace-corpus"; }
  void fail(const std::string &Why) {
    if (Failures.size() < 8)
      Failures.push_back({T.CurOp, Why});
    ++FailCount;
  }
  void checkValue(const sf::ValuePtr &V, const char *What) {
    std::string Got;
    {
      Span S(T, "sf::valueToString", "systemf.print");
      Got = sf::valueToString(V);
    }
    checkValue(Got, What);
  }
  void checkValue(const std::string &Got, const char *What) {
    if (Got != Prog.Value)
      fail(std::string(What) + " value `" + Got + "`, expected `" +
           Prog.Value + "`");
  }

  Program Prog;
  std::string BatchDir, Tmp, SpansPath;
  std::vector<std::string> BatchFiles;
  std::vector<Request> Reqs;
  size_t SessionRequests = 0;
  server::Session::Options SessionOpts;
  aot::ToolchainOptions Toolchain;
  double Seconds = 0;
  unsigned CorpusModules = 0;
  uint64_t CorpusSeed = 0;

  Tracer T;
  std::vector<Failure> Failures;
  uint64_t FailCount = 0, Attempted = 0;
  sf::OptimizeStats LastOpt;
  double ColdCompileMs = 0;
};

/// What `fgc` does before choosing a backend: read the file, route a
/// module root through the loader, check and translate.  Matches the
/// Release driver's `--validate=off`.
bool TraceRun::frontHalf(Frontend &FE, CompileOutput &Out) {
  std::string Source;
  {
    Span S(T, "readFile", "driver.read");
    Source = readFile(Prog.Path);
  }
  ModuleHeader Header;
  std::string Error;
  bool Scanned;
  {
    Span S(T, "ModuleLoader::scanHeader", "modules.load");
    Scanned = modules::ModuleLoader::scanHeader(Prog.Path, Source, Header,
                                                Error);
  }
  if (!Scanned) {
    fail(Error);
    return false;
  }
  CompileOptions Opts;
  Opts.VerifyTranslation = false;
  if (Header.HasModuleDecl || !Header.Imports.empty()) {
    std::optional<modules::ModuleLoader> Loader;
    ReleaseInSpan<modules::ModuleLoader> FreeLoader(
        T, Loader, "ModuleLoader::~ModuleLoader", "modules.load");
    std::string Root;
    bool Loaded;
    {
      Span S(T, "ModuleLoader::loadFile", "modules.load");
      Loader.emplace();
      Loaded = Loader->loadFile(Prog.Path, Root, Error);
    }
    if (!Loaded) {
      fail(Error);
      return false;
    }
    const Term *Linked;
    {
      Span S(T, "ModuleLoader::link", "modules.link");
      Linked = Loader->link(FE, Root, Error);
    }
    if (!Linked) {
      fail(Error);
      return false;
    }
    Span S(T, "Frontend::compileTerm", "syntax.frontend");
    Out = FE.compileTerm(Linked, Opts);
  } else {
    Span S(T, "Frontend::compile", "syntax.frontend");
    Out = FE.compile(Prog.Path, Source, Opts);
  }
  if (!Out.Success) {
    fail("compile failed: " + FE.getDiags().render());
    return false;
  }
  if (typeToString(Out.FgType) != Prog.Type)
    fail("type `" + typeToString(Out.FgType) + "`");
  return true;
}

void TraceRun::opWall(const std::string &Config) {
  ++Attempted;
  std::optional<Frontend> FE;
  {
    Span S(T, "Frontend::Frontend", "syntax.frontend");
    FE.emplace();
  }
  ReleaseInSpan<Frontend> FreeFE(T, FE, "Frontend::~Frontend",
                                  "syntax.frontend");
  CompileOutput Out;
  if (!frontHalf(*FE, Out))
    return;
  const sf::Prelude &P = FE->getPrelude();
  if (Config == "tree") {
    sf::EvalResult R;
    {
      Span S(T, "sf::Evaluator::eval", "systemf.eval");
      sf::Evaluator E;
      R = E.eval(Out.SfTerm, P.Values);
    }
    return R.ok() ? checkValue(R.Val, "tree")
                  : fail(R.Error);
  }
  if (Config == "vm" || Config == "vm_O2") {
    std::shared_ptr<const vm::Chunk> Chunk;
    std::string Error;
    {
      Span S(T, "vm::compile", "vm.emit");
      Chunk = vm::compile(Out.SfTerm, P, &Error);
    }
    if (!Chunk)
      return fail(Error);
    sf::EvalResult R;
    {
      Span S(T, "vm::VM::run", "vm.run");
      vm::VM M;
      R = M.run(Chunk);
    }
    if (!R.ok())
      return fail(R.Error);
    checkValue(R.Val, "vm");
    if (Config == "vm")
      return;
  }
  // -O2: specialize fully (the driver's -O2 and the aot default).
  sf::OptimizeOptions OO;
  OO.Specialize = sf::SpecializeLevel::Full;
  sf::OptimizeStats OS;
  const sf::Term *Opt;
  {
    Span S(T, "Frontend::optimize", "systemf.specialize");
    Opt = FE->optimize(Out, &OS, OO);
  }
  if (!Opt)
    return fail("optimization failed");
  LastOpt = OS;
  if (Config == "vm_O2") {
    // The driver prints the specialized term, then re-runs it on the
    // tree walker and compares.
    {
      Span S(T, "sf::termToString", "systemf.print");
      (void)sf::termToString(Opt);
    }
    sf::EvalResult R;
    {
      Span S(T, "sf::Evaluator::eval", "systemf.eval");
      sf::Evaluator E;
      R = E.eval(Opt, P.Values);
    }
    return R.ok() ? checkValue(R.Val, "optimized")
                  : fail(R.Error);
  }
  aot::EmittedProgram Em;
  {
    Span S(T, "aot::emitCpp", "aot.emit");
    Em = aot::emitCpp(Opt, P);
  }
  if (!Em.ok())
    return fail(Em.Error);
  aot::CompiledProgram C;
  uint64_t C0 = nowNs();
  {
    Span S(T, "aot::compileProgram", "aot.compile");
    C = aot::compileProgram(Em.Cpp, Toolchain);
  }
  if (!C.CacheHit)
    ColdCompileMs = (nowNs() - C0) / 1e6;
  if (!C.ok())
    return fail(C.Error);
  aot::RunOutput RO;
  {
    Span S(T, "aot::runProgram", "aot.child");
    RO = aot::runProgram(C.ExePath, sf::EvalOptions());
  }
  if (!RO.ok() || RO.ExitCode != 0)
    return fail("aot child: " + RO.Error + RO.Payload);
  checkValue(RO.Payload, "aot");
}

void TraceRun::opBatch(bool Cold) {
  ++Attempted;
  std::optional<modules::ModuleLoader> Loader;
  std::vector<std::string> Roots;
  {
    Span S(T, "ModuleLoader::loadFile", "modules.load");
    Loader.emplace();
    for (const std::string &F : BatchFiles) {
      std::string Root, Error;
      if (!Loader->loadFile(F, Root, Error))
        return fail(Error);
      Roots.push_back(Root);
    }
  }
  ReleaseInSpan<modules::ModuleLoader> FreeLoader(
      T, Loader, "ModuleLoader::~ModuleLoader", "modules.load");
  modules::BatchOptions BO;
  BO.Jobs = 1; // One thread, so the per-layer split is busy time.
  BO.CacheDir = batchCacheDir();
  BO.UseCache = true;
  BO.Verify = false;
  modules::BatchResult BR;
  {
    Span S(T, "modules::runBatch", "modules.batch");
    BR = modules::runBatch(*Loader, Roots, BO);
  }
  if (!BR.Success)
    return fail("batch failed");
  for (const modules::ModuleBuildResult &R : BR.Results)
    if (R.CacheHit == Cold)
      return fail("module " + R.Module +
                  (Cold ? " was cached in a cold batch"
                        : " was rechecked in a warm batch"));
}

void TraceRun::opSession(RoundResult &RR) {
  auto Cache = std::make_shared<server::ArtifactCache>(4096);
  server::Session Sess(Cache, SessionOpts);
  // The same order as the load client: the file's lines, wrapping.
  for (size_t I = 0; I < SessionRequests; ++I) {
    const Request &R = Reqs[I % Reqs.size()];
    ++Attempted;
    server::Outcome O;
    uint64_t T0 = nowNs();
    {
      Span S(T, R.Method == "check" ? "server::Session::check"
                                    : "server::Session::run",
             "server.session");
      bool Path = R.Field == "path";
      if (R.Method == "check")
        O = Path ? Sess.checkPath(R.Text) : Sess.check(R.Text, "<check>");
      else
        O = Sess.run(Path ? "" : R.Text, Path ? R.Text : "<run>", R.Backend,
                     std::max(R.Optimize, 0), Path ? R.Text : "");
    }
    RR.SessionUs.push_back((nowNs() - T0) / 1e3);
    if (!O.Success || !O.Error.empty() || O.Type != R.Type ||
        (R.Method == "run" && O.Value != R.Value))
      fail("session request " + std::to_string(I) + ": " + O.Error +
           O.Diagnostics + " type `" + O.Type + "` value `" + O.Value + "`");
  }
}

void TraceRun::opCorpus() {
  ++Attempted;
  corpus::CorpusOptions CO;
  CO.Modules = CorpusModules;
  CO.Seed = CorpusSeed;
  std::string Error;
  Span S(T, "corpus::generate", "corpus.gen");
  std::vector<corpus::GeneratedModule> Mods = corpus::generate(CO);
  if (Mods.size() != CorpusModules ||
      !corpus::writeCorpus(Mods, corpusDir(), Error))
    fail("corpus generation: " + Error);
}

void TraceRun::runOps(RoundResult &RR) {
  auto Op = [&](const std::string &Name, auto &&Fn) {
    T.CurOp = Name;
    SpanRec Root;
    if (T.On) {
      Root.Id = static_cast<int>(T.Spans.size());
      T.Spans.emplace_back();
      T.CurRoot = Root.Id;
      T.BookNs = 0;
    }
    uint64_t T0 = nowNs();
    Fn();
    uint64_t T1 = nowNs();
    RR.OpMs[Name] = (T1 - T0) / 1e6;
    if (T.On) {
      Root.Op = Name;
      Root.Name = Name;
      Root.Layer = "driver";
      Root.Bucket = "driver.glue";
      Root.Start = T0;
      Root.End = T1;
      Root.BookNs = T.BookNs;
      T.Spans[Root.Id] = Root;
      T.CurRoot = -1;
    }
  };
  for (const char *Config : {"tree", "vm", "vm_O2", "aot"})
    Op(std::string("wall.") + Config, [&] { opWall(Config); });
  // A cold batch starts from an empty cache directory, made outside the
  // op like the measured run's.
  fs::remove_all(batchCacheDir());
  fs::create_directories(batchCacheDir());
  Op("batch.cold", [&] { opBatch(true); });
  Op("batch.warm", [&] { opBatch(false); });
  Op("session", [&] { opSession(RR); });
  if (CorpusModules) {
    // Like `fgc --gen-corpus` in set-up, it writes into a new directory;
    // the previous round's output is removed outside the op.
    fs::remove_all(corpusDir());
    Op("corpus.gen", [&] { opCorpus(); });
  }
}

/// The counters a round must reproduce exactly (determinism check).
const char *const CountedStats[] = {
    "lexer.tokens",
    "checker.model_resolutions",
    "checker.model_cache.hits",
    "checker.model_cache.misses",
    "modules.cache.hits",
    "modules.cache.misses",
    "vm.instructions",
    "vm.instructions.emitted",
    "vm.ic.hits",
    "vm.ic.misses",
    "aot.cache.hits",
    "aot.cache.misses",
    "server.artifact_cache.hits",
    "server.artifact_cache.misses",
};

std::map<std::string, uint64_t> countSnapshot() {
  stats::Statistics &S = stats::Statistics::global();
  std::map<std::string, uint64_t> C;
  for (const char *Name : CountedStats)
    C[Name] = S.counter(Name).load();
  auto Timers = S.timers();
  C["modules.instantiate.calls"] = Timers["modules.instantiate"].Calls;
  return C;
}

/// The largest share of an op's in-process time that neither its layer
/// spans nor the tracer's bookkeeping may cover: the benchmark's own
/// glue (file reads, output checks).
constexpr double MaxGluePct = 5;

double pct(uint64_t Hits, uint64_t Misses) {
  return Hits + Misses ? 100.0 * Hits / (Hits + Misses) : 0.0;
}

int TraceRun::run() {
  fs::create_directories(Tmp);
  Toolchain.CacheDir = Tmp + "/trace-aot-cache";
  fs::remove_all(Toolchain.CacheDir);
  stats::Statistics &Stats = stats::Statistics::global();

  // Prime a fresh AOT build cache (the cold host compile) untraced.
  {
    Stats.enable(false);
    T.On = false;
    T.CurOp = "aot.prime";
    opWall("aot");
  }

  std::vector<RoundResult> Traced, Untraced;
  std::vector<std::map<std::string, double>> BucketNs; // Per round.
  // Per op and round: the share of the op's time its layer spans cover,
  // and the share the tracer's own bookkeeping took.
  std::map<std::string, std::vector<double>> AccountedPct, BookPct;
  uint64_t Start = nowNs();
  for (unsigned Round = 0; Round < 40; ++Round) {
    // Traced pass: spans on, stats timers on.
    Stats.enable(true);
    T.On = true;
    size_t FirstSpan = T.Spans.size();
    auto C0 = countSnapshot();
    RoundResult RR;
    runOps(RR);
    auto C1 = countSnapshot();
    for (const auto &[K, V] : C1)
      RR.Counts[K] = V - C0[K];
    RR.Counts["systemf.nodes_before"] = LastOpt.NodesBefore;
    RR.Counts["systemf.nodes_after"] = LastOpt.NodesAfter;
    RR.Counts["systemf.clones"] = LastOpt.ClonesCreated;
    Traced.push_back(std::move(RR));

    // Attribute this round's spans to buckets.
    std::map<std::string, double> B;
    std::map<int, uint64_t> ChildNs; // Root id -> covered by layer spans.
    for (size_t I = FirstSpan; I < T.Spans.size(); ++I) {
      const SpanRec &S = T.Spans[I];
      if (S.Parent < 0)
        continue;
      uint64_t Dur = S.End - S.Start, Other = 0;
      for (const auto &[Name, Ns] : S.TimerNs) {
        B[timerBuckets().at(Name)] += Ns;
        Other += Ns;
      }
      B[S.Bucket] += Dur > Other ? Dur - Other : 0;
      ChildNs[S.Parent] += Dur;
    }
    for (size_t I = FirstSpan; I < T.Spans.size(); ++I) {
      const SpanRec &S = T.Spans[I];
      if (S.Parent >= 0)
        continue;
      uint64_t Dur = S.End - S.Start, Covered = ChildNs[S.Id] + S.BookNs;
      B["driver.glue"] += Dur > Covered ? Dur - Covered : 0;
      AccountedPct[S.Op].push_back(Dur ? 100.0 * ChildNs[S.Id] / Dur : 0);
      BookPct[S.Op].push_back(Dur ? 100.0 * S.BookNs / Dur : 0);
    }
    BucketNs.push_back(B);

    // Untraced pass: the same ops with spans and stats timers off.
    Stats.enable(false);
    T.On = false;
    RoundResult UR;
    runOps(UR);
    Untraced.push_back(std::move(UR));

    if (Round >= 1 && (nowNs() - Start) / 1e9 >= Seconds)
      break;
  }

  // Determinism: every traced round must count exactly the same work.
  for (size_t R = 1; R < Traced.size(); ++R)
    for (const auto &[K, V] : Traced[0].Counts)
      if (Traced[R].Counts[K] != V) {
        std::cerr << "fgbench: nondeterministic count " << K << ": " << V
                  << " in round 1, " << Traced[R].Counts[K] << " in round "
                  << R + 1 << "\n";
        T.CurOp = "determinism";
        fail("count " + K + " differs between rounds");
      }

  // Every op's time must be covered by its layer spans plus the
  // tracer's bookkeeping, up to MaxGluePct of the benchmark's own glue.
  std::map<std::string, double> OpAccounted, OpBook;
  double MinAccounted = 100;
  for (const auto &[Op, V] : AccountedPct) {
    OpAccounted[Op] = median(V);
    OpBook[Op] = median(BookPct[Op]);
    MinAccounted = std::min(MinAccounted, OpAccounted[Op] + OpBook[Op]);
    double Glue = 100 - OpAccounted[Op] - OpBook[Op];
    if (Glue > MaxGluePct) {
      T.CurOp = Op;
      fail("layer spans cover " + std::to_string(OpAccounted[Op]) +
           "% of the op's time and tracing " + std::to_string(OpBook[Op]) +
           "%, leaving " + std::to_string(Glue) + "% unaccounted");
    }
  }

  // Per-layer metrics: medians over rounds.
  std::map<std::string, double> M;
  auto Med = [&](auto &&Get) {
    std::vector<double> V;
    for (size_t R = 0; R < Traced.size(); ++R)
      V.push_back(Get(R));
    return median(V);
  };
  auto BucketMs = [&](const std::string &Name) {
    return Med([&](size_t R) {
      auto It = BucketNs[R].find(Name);
      return It == BucketNs[R].end() ? 0.0 : It->second / 1e6;
    });
  };
  for (const char *L : Layers)
    M[std::string(L) + ".self_ms"] = Med([&](size_t R) {
      double Sum = 0;
      for (const auto &[Name, Ns] : BucketNs[R])
        if (Name.rfind(std::string(L) + ".", 0) == 0)
          Sum += Ns;
      return Sum / 1e6;
    });
  M["syntax.parse_ms"] = BucketMs("syntax.parse");
  M["modules.load_ms"] = BucketMs("modules.load");
  M["modules.link_ms"] = BucketMs("modules.link");
  M["modules.batch_ms"] = BucketMs("modules.batch");
  M["modules.instantiate_ms"] = BucketMs("modules.instantiate");
  M["modules.serialize_ms"] = BucketMs("modules.serialize");
  M["core.check_ms"] = BucketMs("core.check");
  M["validate.translate_ms"] = BucketMs("validate.translate");
  M["systemf.specialize_ms"] = BucketMs("systemf.specialize");
  M["systemf.eval_ms"] = BucketMs("systemf.eval");
  M["vm.emit_ms"] = BucketMs("vm.emit");
  M["vm.run_ms"] = BucketMs("vm.run");
  M["aot.emit_ms"] = BucketMs("aot.emit");
  M["aot.compile_ms"] = BucketMs("aot.compile");
  M["aot.child_ms"] = BucketMs("aot.child");
  M["aot.cold_compile_ms"] = ColdCompileMs;
  M["corpus.gen_ms"] = BucketMs("corpus.gen");
  const auto &C = Traced[0].Counts;
  auto Count = [&](const char *K) {
    auto It = C.find(K);
    return It == C.end() ? 0.0 : static_cast<double>(It->second);
  };
  M["syntax.tokens"] = Count("lexer.tokens");
  M["modules.instantiate_calls"] = Count("modules.instantiate.calls");
  M["modules.cache_hit_pct"] =
      pct(C.at("modules.cache.hits"), C.at("modules.cache.misses"));
  M["core.model_resolutions"] = Count("checker.model_resolutions");
  M["core.model_cache_hit_pct"] = pct(C.at("checker.model_cache.hits"),
                                      C.at("checker.model_cache.misses"));
  M["systemf.nodes_before"] = Count("systemf.nodes_before");
  M["systemf.nodes_after"] = Count("systemf.nodes_after");
  M["systemf.clones"] = Count("systemf.clones");
  M["vm.instructions"] = Count("vm.instructions");
  M["vm.instructions_emitted"] = Count("vm.instructions.emitted");
  M["vm.ic_hit_pct"] = pct(C.at("vm.ic.hits"), C.at("vm.ic.misses"));
  M["aot.cache_hit_pct"] = pct(C.at("aot.cache.hits"), C.at("aot.cache.misses"));
  M["server.artifact_hit_pct"] = pct(C.at("server.artifact_cache.hits"),
                                     C.at("server.artifact_cache.misses"));
  M["server.session_us.p50"] = Med([&](size_t R) {
    return median(Traced[R].SessionUs);
  });
  M["trace.accounted_pct"] = MinAccounted;
  M["trace.overhead_pct"] = Med([&](size_t R) {
    double Tr = 0, Un = 0;
    for (const auto &[Op, Ms] : Traced[R].OpMs)
      Tr += Ms;
    for (const auto &[Op, Ms] : Untraced[R].OpMs)
      Un += Ms;
    return Un > 0 ? 100.0 * (Tr - Un) / Un : 0.0;
  });

  // Spans leave memory only now, at the end.
  {
    std::ofstream Out(SpansPath);
    Out << "[\n";
    for (size_t I = 0; I < T.Spans.size(); ++I) {
      const SpanRec &S = T.Spans[I];
      Out << "{\"id\":" << S.Id << ",\"parent\":" << S.Parent
          << ",\"op\":\"" << S.Op << "\",\"name\":\"" << S.Name
          << "\",\"layer\":\"" << S.Layer << "\",\"start_ns\":" << S.Start
          << ",\"end_ns\":" << S.End << ",\"timers_ns\":{";
      bool First = true;
      for (const auto &[Name, Ns] : S.TimerNs) {
        Out << (First ? "" : ",") << "\"" << Name << "\":" << Ns;
        First = false;
      }
      Out << "}}" << (I + 1 < T.Spans.size() ? ",\n" : "\n");
    }
    Out << "]\n";
  }

  std::cout << "{\"rounds\":" << Traced.size() << ",\"attempted\":"
            << Attempted << ",\"failed\":" << FailCount << ",\"failures\":[";
  for (size_t I = 0; I < Failures.size(); ++I)
    std::cout << (I ? "," : "") << "\"" << jsonEscape(Failures[I].Op) << ": "
              << jsonEscape(Failures[I].Why.substr(0, 400)) << "\"";
  std::cout << "],\"ops_ms\":{";
  bool First = true;
  for (const auto &[Op, Ms] : Traced[0].OpMs) {
    std::cout << (First ? "" : ",") << "\"" << Op << "\":"
              << Med([&, Name = Op](size_t R) {
                   return Traced[R].OpMs.at(Name);
                 });
    First = false;
  }
  std::cout << "},\"ops_accounted_pct\":{";
  First = true;
  for (const auto &[Op, Pct] : OpAccounted) {
    std::cout << (First ? "" : ",") << "\"" << Op << "\":" << Pct;
    First = false;
  }
  std::cout << "},\"ops_tracing_pct\":{";
  First = true;
  for (const auto &[Op, Pct] : OpBook) {
    std::cout << (First ? "" : ",") << "\"" << Op << "\":" << Pct;
    First = false;
  }
  std::cout << "},\"metrics\":{";
  First = true;
  for (const auto &[K, V] : M) {
    std::cout << (First ? "" : ",") << "\"" << K << "\":" << V;
    First = false;
  }
  std::cout << "}}\n";
  return 0;
}

/// Runs \p Fn on a thread with fgc's 512 MiB stack, so in-process work
/// recurses as deeply as the driver allows.
int onBigStack(std::function<int()> Fn) {
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, size_t(512) << 20);
  struct Box {
    std::function<int()> Fn;
    int Ret = 1;
  } B{std::move(Fn)};
  pthread_t Tid;
  if (pthread_create(
          &Tid, &Attr,
          [](void *P) -> void * {
            Box *B = static_cast<Box *>(P);
            B->Ret = B->Fn();
            return nullptr;
          },
          &B) != 0)
    die("cannot create the 512 MiB worker thread");
  pthread_join(Tid, nullptr);
  pthread_attr_destroy(&Attr);
  return B.Ret;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: fgbench <load|trace> --key value ...");
  std::string Cmd = Argv[1];
  std::map<std::string, std::string> Args = parseArgs(Argc, Argv, 2);
  std::cout << std::setprecision(15);
  if (Cmd == "load")
    return runLoad(Args);
  if (Cmd == "trace")
    return onBigStack([&] {
      TraceRun R(Args);
      return R.run();
    });
  die("unknown command `" + Cmd + "`");
}
