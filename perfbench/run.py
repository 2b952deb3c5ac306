#!/usr/bin/env python3
"""End-to-end benchmark of fgc and fgcd; see perfbench/README.md.

    python3 perfbench/run.py --workload fglib --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The benchmark builds fgc, fgcd and its
helpers fgbench and hostref from source into .bench_build/, sets up the
workload's inputs, a fresh fgcd and a fresh AOT build cache under a
temporary directory in .bench_build/tmp/, measures (scaling times by the
host reference), checks every output against a reference computed here,
and prints a table followed by one JSON line.
With --trace 0 that line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of the traced in-process run.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_build", "tmp")  # per-run dirs, TMPDIR
JOBS = 1  # fgc --batch -jC, C <= nproc (see README.md)
# fgcd serves one connection with one worker, and it and the load client
# share one CPU: in a closed loop only one of them runs at a time, and no
# reply waits for another vCPU to be scheduled (see README.md).
CONNS = 1
LOAD_CPUS = {min(os.sched_getaffinity(0))}
CORPUS_MODULES = 300
# The corpus workload batches this many seeded corpora in turn, one per
# cold/warm pair of a 25 s run: a corpus's batch cost depends on its
# seed (modules.instantiate calls ranged 17,976-22,224 over ten seeds),
# and a median over many corpora moves less from seed to seed.
CORPORA = 15
# The work of a measured run at --seconds 10 (scaled for other values),
# fixed so that every run does the same: ROUNDS rounds of the four fgc
# configurations, each followed by BATCH_PAIRS cold and warm batch pairs,
# and LOAD_COUNT fgcd requests, spread evenly over SLICES slices.  They
# are sized so a run measures about 10 s on the development host.
ROUNDS = {"fglib": 45, "corpus": 6}
BATCH_PAIRS = {"fglib": 2, "corpus": 1}
LOAD_COUNT = {"fglib": 2000, "corpus": 9000}
SLICES = 10  # The phases interleave, so each metric samples the whole run.
# On a slow host the measured part stops after the slice that takes it
# past this multiple of --seconds, so a run stays within its time.
MAX_STRETCH = 1.2
# The host reference (hostref.cpp): its checksum, its median wall time in
# ms on the host the bounds were set on, and how often it runs between
# measured operations.  Every reported time is scaled by HOSTREF_MS over
# the reference's median in the same run (see README.md, "Host speed").
HOSTREF_SUM = "126089670"
HOSTREF_MS = 12.5
HOSTREF_EVERY_S = 0.15
FGLIB_DIR = os.path.join(ROOT, "examples", "fglib")
FGLIB_TYPE = "(int * int * int * int * bool)"
FGLIB_VALUE = "(31, 36, 7, 24, true)"  # pinned by tests/FglibTest.cpp

WALL_CONFIGS = [
    ("tree_O0", ["--backend=tree"]),
    ("vm_O0", ["--backend=vm"]),
    ("vm_O2", ["-O2", "--backend=vm"]),
    ("aot_O2", ["--backend=aot"]),
]
WORKLOADS = ["fglib", "corpus"]

END_TO_END = [
    ("setup_s", "s"), ("wall_ms.tree_O0", "ms"), ("wall_ms.vm_O0", "ms"),
    ("wall_ms.vm_O2", "ms"), ("wall_ms.aot_O2", "ms"),
    ("batch_cold_ms", "ms"), ("batch_warm_ms", "ms"),
    ("rtt_us.p50", "us"), ("rps", "1/s"),
    ("peak_rss_mb", "MB"),
]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark itself cannot run (no sources, build failure)."""


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no fgc sources next to perfbench/ (expected "
                         "src/CMakeLists.txt at the repository root)")
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP)
    # Configured every time (quick once cached), so targets added to
    # CMakeLists.txt since the last run are known to the build.
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
           "--target", "fgc", "fgcd", "fgbench", "hostref"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        raise BenchError("build failed")
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    cxx = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "fgc": os.path.join(BUILD, "fg", "driver", "fgc"),
        "fgcd": os.path.join(BUILD, "fg", "driver", "fgcd"),
        "fgbench": os.path.join(BUILD, "fgbench"),
        "hostref": os.path.join(BUILD, "hostref"),
        "cxx": cxx,
        "cxx_version": version[0] if version else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
    }


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

# Options whose defaults depend on the build or the environment are
# always passed explicitly; these variables would change them silently.
# The host compiler's temporary files stay inside the checkout.
ENV = {k: v for k, v in os.environ.items()
       if k not in ("FGC_AOT_CXX", "FGC_AOT_CXXFLAGS", "FGC_AOT_CACHE", "CXX")}
ENV["TMPDIR"] = TMP


class Proc:
    def __init__(self, rc, out, err, ms, rss_mb):
        self.rc, self.out, self.err, self.ms, self.rss_mb = rc, out, err, ms, rss_mb


def popen(args, cwd, out, err, cpus=None):
    """Starts a process, on the CPUs `cpus` if given (the child inherits
    the affinity it is forked with)."""
    if cpus is None:
        return subprocess.Popen(args, cwd=cwd, stdout=out, stderr=err,
                                env=ENV)
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return subprocess.Popen(args, cwd=cwd, stdout=out, stderr=err,
                                env=ENV)
    finally:
        os.sched_setaffinity(0, old)


def run_proc(args, cwd, timeout=120, cpus=None):
    """Runs one process; wall time and peak RSS come from wait4."""
    out_path = os.path.join(cwd, ".proc.out")
    err_path = os.path.join(cwd, ".proc.err")
    with open(out_path, "w+b") as fo, open(err_path, "w+b") as fe:
        t0 = time.perf_counter()
        p = popen(args, cwd, fo, fe, cpus)
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:  # interrupted: the child must not outlive us
            p.kill()
            p.wait()
            raise
        finally:
            killer.cancel()
        ms = (time.perf_counter() - t0) * 1000.0
        p.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        out = fo.read().decode(errors="replace")
        err = fe.read().decode(errors="replace")
    return Proc(p.returncode, out, err, ms, ru.ru_maxrss / 1024.0)


class Daemon:
    """fgcd on a Unix socket in a temp directory (relative socket path,
    so the directory may be deeper than sun_path allows)."""

    SOCK = "fgcd.sock"

    def __init__(self, bins, cwd, search_path):
        self.cwd = cwd
        self.log = open(os.path.join(cwd, "fgcd.log"), "w")
        args = [bins["fgcd"], "--socket", self.SOCK, "--threads", str(CONNS),
                "--cache-entries", "65536"]
        if search_path:
            args += ["-I", search_path]
        self.proc = popen(args, cwd, self.log, self.log, LOAD_CPUS)
        self.rss_mb = 0.0
        deadline = time.monotonic() + 20
        while True:
            try:
                if self.request({"id": 0, "method": "version"}).get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("fgcd did not start")
            time.sleep(0.002)

    def request(self, obj):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.settimeout(30)
            here = os.getcwd()
            os.chdir(self.cwd)
            try:
                s.connect(self.SOCK)
            finally:
                os.chdir(here)
            s.sendall((json.dumps(obj) + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
            return json.loads(buf) if buf else {}
        finally:
            s.close()

    def stop(self):
        """Shuts the daemon down; returns True when it exited cleanly."""
        if self.proc is None:
            return True
        clean = False
        if self.proc.returncode is None:
            try:
                clean = bool(self.request({"id": 1, "method": "shutdown"})
                             .get("ok"))
            except (OSError, ValueError):
                clean = False
            killer = threading.Timer(20, self.proc.kill)
            killer.start()
            try:
                _, status, ru = os.wait4(self.proc.pid, 0)
            finally:
                killer.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = ru.ru_maxrss / 1024.0
        clean = clean and self.proc.returncode == 0
        self.proc = None
        self.log.close()
        return clean


def version_requests(d):
    """A request file of `version` requests alone."""
    path = os.path.join(d, "version.tsv")
    write(path, gen.request_line("version", "-", None, None, None, None,
                                 None))
    return path


def load(run, daemon, requests, first, count):
    """Closed-loop load from the compiled client (not a GIL-bound one):
    `count` requests from line `first` on, over CONNS connections.
    Returns the round trips in microseconds and the seconds taken.
    A request not answered by fgbench's deadline counts as failed."""
    samples = os.path.join(daemon.cwd, "rtt.txt")
    # fgbench stops itself at 60 s.
    p = run_proc([run.bins["fgbench"], "load", "--socket", Daemon.SOCK,
                  "--conns", str(CONNS), "--first", str(first),
                  "--count", str(count), "--requests", requests,
                  "--samples", samples],
                 daemon.cwd, timeout=90, cpus=LOAD_CPUS)
    if p.rc != 0:
        raise RuntimeError("fgbench load failed: " + p.err[-500:])
    res = json.loads(p.out.strip().splitlines()[-1])
    if res["attempted"] != count:
        raise RuntimeError("fgbench load attempted %d of %d requests"
                           % (res["attempted"], count))
    run.attempted += res["attempted"]
    for _ in range(res["failed"]):
        run.fail("daemon: " + res["first_failure"])
    with open(samples) as f:
        rtts = [float(x) for x in f]
    return rtts, res["seconds"]


# --------------------------------------------------------------------------
# Workloads: inputs and references
# --------------------------------------------------------------------------

def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def tree_digest(path):
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(path)):
        dirnames.sort()
        for name in sorted(files):
            p = os.path.join(dirpath, name)
            h.update(os.path.relpath(p, path).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def edit_files(d, root, typ, value):
    """The `edit` function for gen.traffic on a module root: the i-th
    edited root is written to its own directory under d (a module lives
    in a file named after it), and its imports resolve through fgcd's
    `-I` search path.  Paths are relative to d, where fgcd runs."""
    with open(root) as f:
        text = f.read()
    name = os.path.basename(root)

    def edit(i):
        path = os.path.join("inputs", "edits", "e%05d" % i, name)
        write(os.path.join(d, path), gen.edited(text, i))
        return "path", path, typ, value
    return edit


def scaled(n, seconds):
    """A run's share of work `n` sized for --seconds 10."""
    return max(1, round(n * seconds / 10))


def corpus_seed(seed, k):
    """The generator seed of the workload seed's k-th corpus."""
    return seed * CORPORA + k


def make_inputs(workload, seed, seconds, bins, d):
    """Generates the workload's inputs under d; returns its spec."""
    inputs = os.path.join(d, "inputs")
    os.makedirs(inputs)
    reqs = os.path.join(inputs, "requests.tsv")
    count = scaled(LOAD_COUNT[workload], seconds)
    # The traced run replays the prefill and this many requests after it.
    spec = {"inputs": inputs, "requests": reqs, "session_requests": 40,
            "load_count": count, "search_path": None}
    if workload == "fglib":
        root = os.path.join(FGLIB_DIR, "fglib.fg")
        spec.update(program=root, type=FGLIB_TYPE, value=FGLIB_VALUE,
                    batch_dirs=[FGLIB_DIR], batch_n=21,
                    search_path=FGLIB_DIR)
        edit = edit_files(d, root, FGLIB_TYPE, FGLIB_VALUE)
    else:
        corpora = []
        for k in range(CORPORA):
            corpora.append(os.path.join(inputs, "corpus%02d" % k))
            p = run_proc([bins["fgc"], "--seed", str(corpus_seed(seed, k)),
                          "--gen-corpus", str(CORPUS_MODULES), "--out",
                          corpora[-1]], d)
            if p.rc != 0:
                raise RuntimeError("corpus generation failed: " + p.err)
            n = len([f for f in os.listdir(corpora[-1])
                     if f.endswith(".fg")])
            if n != CORPUS_MODULES:
                raise RuntimeError("%d modules generated, expected %d"
                                   % (n, CORPUS_MODULES))
        src, typ, value = gen.loops_program(seed)
        prog = os.path.join(inputs, "loops.fg")
        write(prog, src)
        spec.update(program=prog, type=typ, value=value, batch_dirs=corpora,
                    batch_n=CORPUS_MODULES, corpus=CORPUS_MODULES,
                    session_requests=300)
        r = random.Random("programs-%d" % seed)

        def edit(i):
            return ("source",) + gen.concept_program(r, i + 1)
    write(reqs, "".join(gen.traffic(seed, count, edit)))
    return spec


class Run:
    """One benchmark run: counts every operation and every failure."""

    def __init__(self, bins):
        self.bins = bins
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rss = []
        self.ref = []  # Wall times of the host reference, ms.
        self.caches = 0  # Cold batches run so far.
        self.slices = 0  # Slices of the measured part that ran.
        self.batch_dir = None
        self.daemons = []  # Every fgcd started, stopped at the end.

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)
            log("FAILED: " + what)

    def hostref(self, d):
        """One run of the host reference; its wall time goes to self.ref.
        It is not an operation of the program, so it is not counted."""
        p = run_proc([self.bins["hostref"]], d)
        if p.rc != 0 or p.out.strip() != HOSTREF_SUM:
            raise RuntimeError("host reference: exit %d, output %r"
                               % (p.rc, p.out[-100:]))
        self.ref.append(p.ms)
        return p.ms

    def fgc(self, spec, d, extra, aot_cache):
        """One fgc process on the workload's program, output checked."""
        args = [self.bins["fgc"], "--validate=off",
                "--aot-cxx=" + self.bins["cxx"], "--aot-cache=" + aot_cache]
        args += extra + [spec["program"]]
        self.attempted += 1
        p = run_proc(args, d)
        lines = p.out.splitlines()
        want = ["type: " + spec["type"], "value: " + spec["value"]]
        if "-O2" in extra:
            want.append("optimized value: " + spec["value"])
        missing = [w for w in want if w not in lines]
        if p.rc != 0 or missing:
            self.fail("fgc %s: exit %d, missing %s, stderr %s"
                      % (" ".join(extra), p.rc, missing, p.err[-300:]))
            return None
        return p

    def batch(self, spec, d, cold):
        """One fgc --batch.  A cold one takes the next module set in turn
        and writes into the emptied module-cache directory; a warm one
        batches the same set again and reads what the cold one wrote."""
        n = spec["batch_n"]
        modcache = os.path.join(d, "module-cache")
        if cold:
            dirs = spec["batch_dirs"]
            self.batch_dir = dirs[self.caches % len(dirs)]
            self.caches += 1
            # The same directory every time, emptied, not a new one: new
            # directories made the file system spread them (and the
            # files in them) ever further, and cold batches slowed by up
            # to 40 % within and between runs.  The sync commits the
            # deletion before the timed run, not during it.
            os.makedirs(modcache, exist_ok=True)
            for name in os.listdir(modcache):
                path = os.path.join(modcache, name)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.unlink(path)
            os.sync()
        args = [self.bins["fgc"], "--batch", "-j%d" % JOBS, "--validate=off",
                "--module-cache=" + modcache, self.batch_dir]
        self.attempted += 1
        p = run_proc(args, d)
        want = ("batch: %d modules, %d checked, 0 cached" % (n, n) if cold
                else "batch: %d modules, 0 checked, %d cached" % (n, n))
        fgi = len([f for f in os.listdir(modcache) if f.endswith(".fgi")])
        if p.rc != 0 or want not in p.out.splitlines() or fgi != n:
            self.fail("batch %s: exit %d, %d .fgi, output %r"
                      % ("cold" if cold else "warm", p.rc, fgi,
                         p.out[-200:] + p.err[-200:]))
            return None
        return p


def setup(run, workload, seed, seconds, d):
    """Inputs, a started daemon and a primed fresh AOT build cache."""
    t0 = time.perf_counter()
    spec = make_inputs(workload, seed, seconds, run.bins, d)
    daemon = Daemon(run.bins, d, spec["search_path"])
    run.daemons.append(daemon)
    aot_cache = os.path.join(d, "aot-cache")
    os.makedirs(aot_cache)
    if not run.fgc(spec, d, ["--backend=aot"], aot_cache):
        raise RuntimeError("priming the AOT build cache failed")
    return spec, daemon, aot_cache, time.perf_counter() - t0


def tail(n):
    """Highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99, 90, 50):
        if n * (1 - p / 100.0) >= 10:
            return "p%g" % p
    return "-"


def percentile(values, p):
    """Nearest-rank percentile."""
    v = sorted(values)
    k = int(p / 100.0 * len(v) + 0.999999)
    return v[min(len(v), max(1, k)) - 1]


def measure(run, workload, seed, seconds, tmp):
    """The untraced run: end-to-end metrics."""
    setups, digests = [], []
    live = None
    for i in range(3):
        d = os.path.join(tmp, "setup%d" % i)
        os.makedirs(d)
        run.hostref(tmp)
        spec, daemon, aot_cache, s = setup(run, workload, seed, seconds, d)
        setups.append(s)
        digests.append(tree_digest(spec["inputs"]))
        if live:
            live[1].stop()
        live = (spec, daemon, aot_cache, d)
    if len(set(digests)) != 1:
        run.fail("determinism: the same seed generated different inputs")
    spec, daemon, aot_cache, d = live

    # Warm-up: one untimed round of every fgc operation, the traffic's
    # prefill, and `version` requests (which leave the artifact cache
    # alone) through fgcd.
    for _, extra in WALL_CONFIGS:
        run.fgc(spec, d, extra, aot_cache)
    if run.batch(spec, d, True):
        run.batch(spec, d, False)
    load(run, daemon, spec["requests"], 0, gen.PREFILL)
    load(run, daemon, version_requests(d), 0, 2000)

    wall = {name: [] for name, _ in WALL_CONFIGS}
    cold, warm, rtts, load_s = [], [], [], 0.0
    rounds = scaled(ROUNDS[workload], seconds)
    count = spec["load_count"]
    start = last_ref = time.perf_counter()

    def host_reference():
        nonlocal last_ref
        if time.perf_counter() - last_ref >= HOSTREF_EVERY_S:
            run.hostref(d)
            last_ref = time.perf_counter()

    for k in range(SLICES):
        if time.perf_counter() - start > MAX_STRETCH * seconds:
            log("slow host: measuring stopped after %d of %d slices"
                % (k, SLICES))
            break
        run.slices += 1
        for _ in range(rounds * (k + 1) // SLICES - rounds * k // SLICES):
            # Every configuration once, then cold and warm batches, so
            # wall and batch samples see the same stretch of the run.
            for name, extra in WALL_CONFIGS:
                host_reference()
                p = run.fgc(spec, d, extra, aot_cache)
                if p:
                    wall[name].append(p.ms)
                    run.rss.append(p.rss_mb)
            for _ in range(BATCH_PAIRS[workload]):
                host_reference()
                p = run.batch(spec, d, True)
                if p:
                    cold.append(p.ms)
                    run.rss.append(p.rss_mb)
                    host_reference()
                    p = run.batch(spec, d, False)
                    if p:
                        warm.append(p.ms)
                        run.rss.append(p.rss_mb)
        host_reference()
        first = count * k // SLICES
        r, secs = load(run, daemon, spec["requests"], gen.PREFILL + first,
                       count * (k + 1) // SLICES - first)
        rtts += r
        load_s += secs
    if not daemon.stop():
        run.fail("fgcd did not shut down cleanly")
    run.rss.append(daemon.rss_mb)

    # Each row: the reported value (times scaled to the reference host),
    # its sample count, and the value as measured.
    slow = statistics.median(run.ref) / HOSTREF_MS
    raw = {"setup_s": (statistics.median(setups), len(setups))}
    for name, _ in WALL_CONFIGS:
        raw["wall_ms." + name] = (statistics.median(wall[name] or [0]),
                                  len(wall[name]))
    raw["batch_cold_ms"] = (statistics.median(cold or [0]), len(cold))
    raw["batch_warm_ms"] = (statistics.median(warm or [0]), len(warm))
    raw["rtt_us.p50"] = (percentile(rtts or [0], 50), len(rtts))
    rows = {k: (v / slow, n, v) for k, (v, n) in raw.items()}
    rps = len(rtts) / max(load_s, 1e-9)
    rows["rps"] = (rps * slow, len(rtts), rps)
    rows["peak_rss_mb"] = (max(run.rss), len(run.rss), max(run.rss))
    print("# host reference: median %.4f ms over %d runs, %.4f x the "
          "reference host's %g ms; %d of %d slices measured"
          % (statistics.median(run.ref), len(run.ref), slow, HOSTREF_MS,
             run.slices, SLICES))
    return rows


def trace(run, workload, seed, seconds, tmp):
    """The traced run: per-layer metrics (plus harness calibration)."""
    d = os.path.join(tmp, "setup0")
    os.makedirs(d)
    spec, daemon, aot_cache, _ = setup(run, workload, seed, seconds, d)
    check = os.path.join(tmp, "regen")
    os.makedirs(check)
    if tree_digest(make_inputs(workload, seed, seconds, run.bins,
                               check)["inputs"]) \
            != tree_digest(spec["inputs"]):
        run.fail("determinism: the same seed generated different inputs")
    try:
        args = [run.bins["fgbench"], "trace", "--program", spec["program"],
                "--type", json.dumps(spec["type"]),
                "--value", json.dumps(spec["value"]),
                "--batch-dir", spec["batch_dirs"][0],
                "--requests", spec["requests"],
                "--session-requests",
                str(gen.PREFILL + spec["session_requests"]),
                "--search-path", spec["search_path"] or "-",
                "--aot-cxx", run.bins["cxx"], "--tmp", os.path.join(d, "trace"),
                "--seconds", "%.3f" % (0.6 * seconds),
                "--spans", os.path.join(os.path.dirname(BUILD),
                                        "spans-%s-%d.json" % (workload, seed))]
        if spec.get("corpus"):
            args += ["--corpus", str(spec["corpus"]),
                     "--seed", str(corpus_seed(seed, 0))]
        p = run_proc(args, d, timeout=170)
        if p.rc != 0:
            raise RuntimeError("fgbench trace failed: " + p.err[-800:])
        res = json.loads(p.out.strip().splitlines()[-1])
        ops = {k: round(v, 3) for k, v in res["ops_ms"].items()}
        run.attempted += res["attempted"]
        for why in res["failures"]:
            run.fail("traced run: " + why)
        run.failed += max(0, res["failed"] - len(res["failures"]))
        metrics = dict(res["metrics"])
        rounds = res["rounds"]
        if spec.get("corpus"):
            # The in-process generator must reproduce the CLI's corpus.
            if tree_digest(os.path.join(d, "trace", "trace-corpus")) != \
                    tree_digest(spec["batch_dirs"][0]):
                run.fail("determinism: in-process corpus differs from "
                         "fgc --gen-corpus")

        # Harness calibration: a no-work fgc run, and the client's own
        # cost per request measured with `version` requests.
        zero = os.path.join(d, "zero.fg")
        write(zero, "0\n")
        startup = []
        for _ in range(15):
            run.attempted += 1
            q = run_proc([run.bins["fgc"], "--validate=off", zero], d)
            if q.rc != 0 or "value: 0" not in q.out.splitlines():
                run.fail("fgc no-work run: " + q.err[-200:])
            startup.append(q.ms)
        metrics["driver.startup_ms"] = statistics.median(startup)
        metrics["host.ref_ms"] = statistics.median(
            [run.hostref(d) for _ in range(15)])
        rtts, _ = load(run, daemon, version_requests(d), 0, 2000)
        metrics["client.overhead_us"] = percentile(rtts, 50)
        # The requests the in-process session replayed, through fgcd
        # (whose artifact cache `version` requests leave empty): the
        # round trip beyond the session's own time is waiting.
        k = gen.PREFILL + spec["session_requests"]
        rtts, _ = load(run, daemon, spec["requests"], 0, k)
        metrics["server.wait_us.p50"] = (percentile(rtts, 50)
                                         - metrics["server.session_us.p50"])
        # The daemon's tail, too unsteady across runs for an end-to-end
        # bound, is reported here.
        rtts, _ = load(run, daemon, spec["requests"], k,
                       spec["load_count"] // 2)
        metrics["rtt_us.p99"] = percentile(rtts, 99)
        print("# traced run: %d rounds; median ms per op: %s"
              % (rounds, json.dumps(ops)))
        for key, what in (("ops_accounted_pct", "its layer spans cover"),
                          ("ops_tracing_pct", "the tracer's bookkeeping took")):
            print("# share of each op's time %s (%%): %s"
                  % (what, json.dumps({k: round(v, 2) for k, v in
                                       res[key].items()})))
    finally:
        if not daemon.stop():
            run.fail("fgcd did not shut down cleanly")
    return metrics


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def bench_one(bins, workload, seed, seconds, traced):
    tmp = os.path.join(TMP, "run-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    run = Run(bins)
    try:
        if traced:
            rows = {k: (v, None, None) for k, v in
                    trace(run, workload, seed, seconds, tmp).items()}
        else:
            rows = measure(run, workload, seed, seconds, tmp)
    except RuntimeError as e:
        run.fail(str(e))
        rows = None
    finally:
        for daemon in run.daemons:
            daemon.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    return run, rows


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    def interrupted(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, interrupted)

    try:
        bins = build()
    except BenchError as e:
        log("error: " + str(e))
        return 2
    log("build %s, host compiler %s (%s), -j%d, %d connection(s)"
        % (bins["build_type"], bins["cxx"], bins["cxx_version"], JOBS,
           CONNS))
    print("# build_type=%s host_cxx=%s (%s) jobs=%d conns=%d load_cpus=%s "
          "seed=%d seconds=%g"
          % (bins["build_type"], bins["cxx"], bins["cxx_version"], JOBS,
             CONNS, ",".join(map(str, sorted(LOAD_CPUS))), a.seed,
             a.seconds))

    names = per_layer_names() if a.trace else END_TO_END
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    attempted = failed = 0
    metrics = {}
    correct = True
    for w in workloads:
        run, rows = bench_one(bins, w, a.seed, a.seconds, a.trace == 1)
        attempted += run.attempted
        failed += run.failed
        if rows is None or run.failed:
            correct = False
        rows = rows or {}
        failed_pct = 100.0 * run.failed / max(1, run.attempted)
        print("## workload %s: attempted %d, failed %d (failed_pct %.3f %%)"
              % (w, run.attempted, run.failed, failed_pct))
        for name, unit in names:
            value, n, measured = rows.get(name, (None, None, None))
            if value is None:
                correct = False
                print("%-8s %-28s %14s %-6s" % (w, name, "missing", unit))
                continue
            extra = "" if n is None else "  n=%d tail=%s" % (n, tail(n))
            if measured is not None and measured != value:
                extra += "  measured=%.4f" % measured
            print("%-8s %-28s %14.4f %-6s%s" % (w, name, value, unit, extra))
            key = name if len(workloads) == 1 else w + "." + name
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
