"""Seeded input generators for the benchmark, with independent references.

Every generator returns the program text together with the type and the
value it must produce.  The values are computed here, in Python, from the
seed alone, never by asking the compiler under test.
"""

import json
import random

LCG_MOD = 2147483647

# The loops program's list length and repeat count, sized so evaluation
# is most of an `fgc` run's wall time (a no-work run takes about 3 ms of
# the VM's 25 ms) while a run still takes many samples.
LOOPS_N = 512
LOOPS_REPS = 80

# fgcd traffic.  The repository's docs say what fgcd serves: editors,
# build servers and CI re-check unchanged sources, and "every
# byte-identical re-check afterwards is a lookup" (docs/PROTOCOL.md,
# opening paragraph); "a warm `check` [is] the editor fleet's steady
# state" (docs/ARCHITECTURE.md, section 11).  So most requests re-check
# a source already checked (artifact-cache hits), fewer check a source
# just edited (misses, then inserts), and a minority run one.  The docs
# give this order but no numbers: the shares below are unverified.
# Every block of ten consecutive requests holds exactly these counts.
WARM_CHECKS, EDIT_CHECKS, RUNS = 6, 3, 1
RUN_BACKEND, RUN_OPTIMIZE = "vm", 2
# The traffic opens with this many checks of edited sources (the files
# the fleet already has open), sent before measuring.  A warm check
# repeats a check at least WARM_LAG requests back, so the original has
# been answered even with every connection busy.
PREFILL = 12
WARM_LAG = 8

LOOPS_TEMPLATE = """\
concept Semigroup<t> {{ binary_op : fn(t, t) -> t; }} in
concept Monoid<t> {{ refines Semigroup<t>; identity_elt : t; }} in
let accumulate = (forall t where Monoid<t>.
  fix (fun(accum : fn(list t) -> t).
    fun(ls : list t).
      if null[t](ls) then Monoid<t>.identity_elt
      else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls))))) in
let sum = (forall t.
  fix (fun(sum : fn(list t, fn(t, t) -> t, t) -> t).
    fun(ls : list t, add : fn(t, t) -> t, zero : t).
      if null[t](ls) then zero
      else add(car[t](ls), sum(cdr[t](ls), add, zero)))) in
model Semigroup<int> {{ binary_op = iadd; }} in
model Monoid<int> {{ identity_elt = 0; }} in
let gen = fix (fun(gen : fn(int, int) -> list int).
  fun(n : int, s : int).
    if ieq(n, 0) then nil[int]
    else cons[int](imod(s, 100),
                   gen(isub(n, 1), imod(iadd(imult(s, 48271), 11), {mod})))) in
let xs = gen({n}, {s0}) in
let rep = fix (fun(rep : fn(int, int) -> int).
  fun(k : int, acc : int).
    if ieq(k, 0) then acc
    else rep(isub(k, 1),
             iadd(acc, iadd(accumulate[int](xs), sum[int](xs, iadd, 0))))) in
rep({reps}, 0)
"""


def loops_program(seed):
    """The loops program (corpus workload); returns (source, type, value)."""
    s0 = random.Random(seed).randrange(1, LCG_MOD)
    xs, s = [], s0
    for _ in range(LOOPS_N):
        xs.append(s % 100)
        s = (s * 48271 + 11) % LCG_MOD
    src = LOOPS_TEMPLATE.format(mod=LCG_MOD, n=LOOPS_N, s0=s0,
                                reps=LOOPS_REPS)
    return src, "int", str(2 * LOOPS_REPS * sum(xs))


def _list(xs):
    out = "nil[int]"
    for x in reversed(xs):
        out = "cons[int](%d, %s)" % (x, out)
    return out


MONOID = """\
concept Semigroup<t> {{ binary_op : fn(t, t) -> t; }} in
concept Monoid<t> {{ refines Semigroup<t>; identity_elt : t; }} in
let accumulate = (forall t where Monoid<t>.
  fix (fun(accum : fn(list t) -> t).
    fun(ls : list t).
      if null[t](ls) then Monoid<t>.identity_elt
      else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls))))) in
model Semigroup<int> {{ binary_op = {op}; }} in
model Monoid<int> {{ identity_elt = {unit}; }} in
iadd({tag}, accumulate[int]({xs}))
"""

SHAPE = """\
concept Shape<t> {{ area : fn(t) -> int; }} in
model Shape<int> {{ area = fun(x : int). imult(x, x); }} in
let total = (forall t where Shape<t>.
  fix (fun(f : fn(list t) -> int).
    fun(ls : list t).
      if null[t](ls) then 0
      else iadd(Shape<t>.area(car[t](ls)), f(cdr[t](ls))))) in
iadd({tag}, total[int]({xs}))
"""

ORD = """\
concept Eq<t> {{ eq : fn(t, t) -> bool; }} in
concept Ord<t> {{ refines Eq<t>; lt : fn(t, t) -> bool; }} in
model Eq<int> {{ eq = ieq; }} in
model Ord<int> {{ lt = ilt; }} in
let count = (forall t where Ord<t>.
  fun(p : t).
    fix (fun(f : fn(list t) -> int).
      fun(ls : list t).
        if null[t](ls) then 0
        else iadd(if Ord<t>.lt(car[t](ls), p) then 1 else 0,
                  f(cdr[t](ls))))) in
iadd({tag}, count[int]({pivot})({xs}))
"""


def concept_program(r, tag):
    """One generated concept program; returns (source, type, value)."""
    xs = [r.randrange(0, 50) for _ in range(r.randint(8, 24))]
    kind = r.randrange(3)
    if kind == 0:
        op, unit, fold = r.choice([
            ("iadd", 0, sum),
            ("imax", 0, lambda v: max(v + [0])),
            ("imin", 1000, lambda v: min(v + [1000])),
        ])
        src = MONOID.format(op=op, unit=unit, tag=tag, xs=_list(xs))
        return src, "int", str(tag + fold(xs))
    if kind == 1:
        src = SHAPE.format(tag=tag, xs=_list(xs))
        return src, "int", str(tag + sum(x * x for x in xs))
    pivot = r.randrange(0, 50)
    src = ORD.format(tag=tag, pivot=pivot, xs=_list(xs))
    return src, "int", str(tag + sum(1 for x in xs if x < pivot))


def request_line(method, field, text, backend, optimize, typ, value):
    """One line of the request file fgbench reads (tab-separated)."""
    cols = [method, field, json.dumps(text) if text is not None else "-",
            backend or "-", "-" if optimize is None else str(optimize),
            json.dumps(typ) if typ is not None else "-",
            json.dumps(value) if value is not None else "-"]
    return "\t".join(cols) + "\n"


def traffic(seed, count, edit):
    """The fgcd request sequence: PREFILL lines, then `count` more.

    `edit(i)` returns the i-th just-edited source as (field, text, type,
    value), `field` being `source` or `path`.  After the prefill, every
    block of ten requests holds WARM_CHECKS, EDIT_CHECKS and RUNS in a
    seeded order; a warm check repeats an earlier check line byte for
    byte.
    """
    r = random.Random(seed)
    lines, checks, edits = [], [], 0

    def fresh(method):
        nonlocal edits
        field, text, typ, value = edit(edits)
        edits += 1
        if method == "check":
            checks.append(request_line("check", field, text, None, None,
                                       typ, None))
            return checks[-1]
        return request_line("run", field, text, RUN_BACKEND, RUN_OPTIMIZE,
                            typ, value)

    prefill = [fresh("check") for _ in range(PREFILL)]
    while len(lines) < count:
        block = (["warm"] * WARM_CHECKS + ["check"] * EDIT_CHECKS
                 + ["run"] * RUNS)
        r.shuffle(block)
        for kind in block:
            if kind == "warm":
                lines.append(checks[r.randrange(len(checks) - WARM_LAG)])
            else:
                lines.append(fresh(kind))
    return prefill + lines[:count]


def edited(source, i):
    """Source `source` after its i-th edit: a trailing comment, so the
    bytes (and the artifact-cache key) change and the meaning does not."""
    return source + "// edit %d\n" % i

