"""The benchmark's three workloads, each one cold iteration in this process.

Every workload returns an Outcome: its set-up time, its verdict wall time,
the verdicts it checked and the ones that came out wrong.  Set-up is timed
as CPU time of the main thread from process start, because on a shared
machine the wall time of a fraction of a second of imports varies more
than its bound allows; its wall time is kept beside it.  With setup_only a
workload returns as soon as its set-up is done.  A verdict that raises
counts as wrong.  Inputs are made here, from the seed; the package receives
only hosts, parameters and candidate pairs.

  report-all    `drgtrades report --all` through cli.main, as users run it.
  large-sparse  the criterion-3 pipeline on J_2(7,3), above the dense
                distance cap, so every distance is a per-source BFS.
  verify-batch  a seeded batch of valid and corrupted candidates verified
                on one J_2(6,3) host built during set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
import re
from time import perf_counter, thread_time

from drgtrades import cli
from drgtrades.bitrades import Bitrade, min_bitrade_grassmann, verify_bitrade
from drgtrades.families import build_grassmann, dual_polar_array, grassmann_array
from drgtrades.graphs import completely_regular_check, verify_clique_system


@dataclasses.dataclass
class Outcome:
    setup_s: float = 0.0
    setup_wall_s: float = 0.0
    verdict_s: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)   # perf_counter bounds of the verdicts
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    latencies_ms: dict = dataclasses.field(
        default_factory=lambda: {"valid": [], "corrupt": []})
    host: tuple | None = None                   # (n, d, q, graph) for the probes

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def set_up(start: tuple[float, float]) -> Outcome:
    """An Outcome whose set-up ends now; start holds perf_counter() and
    thread_time() at process start."""
    wall, cpu = start
    return Outcome(setup_s=thread_time() - cpu, setup_wall_s=perf_counter() - wall)


# --- report-all ---------------------------------------------------------------

CRITERIA = range(1, 12)
_ROW = re.compile(r"^\[\s*(\d+)\] (PASS|FAIL) ")


def check_report(code: int, text: str, out: Outcome) -> None:
    """One verdict per criterion: its row must read PASS; the summary line
    and the exit code must agree with the rows."""
    rows = {}
    for line in text.splitlines():
        m = _ROW.match(line)
        if m:
            rows[int(m.group(1))] = m.group(2)
    for n in CRITERIA:
        out.check(f"criterion {n}: {rows.get(n, 'missing')}", rows.get(n) == "PASS")
    summary = text.rstrip().splitlines()[-1] if text.strip() else ""
    total = len(CRITERIA)
    if not out.failures and (code != 0 or summary != f"{total}/{total} criteria passed"):
        out.failures.append(f"exit code {code}, summary {summary!r}")


def report_all(seed: int, start, setup_only: bool = False) -> Outcome:
    out = set_up(start)
    if setup_only:
        return out
    text = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(text):
        code = cli.main(["report", "--all"])
    t1 = perf_counter()
    out.verdict_s, out.window = t1 - t0, (t0, t1)
    check_report(code, text.getvalue(), out)
    out.host = (6, 3, 2, None)
    return out


# --- large-sparse ---------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PipelineSpec:
    n: int
    d: int
    q: int
    vertices: int
    edges: int
    cardinality: int
    shells: tuple


LARGE = PipelineSpec(7, 3, 2, vertices=11811, edges=1240155, cardinality=30,
                     shells=(1, 7, 14, 8))


def large_sparse(seed: int, start, setup_only: bool = False,
                 spec: PipelineSpec = LARGE) -> Outcome:
    """build_grassmann, verify_clique_system, one singleton against the
    closed-form array, min_bitrade_grassmann, verify_bitrade.  The inputs
    are fixed; the seed is only recorded."""
    out = set_up(start)
    if setup_only:
        return out
    n, d, q = spec.n, spec.d, spec.q
    t0 = perf_counter()
    g, S = build_grassmann(n, d, q)
    out.check("vertex and edge counts",
              (g.num_vertices, g.num_edges) == (spec.vertices, spec.edges))
    out.check("clique system", verify_clique_system(g, S).ok)
    arr = grassmann_array(n, d, q)
    one = completely_regular_check(g, [0])
    out.check("singleton array equals the closed form", one.ok and one.value == arr)
    T = min_bitrade_grassmann(n, d, q, host=g)
    t = perf_counter()
    rep = verify_bitrade(g, S, T, host_array=arr)
    t1 = perf_counter()
    out.latencies_ms["valid"].append((t1 - t) * 1e3)
    out.verdict_s, out.window = t1 - t0, (t0, t1)
    out.check("criteria a, b and c pass", rep.all_pass)
    out.check("cardinality equals the bound and the bitrade is minimal",
              rep.cardinality == spec.cardinality == rep.bound and bool(rep.minimal))
    out.check("trade subgraph array and shells",
              rep.subgraph_array == dual_polar_array(d, q)
              and rep.shell_sizes == spec.shells)
    out.host = (n, d, q, g)
    return out


# --- verify-batch -----------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BatchSpec:
    n: int
    d: int
    q: int
    valid: int
    corrupt: int


# A valid candidate costs about as much as 27 corrupted ones, mostly in host
# BFS; 40 corrupted per valid one puts criteria a-c at about 60% of the
# batch time.
BATCH = BatchSpec(6, 3, 2, valid=8, corrupt=320)


class GF2Space:
    """Rows of F_2^n as n-bit integers; column 0 is the most significant
    bit, so the binary string of a row is its label digit string."""

    def __init__(self, n: int):
        self.n = n

    def rref(self, rows) -> list[int]:
        rows, basis = list(rows), []
        for bit in reversed(range(self.n)):
            mask = 1 << bit
            pivot = next((r for r in rows if r & mask), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            rows = [r ^ pivot if r & mask else r for r in rows]
            basis = [r ^ pivot if r & mask else r for r in basis]
            basis.append(pivot)
        return basis

    def label(self, rows) -> str:
        return "/".join(format(r, f"0{self.n}b") for r in rows)

    def rows(self, label: str) -> list[int]:
        return [int(r, 2) for r in label.split("/")]

    def random_gl(self, rng: random.Random) -> list[int]:
        while True:
            m = [rng.getrandbits(self.n) for _ in range(self.n)]
            if len(self.rref(m)) == self.n:
                return m

    def apply(self, m: list[int], row: int) -> int:
        """row @ m: the XOR of the rows of m picked by the bits of row."""
        out = 0
        for j in range(self.n):
            if row >> (self.n - 1 - j) & 1:
                out ^= m[j]
        return out


def gl_image(g, sides, space: GF2Space, m) -> tuple[frozenset, frozenset]:
    """The image of a bitrade under x -> x @ m, an automorphism of J_2(n,d)
    mapping the clique system onto itself, hence a minimum bitrade again."""
    def image(v):
        return g.index_of(space.label(space.rref(
            space.apply(m, r) for r in space.rows(g.labels[v]))))
    return tuple(frozenset(image(v) for v in side) for side in sides)


def corruption(g, sides, rng: random.Random) -> tuple[frozenset, frozenset]:
    """Move one vertex of one side to a vertex outside the support that is
    adjacent to none of the side's other vertices, preferring a neighbor of
    the moved vertex, so both sides stay independent.  Where no vertex is
    free, as in tiny hosts, the vertex is dropped instead."""
    which = rng.randrange(2)
    side = sides[which]
    v = rng.choice(sorted(side))
    rest = side - {v}
    blocked = set(sides[0] | sides[1])
    for w in rest:
        blocked.update(g.neighbors(w).tolist())
    pool = [u for u in g.neighbors(v).tolist() if u not in blocked]
    if not pool:
        pool = [u for u in range(g.num_vertices) if u not in blocked]
    moved = list(sides)
    moved[which] = frozenset(rest | {rng.choice(pool)}) if pool else rest
    return tuple(moved)


def make_candidates(g, T, rng: random.Random, spec: BatchSpec) -> list:
    space = GF2Space(spec.n)
    sides = (T.t0, T.t1)
    pairs = [("valid", gl_image(g, sides, space, space.random_gl(rng)))
             for _ in range(spec.valid)]
    pairs += [("corrupt", corruption(g, sides, rng)) for _ in range(spec.corrupt)]
    rng.shuffle(pairs)
    return [(kind, Bitrade(g, t0, t1)) for kind, (t0, t1) in pairs]


def verify_batch(seed: int, start, setup_only: bool = False,
                 spec: BatchSpec = BATCH) -> Outcome:
    if spec.q != 2:
        raise ValueError("candidate images are generated over GF(2) only")
    n, d, q = spec.n, spec.d, spec.q
    g, S = build_grassmann(n, d, q)
    arr = grassmann_array(n, d, q)
    one = completely_regular_check(g, [0])
    T = min_bitrade_grassmann(n, d, q, host=g)
    candidates = make_candidates(g, T, random.Random(seed), spec)
    out = set_up(start)
    if setup_only:
        return out
    out.check("singleton array equals the closed form", one.ok and one.value == arr)
    expected = dual_polar_array(d, q)
    t0 = perf_counter()
    for i, (kind, B) in enumerate(candidates):
        t = perf_counter()
        try:
            rep = verify_bitrade(g, S, B, host_array=arr)
        except Exception as exc:  # noqa: BLE001 - a raising verdict is a wrong one
            out.check(f"{kind} candidate {i}: {type(exc).__name__}: {exc}", False)
            continue
        out.latencies_ms[kind].append((perf_counter() - t) * 1e3)
        if kind == "valid":
            out.check(f"valid candidate {i}",
                      rep.all_pass and bool(rep.minimal)
                      and rep.subgraph_array == expected)
        else:
            out.check(f"corrupted candidate {i}: criteria disagree", rep.criteria_agree)
    t1 = perf_counter()
    out.verdict_s, out.window = t1 - t0, (t0, t1)
    out.host = (n, d, q, g)
    return out


WORKLOADS = {
    "report-all": report_all,
    "large-sparse": large_sparse,
    "verify-batch": verify_batch,
}
