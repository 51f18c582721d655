"""Small ad-hoc graphs, scalar GF(q) references, scalar Fraction
references for vertex-function sums, a per-vertex distance-regularity sweep
and an exact maximum-clique search, shared across test modules."""

import itertools
from collections import deque
from fractions import Fraction
from functools import lru_cache

import numpy as np

from drgtrades.graphs import Graph, IntersectionArray, Verdict


def cube_graph(n):
    """H(n,2) built directly from bit flips."""
    labels = ["".join(str((x >> i) & 1) for i in range(n - 1, -1, -1))
              for x in range(2 ** n)]
    labels.sort()
    idx = {lab: i for i, lab in enumerate(labels)}
    edges = set()
    for lab in labels:
        for i in range(n):
            other = lab[:i] + str(1 - int(lab[i])) + lab[i + 1:]
            edges.add(tuple(sorted((idx[lab], idx[other]))))
    return Graph(labels, sorted(edges))


def cycle_graph(n):
    return Graph([f"v{i}" for i in range(n)],
                 [(i, (i + 1) % n) for i in range(n)])


# --- oracles for graph checks, independent of graphs' shell counts ------------

def reference_sweep(g):
    """distance_regularity_check's verdict on a connected regular graph, one
    singleton at a time: one BFS per vertex, its shell counts, and the first
    vertex whose counts are not uniform per distance, or whose array differs
    from vertex 0's, as the witness."""
    n, k = g.num_vertices, g.degree(0)
    nbrs = np.stack([g.neighbors(v) for v in range(n)]).reshape(n, k)
    common = None
    for x in range(n):
        dist = g.multi_source_distances([x])
        step = dist[nbrs] - dist[:, None]
        fwd, bwd = (step == 1).sum(axis=1), (step == -1).sum(axis=1)
        b, c = [], []
        for i in range(int(dist.max()) + 1):
            shell = np.flatnonzero(dist == i)
            for way, counts in (("forward", fwd[shell]), ("backward", bwd[shell])):
                if counts.min() != counts.max():
                    v = int(shell[counts.argmin()])
                    return Verdict(False, witness=(g.labels[x], g.labels[v], i, way,
                                                   int(counts.min()), int(counts.max())),
                                   detail="singleton not completely regular")
            b.append(int(fwd[shell[0]]))
            c.append(int(bwd[shell[0]]))
        arr = IntersectionArray(k, tuple(b[:-1]), tuple(c[1:]))
        if common is None:
            common = arr
        elif arr != common:
            return Verdict(False, witness=(g.labels[x], str(arr), str(common)),
                           detail="intersection array differs between vertices")
    return Verdict(True, value=common)


class CliqueSearchTooLarge(RuntimeError):
    """Exact maximum-clique search exceeded its node budget."""


def max_clique_order(g, node_budget=2_000_000):
    """Exact maximum clique cardinality via branch and bound with a greedy
    coloring bound.  Raises CliqueSearchTooLarge past the node budget."""
    adj = [frozenset(g.neighbors(v).tolist()) for v in range(g.num_vertices)]
    best = 0
    nodes = 0

    def color_order(cands):
        classes = []
        for v in cands:
            for cl in classes:
                if not (adj[v] & cl):
                    cl.add(v)
                    break
            else:
                classes.append({v})
        out = []
        for bound, cl in enumerate(classes, start=1):
            for v in sorted(cl):
                out.append((v, bound))
        return out

    def expand(size, cands):
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise CliqueSearchTooLarge(f"exceeded {node_budget} search nodes")
        if not cands:
            best = max(best, size)
            return
        colored = color_order(cands)
        for pos in range(len(colored) - 1, -1, -1):
            v, bound = colored[pos]
            if size + bound <= best:
                return
            rest = [u for u, _ in colored[:pos] if u in adj[v]]
            expand(size + 1, rest)

    order = sorted(range(g.num_vertices), key=lambda v: -g.degree(v))
    expand(0, order)
    return best


# --- scalar Fraction references, independent of spectral -----------------------

def reference_neighbor_sums(g, values):
    """sum_{y ~ x} values[y] for every vertex x, one Fraction at a time."""
    adj = [[] for _ in range(g.num_vertices)]
    for u, v in g.edge_array().tolist():
        adj[u].append(v)
        adj[v].append(u)
    return [sum((Fraction(values[y]) for y in adj[x]), Fraction(0))
            for x in range(g.num_vertices)]


def reference_shell_sums(g, values, x):
    """sum of values over each distance-i shell of x, by a deque BFS."""
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u).tolist():
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    out = [Fraction(0)] * (max(dist.values()) + 1)
    for v, d in dist.items():
        out[d] += Fraction(values[v])
    return out


# --- scalar GF(q) references, independent of the batched engine in gfq ---------

@lru_cache(maxsize=None)
def field_lists(F):
    """F's add, mul, neg and inv tables as nested Python lists."""
    return (F.add_table.tolist(), F.mul_table.tolist(), F.neg_table.tolist(),
            F.inv_table.tolist())


def reference_rref(rows, F):
    """Row reduction one matrix at a time in scalar field arithmetic."""
    add, mul, neg, inv = field_lists(F)
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        for piv in range(r, len(rows)):
            if rows[piv][col]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = mul[inv[rows[r][col]]]
        rows[r] = [s[x] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = mul[neg[rows[i][col]]]
                rows[i] = [add[x][f[y]] for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def reference_bases(n, d, q):
    """Every d x n matrix in reduced row echelon form over GF(q), as tuples
    of row tuples: a pivot column per row, zeros in the other pivot columns
    and left of each pivot, any digits elsewhere."""
    out = []
    for pivots in itertools.combinations(range(n), d):
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n)
                if j not in pivots]
        for digits in itertools.product(range(q), repeat=len(free)):
            m = [[0] * n for _ in range(d)]
            for i, j in enumerate(pivots):
                m[i][j] = 1
            for (i, j), x in zip(free, digits):
                m[i][j] = x
            out.append(tuple(map(tuple, m)))
    return out


def combination(coeffs, rows, F):
    """sum_i coeffs[i] rows[i] in scalar field arithmetic."""
    add, mul, _, _ = field_lists(F)
    v = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        v = [add[x][mul[c][y]] for x, y in zip(v, row)]
    return v


def reference_span(rows, F):
    """Every vector of the row space, one per coefficient vector."""
    return [tuple(combination(c, rows, F))
            for c in itertools.product(range(F.q), repeat=len(rows))]


def hyperbolic_value(v, F):
    """Q(v) = v_1 u_1 + ... + v_h u_h on v = (v_1..v_h, u_1..u_h)."""
    add, mul, _, _ = field_lists(F)
    h = len(v) // 2
    acc = 0
    for i in range(h):
        acc = add[acc][mul[v[i]][v[h + i]]]
    return acc


def is_totally_isotropic(rows, F):
    """Q vanishes on every vector of the row space."""
    return all(hyperbolic_value(v, F) == 0 for v in reference_span(rows, F))


def label(rows):
    return "/".join("".join(map(str, r)) for r in rows) if rows else "0"
