"""Small ad-hoc graphs and scalar GF(q) references shared across test
modules."""

import itertools
from functools import lru_cache

from drgtrades.graphs import Graph


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
