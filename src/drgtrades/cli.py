"""Command-line front end: construction, verification and reporting as
reproducible batch commands.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error.
The enumeration cap comes from --cap, else the library default.  Output is
deterministic: everything printed is derived from sorted structures.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from . import report
from .bitrades import (
    MIN_BITRADES,
    _integral_bound,
    bitrade_from_json,
    bitrade_to_json,
    verify_bitrade,
    verify_pseudo_bitrade,
)
from .errors import (
    CliquesNotDelsarte,
    EnumerationTooLarge,
    InvalidParameters,
    NotDistanceRegular,
    UnsupportedFieldOrder,
)
from .families import (DEFAULT_ENUMERATION_CAP, build_family, build_halved_cube,
                       family_array, parse_family)
from .gfq import isotropic_count_product, isotropic_count_sum
from .graphs import (
    distance_regularity_check,
    graph_to_json,
    is_regular,
    verify_clique_system,
)
from .spectral import intersection_matrix_eigenvalues, theta_min


def _usage_error(message: str) -> NoReturn:
    print(f"usage error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _family(args):
    if args.cap <= 0:
        _usage_error(f"--cap must be positive, got {args.cap}")
    try:
        return parse_family(args.family)
    except ValueError as exc:
        _usage_error(str(exc))


def _build(args, cliques=True):
    """The --family instance as (name, params, graph, clique system or None);
    without cliques, also the odd halved cube, whose cliques are not Delsarte."""
    name, params = _family(args)
    cap = args.cap
    if not cliques and name == "halved_cube":
        return name, params, build_halved_cube(*params, check_delsarte=False, cap=cap)[0], None
    return (name, params) + build_family(name, params, cap=cap)


def _refuse_past_str_limit(x: int, what: str) -> None:
    """Exit 1 with one error line when x has more digits than str() takes: a
    limit kept as it is, since it also guards the JSON parse of bitrade files."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(x) >= 10 ** limit:
        print(f"error: {what} has more than {limit} digits", file=sys.stderr)
        raise SystemExit(1)


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_build(args) -> int:
    _, _, g, _ = _build(args)
    doc = graph_to_json(g)
    reg = is_regular(g)
    _emit(args, doc, [
        f"family: {args.family}",
        f"vertices: {g.num_vertices}",
        f"edges: {g.num_edges}",
        f"regular: {'yes, degree ' + str(reg.value) if reg.ok else 'no'}",
    ])
    return 0


def cmd_cliques(args) -> int:
    name, params, g, S = _build(args)
    if S is None:
        _usage_error(f"family {name} has no Delsarte clique system")
    v = verify_clique_system(g, S)
    k = is_regular(g).value
    doc = {
        "family": args.family,
        "k": int(k), "s": S.s, "m": S.m,
        "cliques": len(S.cliques),
        "valid": bool(v.ok),
    }
    _emit(args, doc, [
        f"(k,s,m) = ({k},{S.s},{S.m})",
        f"cliques: {len(S.cliques)} of size {S.s + 1}",
        f"system valid: {'yes' if v.ok else 'no, witness ' + repr(v.witness)}",
    ])
    return 0 if v.ok else 1


def _make_bitrade(args, name, params, g):
    if args.bitrade == "min":
        ctor = MIN_BITRADES.get(name)
        if ctor is None:
            _usage_error(f"no minimum bitrade constructor for {name}")
        return ctor(*params, host=g)
    try:
        with open(args.bitrade) as fh:
            doc = json.load(fh)
    except OSError as exc:
        _usage_error(f"cannot read bitrade file {args.bitrade!r}: {exc.strerror}")
    except ValueError as exc:
        _usage_error(f"bitrade file {args.bitrade!r} is not valid JSON: {exc}")
    try:
        return bitrade_from_json(g, doc)
    except KeyError as exc:
        _usage_error(f"unknown vertex label {exc} in bitrade file")
    except ValueError as exc:
        _usage_error(f"bitrade file {args.bitrade!r}: {exc}")


def cmd_bitrade(args) -> int:
    name, params, g, S = _build(args)
    T = _make_bitrade(args, name, params, g)
    doc = bitrade_to_json(T)
    _emit(args, doc, [
        f"host: {doc['host']}",
        f"|T0| = {len(doc['T0'])}, |T1| = {len(doc['T1'])}",
        "T0: " + " ".join(doc["T0"]),
        "T1: " + " ".join(doc["T1"]),
    ])
    return 0


def _fmt_verdict(v) -> str:
    if v.ok:
        return "pass"
    return f"FAIL ({v.detail}; witness {v.witness!r})"


def cmd_verify(args) -> int:
    name, params, g, S = _build(args)
    T = _make_bitrade(args, name, params, g)

    if S is None:
        rep = verify_pseudo_bitrade(g, T)
        doc = {
            "criterion_b": rep.b.ok, "theta": str(rep.theta),
            "cardinality": rep.cardinality, "bound": rep.bound,
            "pass": rep.ok,
        }
        _emit(args, doc, [
            f"eigenfunction criterion (theta = {rep.theta}): {_fmt_verdict(rep.b)}",
            f"cardinality: {rep.cardinality} vs bound {rep.bound}",
            f"overall: {'pass' if rep.ok else 'FAIL'}",
        ])
        return 0 if rep.ok else 1

    rep = verify_bitrade(g, S, T)
    which = args.criterion
    titles = {"a": "clique intersections", "b": f"eigenfunction at {rep.theta}",
              "c": f"trade subgraph {-rep.theta}-regular"}
    checks = {k: getattr(rep, k) for k in "abc" if which in (k, "all")}
    lines = [f"criterion {k} ({titles[k]}): {_fmt_verdict(v)}" for k, v in checks.items()]
    ok = all(v.ok for v in checks.values())
    doc = {
        "criteria": {k: v.ok for k, v in checks.items()},
        "theta": str(rep.theta),
        "cardinality": rep.cardinality,
    }
    if which == "all":
        lines.append(f"criteria agree: {'yes' if rep.criteria_agree else 'NO'}")
        if rep.bound is not None:
            lines.append(f"cardinality: {rep.cardinality} vs bound {rep.bound}")
            lines.append(f"isometric subgraph: {_fmt_verdict(rep.isometric)}")
            lines.append(f"minimal: {'yes' if rep.minimal else 'no'}")
            doc.update(bound=rep.bound, minimal=rep.minimal, meets_bound=rep.minimal)
            ok = ok and rep.minimal
        if rep.subgraph_array is not None:
            lines.append(f"trade subgraph distance-regular, array {rep.subgraph_array}")
            lines.append(f"shell sizes: {rep.shell_sizes}")
            doc.update(subgraph_array=str(rep.subgraph_array),
                       shells=list(rep.shell_sizes))
        doc["bitrade"] = bitrade_to_json(T)
    doc["pass"] = ok
    _emit(args, doc, lines + [f"overall: {'pass' if ok else 'FAIL'}"])
    return 0 if ok else 1


def cmd_wd_bound(args) -> int:
    arr = family_array(*_family(args), cap=args.cap)
    theta = theta_min(arr)
    bound = _integral_bound(arr, theta)
    _refuse_past_str_limit(bound, f"{args.family}: the w.d. bound")
    doc = {"family": args.family, "theta_min": theta, "wd_bound": bound}
    _emit(args, doc, [f"theta_min: {theta}", f"w.d. bound: {bound}"])
    return 0


def cmd_check_dr(args) -> int:
    name, params, g, _ = _build(args, cliques=False)
    v = distance_regularity_check(g)
    expected = family_array(name, params)
    match = v.ok and v.value == expected
    doc = {
        "family": args.family,
        "distance_regular": bool(v.ok),
        "array": str(v.value) if v.ok else None,
        "matches_closed_form": bool(match),
    }
    _emit(args, doc, [
        f"distance-regular: {'yes' if v.ok else 'no, witness ' + repr(v.witness)}",
        f"array: {v.value if v.ok else '-'}",
        f"matches closed form {expected}: {'yes' if match else 'NO'}",
    ])
    return 0 if match else 1


def cmd_spectrum(args) -> int:
    arr = family_array(*_family(args), cap=args.cap)
    eigs = intersection_matrix_eigenvalues(arr)
    doc = {"family": args.family, "array": str(arr), "eigenvalues": eigs}
    _emit(args, doc, [
        f"array: {arr}",
        "eigenvalues: " + " ".join(str(e) for e in eigs),
        f"theta_min: {eigs[-1]}",
    ])
    return 0


def cmd_identity(args) -> int:
    # not through main's InvalidParameters handler: there is no --family
    if args.d < 0 or args.q < 2:
        _usage_error(f"identity needs d >= 0 and q >= 2, got d={args.d}, q={args.q}")
    # the product side is at least q^(d(d-1)/2) >= 2^bits, tested before it is
    # computed; 2^(4 * limit) is past the limit, like any larger power
    what = f"identity d={args.d}, q={args.q}: the product side"
    bits = args.d * (args.d - 1) // 2 * (args.q.bit_length() - 1)
    _refuse_past_str_limit(1 << min(bits, 4 * sys.get_int_max_str_digits()), what)
    lhs = isotropic_count_product(args.d, args.q)
    _refuse_past_str_limit(lhs, what)
    rhs = isotropic_count_sum(args.d, args.q)
    doc = {"d": args.d, "q": args.q, "product_side": str(lhs),
           "sum_side": str(rhs), "equal": lhs == rhs}
    _emit(args, doc, [
        f"product side: {lhs}",
        f"sum side:     {rhs}",
        f"equal: {'yes' if lhs == rhs else 'NO'}",
    ])
    return 0 if lhs == rhs else 1


def cmd_report(args) -> int:
    results = report.run_all(include_large=args.with_large)
    if args.json:
        print(json.dumps([r.as_dict() for r in results], indent=2, sort_keys=True))
    else:
        for r in results:
            print(r.line())
        passed = sum(1 for r in results if r.passed)
        print(f"{passed}/{len(results)} criteria passed")
    return 0 if all(r.passed for r in results) else 1


_BITRADE = ("--bitrade", dict(default="min", help="'min' or a bitrade JSON file"))
_CRITERION = ("--criterion", dict(choices=("a", "b", "c", "all"), default="all"))

# the verbs that take --family: (verb, handler, help, options beyond the common three)
_FAMILY_VERBS = (
    ("build", cmd_build, "construct a family graph", ()),
    ("cliques", cmd_cliques, "construct and verify the clique system", ()),
    ("bitrade", cmd_bitrade, "construct a minimum bitrade", (_BITRADE,)),
    ("verify", cmd_verify, "verify a bitrade against its host", (_BITRADE, _CRITERION)),
    ("wd-bound", cmd_wd_bound, "weight-distribution bound at theta_min", ()),
    ("check-dr", cmd_check_dr, "distance-regularity of a family graph", ()),
    ("spectrum", cmd_spectrum, "exact intersection-matrix spectrum", ()),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drgtrades",
        description="Construct distance-regular graph families, their Delsarte "
                    "clique systems and minimum clique bitrades, and verify the "
                    "defining equivalences and bounds in exact arithmetic.")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, func, help_, options in _FAMILY_VERBS:
        p = sub.add_parser(verb, help=help_)
        p.add_argument("--family", required=True,
                       help="family spec, e.g. johnson:6,3 or grassmann:6,3,2")
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                       help="enumeration cap")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    p = sub.add_parser("identity",
                       help="isotropic-count identity: product vs shell sum")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("report", help="run the full verification matrix")
    p.add_argument("--all", action="store_true", dest="run_all",
                   help="run every criterion (default)")
    p.add_argument("--with-large", action="store_true",
                   help="include the large q=3 pipeline")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameters, UnsupportedFieldOrder) as exc:
        # family parameters that a builder, its field or its closed form refuse
        _usage_error(f"{args.family}: {exc}")
    except (EnumerationTooLarge, CliquesNotDelsarte) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotDistanceRegular as exc:
        print(f"host not distance-regular: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
