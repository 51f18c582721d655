"""CLI verbs, exit codes, JSON round-trips, byte-determinism."""

import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from drgtrades import bitrades, families
from drgtrades.bitrades import MIN_BITRADES, bitrade_to_json, corrupt_one_vertex
from drgtrades.cli import main
from drgtrades.errors import CrossCheckViolation
from drgtrades.families import FAMILIES, build_family, family_array, parse_family
from drgtrades.graphs import IntersectionArray, Verdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_johnson(capsys):
    code, out = run_cli(capsys, "build", "--family", "johnson:6,3")
    assert code == 0
    assert "vertices: 20" in out and "degree 9" in out


def test_build_json_schema(capsys):
    code, out = run_cli(capsys, "build", "--family", "hamming:2,2", "--json")
    doc = json.loads(out)
    assert doc["family"] == "hamming" and doc["params"] == [2, 2]
    assert doc["vertices"] == ["00", "01", "10", "11"]
    assert all(u < v for u, v in doc["edges"])


def test_cliques_verb(capsys):
    code, out = run_cli(capsys, "cliques", "--family", "hamming:3,3")
    assert code == 0
    assert "(k,s,m) = (6,2,1)" in out and "27" in out


def test_verify_min_johnson(capsys):
    code, out = run_cli(capsys, "verify", "--family", "johnson:6,3",
                        "--bitrade", "min")
    assert code == 0
    assert "criterion a" in out and "pass" in out
    assert "(3,2,1;1,2,3)" in out
    assert "minimal: yes" in out


def test_verify_single_criterion(capsys):
    code, out = run_cli(capsys, "verify", "--family", "johnson:6,3",
                        "--bitrade", "min", "--criterion", "b")
    assert code == 0
    assert "criterion b" in out and "criterion a" not in out


def test_verify_bitrade_file_roundtrip(tmp_path, capsys):
    code, out = run_cli(capsys, "bitrade", "--family", "johnson:6,3", "--json")
    assert code == 0
    path = tmp_path / "pasch.json"
    path.write_text(out)
    code, out = run_cli(capsys, "verify", "--family", "johnson:6,3",
                        "--bitrade", str(path))
    assert code == 0 and "overall: pass" in out


def test_verify_corrupted_file_fails(tmp_path, capsys):
    code, out = run_cli(capsys, "bitrade", "--family", "johnson:6,3", "--json")
    doc = json.loads(out)
    doc["T1"] = doc["T1"][:-1]  # drop one block: every criterion breaks
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--family", "johnson:6,3",
                        "--bitrade", str(path))
    assert code == 1
    assert "FAIL" in out


# verify output for bitrade_to_json(corrupt_one_vertex(T, random.Random(5))),
# T the minimum bitrade of the host; witnesses must print as plain Python ints
CORRUPTED_VERIFY = [
    ("johnson:6,3",
     {"host": "johnson:6,3", "T0": ["1,3,5", "1,4,6", "2,3,6", "2,4,5"],
      "T1": ["1,4,5", "2,3,5", "2,4,6"]},
     "criterion a (clique intersections): FAIL (clique meets the trades unevenly;"
     " witness (1, ['1,2,3', '1,3,4', '1,3,5', '1,3,6'], 1, 0))\n"
     "criterion b (eigenfunction at -3): FAIL (neighbor sum mismatch;"
     " witness ('1,2,3', Fraction(1, 1), Fraction(0, 1)))\n"
     "criterion c (trade subgraph 3-regular): FAIL (trade subgraph degree mismatch;"
     " witness ('1,3,5', 2, Fraction(3, 1)))\n"
     "criteria agree: yes\n"
     "overall: FAIL\n"),
    ("grassmann:4,2,2",
     {"host": "grassmann:4,2,2", "T0": ["0010/0001", "1000/0100", "1011/0110"],
      "T1": ["0100/0010", "1000/0001", "1100/0011"]},
     "criterion a (clique intersections): FAIL (clique meets the trades unevenly;"
     " witness (8, ['1000/0001', '1001/0010', '1001/0011', '1001/0100', '1001/0101',"
     " '1001/0110', '1001/0111'], 0, 1))\n"
     "criterion b (eigenfunction at -3): FAIL (neighbor sum mismatch;"
     " witness ('1000/0001', Fraction(2, 1), Fraction(3, 1)))\n"
     "criterion c (trade subgraph 3-regular): FAIL (trade subgraph degree mismatch;"
     " witness ('1000/0001', 2, Fraction(3, 1)))\n"
     "criteria agree: yes\n"
     "overall: FAIL\n"),
]


@pytest.mark.parametrize("family, doc, expected", CORRUPTED_VERIFY)
def test_verify_corrupted_file_output_is_pinned(tmp_path, capsys, family, doc, expected):
    name, params = parse_family(family)
    host = build_family(name, params)[0]
    bad = corrupt_one_vertex(MIN_BITRADES[name](*params, host=host), random.Random(5))
    assert bitrade_to_json(bad) == doc
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--family", family, "--bitrade", str(path))
    assert code == 1
    assert out == expected


# bitrade --json of each minimum constructor, as (T0, T1)
MIN_BITRADE_JSON = {
    "octahedron:3": (["0+", "0-"], ["1+", "1-"]),
    "hamming:3,3": (["000", "011", "101", "110"], ["001", "010", "100", "111"]),
    "johnson:6,3": (["1,3,5", "1,4,6", "2,3,6", "2,4,5"],
                    ["1,3,6", "1,4,5", "2,3,5", "2,4,6"]),
    "halved_cube:8": (["00000000", "00110011", "01010101", "01100110",
                       "10011001", "10101010", "11001100", "11111111"],
                      ["00010001", "00100010", "01000100", "01110111",
                       "10001000", "10111011", "11011101", "11101110"]),
    "grassmann:4,2,2": (["0010/0001", "1000/0100", "1001/0110"],
                        ["0100/0010", "1000/0001", "1100/0011"]),
    "doob:1,1": (["00.0", "01.1", "02.0", "03.1"], ["00.1", "01.0", "02.1", "03.0"]),
}


@pytest.mark.parametrize("family", sorted(MIN_BITRADE_JSON))
def test_min_bitrade_json_is_pinned(capsys, family):
    t0, t1 = MIN_BITRADE_JSON[family]
    code, out = run_cli(capsys, "bitrade", "--family", family, "--json")
    assert code == 0
    doc = {"host": family, "T0": t0, "T1": t1}
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verify_min_bitrade_at_d_1(capsys, q):
    # the minimum q-ary bitrade for d = 1 is the two isotropic points of D_1(q)
    code, out = run_cli(capsys, "verify", "--family", f"grassmann:3,1,{q}",
                        "--bitrade", "min")
    assert code == 0
    assert "cardinality: 2 vs bound 2\n" in out
    assert "trade subgraph distance-regular, array (1;1)\n" in out
    assert out.endswith("overall: pass\n")


def test_bitrade_at_d_1(capsys):
    code, out = run_cli(capsys, "bitrade", "--family", "grassmann:2,1,2")
    assert code == 0
    assert out == "host: grassmann:2,1,2\n|T0| = 1, |T1| = 1\nT0: 01\nT1: 10\n"


def test_check_dr_dual_polar_d_1(capsys):
    code, out = run_cli(capsys, "check-dr", "--family", "dual_polar_D:1,3")
    assert code == 0
    assert out.endswith("matches closed form (1;1): yes\n")


def test_verify_doob_pseudo(capsys):
    argv = ["verify", "--family", "doob:1,1", "--bitrade", "min"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == ("eigenfunction criterion (theta = -3): pass\n"
                   "cardinality: 8 vs bound 8\n"
                   "overall: pass\n")
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out == ('{\n  "bound": 8,\n  "cardinality": 8,\n  "criterion_b": true,\n'
                   '  "pass": true,\n  "theta": "-3"\n}\n')


def test_wd_bound_grassmann(capsys):
    code, out = run_cli(capsys, "wd-bound", "--family", "grassmann:6,3,2")
    assert code == 0
    assert "w.d. bound: 30" in out


def test_wd_bound_formula_path_is_fast_for_large_q(capsys):
    # no graph construction: q = 5 would have ~6e9 vertices
    code, out = run_cli(capsys, "wd-bound", "--family", "grassmann:6,3,5")
    assert code == 0
    assert "w.d. bound: 312" in out


def test_spectrum_verb(capsys):
    code, out = run_cli(capsys, "spectrum", "--family", "johnson:6,3")
    assert code == 0
    assert "9 3 -1 -3" in out and "theta_min: -3" in out


def test_check_dr_verb(capsys):
    code, out = run_cli(capsys, "check-dr", "--family", "dual_polar_D:3,2")
    assert code == 0
    assert "(7,6,4;1,3,7)" in out and "matches closed form" in out


def test_identity_verb(capsys):
    code, out = run_cli(capsys, "identity", "--d", "4", "--q", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if ":" in l]
    lhs = lines[0].split(":")[1].strip()
    rhs = lines[1].split(":")[1].strip()
    assert lhs == rhs and "equal: yes" in out


@pytest.mark.parametrize("d,q", [(-1, 2), (2, 1)])
def test_identity_refuses_out_of_range_parameters(capsys, d, q):
    err = _usage_error_line(capsys, ["identity", "--d", str(d), "--q", str(q)])
    assert err == f"usage error: identity needs d >= 0 and q >= 2, got d={d}, q={q}\n"


def test_hamming_one_coordinate_beyond_ten_symbols(capsys):
    # labels sort as strings, so "10" comes before "2"
    code, out = run_cli(capsys, "build", "--family", "hamming:1,11", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["vertices"] == sorted(str(i) for i in range(11))
    assert len(doc["edges"]) == 55
    code, out = run_cli(capsys, "check-dr", "--family", "hamming:1,11")
    assert (code, out) == (0, "distance-regular: yes\narray: (10;1)\n"
                              "matches closed form (10;1): yes\n")
    code, out = run_cli(capsys, "verify", "--family", "hamming:1,11")
    assert code == 0 and out.endswith("shell sizes: (1, 1)\noverall: pass\n")


def test_hamming_two_digit_symbols_are_refused_by_the_builder(capsys):
    for verb in ("build", "check-dr"):
        err = _usage_error_line(capsys, [verb, "--family", "hamming:2,11"])
        assert err == "usage error: hamming:2,11: need q <= 10 to build n >= 2\n"
    code, out = run_cli(capsys, "wd-bound", "--family", "hamming:2,11")
    assert (code, out) == (0, "theta_min: -2\nw.d. bound: 4\n")


def test_unknown_family_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "petersen:1"])
    assert exc.value.code == 2


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cap_guard(capsys):
    code = main(["build", "--family", "hamming:8,3", "--cap", "100"])
    assert code == 1


def test_env_cap(capsys, monkeypatch):
    # the cap comes from --cap alone, so DRG_CAP in the shell changes no run
    monkeypatch.setenv("DRG_CAP", "100")
    assert main(["build", "--family", "hamming:8,3"]) == 0
    assert "vertices: 6561" in capsys.readouterr().out


@pytest.mark.parametrize("argv,env,message", [
    (["--cap", "0"], None, "usage error: --cap must be positive, got 0"),
    (["--cap", "-5"], None, "usage error: --cap must be positive, got -5"),
])
def test_bad_cap_is_usage_error(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("DRG_CAP", env)
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "johnson:6,3", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


def _usage_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_unsupported_field_order_is_usage_error(capsys):
    err = _usage_error_line(capsys, ["check-dr", "--family", "grassmann:6,3,6"])
    assert err == "usage error: grassmann:6,3,6: q=6 not in [2, 3, 4, 5, 7, 8, 9]\n"


def test_out_of_range_parameters_are_usage_error(capsys):
    err = _usage_error_line(capsys, ["check-dr", "--family", "johnson:3,2"])
    assert err == "usage error: johnson:3,2: need 2 <= 2w <= n\n"


@pytest.mark.parametrize("verb,family,message", [
    ("wd-bound", "johnson:3,2", "need 2 <= 2w <= n"),
    ("wd-bound", "grassmann:2,2,2", "need 2 <= 2d <= n"),
    ("wd-bound", "dual_polar_D:0,2", "need d >= 1"),
    ("spectrum", "hamming:0,2", "need n >= 1, q >= 2"),
])
def test_formula_verbs_refuse_out_of_range_parameters(capsys, verb, family, message):
    err = _usage_error_line(capsys, [verb, "--family", family])
    assert err == f"usage error: {family}: {message}\n"


@pytest.mark.parametrize("verb,family", [("wd-bound", "grassmann:6,3,6"),
                                         ("spectrum", "dual_polar_D:3,10")])
def test_formula_verbs_refuse_q_that_is_not_a_prime_power(capsys, verb, family):
    err = _usage_error_line(capsys, [verb, "--family", family])
    assert err == f"usage error: {family}: need q a prime power\n"


def test_formula_verbs_take_prime_q_beyond_the_field_tables(capsys):
    code, out = run_cli(capsys, "wd-bound", "--family", "grassmann:4,2,11")
    assert (code, out) == (0, "theta_min: -12\nw.d. bound: 24\n")
    code, out = run_cli(capsys, "spectrum", "--family", "dual_polar_D:3,11")
    assert code == 0
    assert out == ("array: (133,132,121;1,12,133)\n"
                   "eigenvalues: 133 11 -11 -133\ntheta_min: -133\n")


def test_formula_verbs_finish_on_large_grassmann_q(capsys):
    # the spectrum search is a Sturm bisection, not a divisor search of the
    # characteristic polynomial's constant term (about 2e26 here)
    code, out = run_cli(capsys, "wd-bound", "--family", "grassmann:8,4,11")
    assert (code, out) == (0, "theta_min: -1464\nw.d. bound: 3900096\n")
    code, out = run_cli(capsys, "spectrum", "--family", "grassmann:8,4,11")
    assert code == 0
    assert out == ("array: (23576256,23544059,23191344,19487171;1,144,17689,2143296)\n"
                   "eigenvalues: 23576256 2140368 191652 14508 -1464\n"
                   "theta_min: -1464\n")


@pytest.mark.parametrize("argv,expected", [
    (("check-dr",), "distance-regular: yes\narray: (648,512;1,81)\n"
                    "matches closed form (648,512;1,81): yes\n"),
    (("verify", "--bitrade", "min"), "cardinality: 18 vs bound 18\n"),
], ids=["check-dr", "verify"])
def test_grassmann_host_above_the_dense_cap_is_proven_quickly(capsys, argv, expected):
    # J_8(4,2) has 4745 vertices: the automorphism certificate proves its
    # array where the per-vertex sweep took minutes
    t0 = time.perf_counter()
    code, out = run_cli(capsys, argv[0], "--family", "grassmann:4,2,8", *argv[1:])
    assert time.perf_counter() - t0 < 10
    assert code == 0 and expected in out


@pytest.mark.parametrize("spec", ["hamming:6,4", "doob:1,4"])
def test_family_hosts_of_4096_vertices_are_proven_quickly(capsys, spec):
    # H(6,4) and its Doob twin: the automorphism certificate, where the sweep takes seconds
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "check-dr", "--family", spec)
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert out == ("distance-regular: yes\n"
                   "array: (18,15,12,9,6,3;1,2,3,4,5,6)\n"
                   "matches closed form (18,15,12,9,6,3;1,2,3,4,5,6): yes\n")


def test_check_dr_builds_the_odd_halved_cube(capsys):
    code, out = run_cli(capsys, "check-dr", "--family", "halved_cube:7")
    assert code == 0
    assert out == ("distance-regular: yes\n"
                   "array: (21,10,3;1,6,15)\n"
                   "matches closed form (21,10,3;1,6,15): yes\n")
    assert family_array("halved_cube", (7,)) == IntersectionArray(21, (21, 10, 3), (1, 6, 15))


@pytest.mark.parametrize("verb", ["cliques", "verify", "bitrade"])
def test_clique_verbs_refuse_the_odd_halved_cube(capsys, verb):
    assert main([verb, "--family", "halved_cube:7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: halved 7-cube cliques have order 7 < Hoffman bound for odd n\n"


def test_missing_bitrade_file_is_usage_error(capsys, tmp_path):
    path = str(tmp_path / "missing.json")
    err = _usage_error_line(capsys, ["verify", "--family", "johnson:6,3",
                                     "--bitrade", path])
    assert err == f"usage error: cannot read bitrade file {path!r}: No such file or directory\n"


def test_malformed_bitrade_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"T0": [')
    err = _usage_error_line(capsys, ["verify", "--family", "johnson:6,3",
                                     "--bitrade", str(path)])
    assert err == (f"usage error: bitrade file {str(path)!r} is not valid JSON: "
                   "Expecting value: line 1 column 9 (char 8)\n")


@pytest.mark.parametrize("doc, message", [
    ({"T0": ["1,3,5"]}, 'expected an object with "T0" and "T1" lists of vertex labels'),
    (["1,2,3"], 'expected an object with "T0" and "T1" lists of vertex labels'),
    ({"T0": ["1,2,3", "1,2,4"], "T1": ["4,5,6"]}, "T0 is not an independent set"),
    ({"T0": ["1,2,3"], "T1": ["1,2,3"]}, "trades must be disjoint"),
    ({"T0": [], "T1": ["4,5,6"]}, "both trades must be nonempty"),
    # the minimum bitrade with a T0 block listed twice: 9 entries, not the 8-block verdict
    ({"T0": ["1,3,5", "1,4,6", "2,3,6", "2,4,5", "1,3,5"],
      "T1": ["1,3,6", "1,4,5", "2,3,5", "2,4,6"]}, "T0 lists the label '1,3,5' twice"),
    ({"T0": ["1,2,3"], "T1": ["4,5,6", "1,2,3", "4,5,6"]}, "T1 lists the label '4,5,6' twice"),
], ids=["no-T1", "list", "dependent-side", "overlap", "empty-side", "T0-twice", "T1-twice"])
def test_bitrade_file_shape_is_usage_error(capsys, tmp_path, doc, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    err = _usage_error_line(capsys, ["verify", "--family", "johnson:6,3",
                                     "--bitrade", str(path)])
    assert err == f"usage error: bitrade file {str(path)!r}: {message}\n"


def test_unknown_label_in_bitrade_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({"T0": ["1,2,3"], "T1": ["9,9,9"]}))
    err = _usage_error_line(capsys, ["verify", "--family", "johnson:6,3",
                                     "--bitrade", str(path)])
    assert err == "usage error: unknown vertex label '9,9,9' in bitrade file\n"


def test_non_distance_regular_host_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(bitrades, "distance_regularity_check",
                        lambda g: Verdict(False, witness=("1,2,3", 1), detail="x"))
    code = main(["verify", "--family", "johnson:6,3"])
    assert code == 1
    assert capsys.readouterr().err == "host not distance-regular: ('1,2,3', 1)\n"


def test_octahedron_cliques_are_capped(capsys, monkeypatch):
    # were the cap skipped, the host would hold 2^20 cliques; stop short of it
    def unreachable(*args, **kwargs):
        raise AssertionError("octahedron:20 built past the cap")
    monkeypatch.setattr(families, "Graph", unreachable)
    code = main(["build", "--family", "octahedron:20"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: octahedron(20): 1048576 cliques exceeds cap 100000\n")


def test_dual_polar_cap_names_candidates_and_vertices(capsys):
    code = main(["build", "--family", "dual_polar_D:4,2"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: dual_polar_D(4,2) has 270 vertices but would enumerate 200,787 "
        "candidate 4-subspaces, which exceeds cap 100000\n")


def test_entry_count_cap_names_the_entries(capsys):
    # J_8(6,1) is complete on 37,449 vertices: under the vertex cap, over the entry cap
    code = main(["build", "--family", "grassmann:6,1,8"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: grassmann(6,1,8): 1402390152 adjacency entries exceed 2000 x cap 100000\n")


# counts with millions of digits, which ended in MemoryError or ran for minutes
# while the builders computed them before testing them against the cap
HUGE_SPECS = ["hamming:100000000,2", "halved_cube:100000000", "johnson:100000000,50000000",
              "grassmann:100000000,50000000,2", "dual_polar_D:100000000,2"]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _package_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("spec", HUGE_SPECS)
def test_huge_parameters_are_refused_before_computing(spec):
    env = _package_env()
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "drgtrades", "build", "--family", spec,
                          "--cap", "2000"], capture_output=True, text=True, env=env,
                         preexec_fn=_limit_address_space, timeout=10)
    elapsed = time.perf_counter() - start
    name, params = parse_family(spec)
    assert (res.returncode, res.stdout) == (1, "")
    assert re.fullmatch(rf"error: {name}\({','.join(map(str, params))}\)"
                        r"(: | has )at least 2\^64 [^\n]*cap 2000\n", res.stderr), res.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize("verb,spec,rho", [
    ("spectrum", "hamming:99999999999999999999,2", "99999999999999999999"),
    ("wd-bound", "hamming:100000,2", "100000"),
])
def test_closed_forms_past_the_diameter_bound_are_refused(verb, spec, rho):
    # spectrum built the 10^20-entry closed form until MemoryError, and
    # wd-bound ran Sturm counts of 100,000 minors for more than a minute
    env = _package_env()
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "drgtrades", verb, "--family", spec],
                         capture_output=True, text=True, env=env,
                         preexec_fn=_limit_address_space, timeout=10)
    elapsed = time.perf_counter() - start
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (f"error: hamming({spec.split(':')[1]}): diameter {rho} exceeds 1000, "
                          "the closed-form bound of cap 100000\n")
    assert elapsed < 1.0


def test_integers_past_the_string_limit_are_refused():
    # identity --d 200 and these wd-bound specs ended in a ValueError traceback
    # from str(), the wd-bound ones after 3-5 s, and identity --d 1000 ran for
    # minutes; identity now refuses before computing its product side, and
    # each ends with one error line
    limit, env = sys.get_int_max_str_digits(), _package_env()
    run = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
               preexec_fn=_limit_address_space)
    for d in (200, 1000):
        start = time.perf_counter()
        res = subprocess.run([sys.executable, "-m", "drgtrades", "identity", "--d", str(d),
                              "--q", "2"], timeout=10, **run)
        assert time.perf_counter() - start < 1.0
        assert (res.returncode, res.stdout, res.stderr) == (
            1, "", f"error: identity d={d}, q=2: the product side has more than {limit} digits\n")
    specs = ("grassmann:400,200,2", "dual_polar_D:300,2")
    procs = [subprocess.Popen([sys.executable, "-m", "drgtrades", "wd-bound", "--family", spec],
                              **run) for spec in specs]
    try:
        for spec, proc in zip(specs, procs):
            out, err = proc.communicate(timeout=120)
            assert (proc.returncode, out, err) == (
                1, "", f"error: {spec}: the w.d. bound has more than {limit} digits\n")
    finally:
        for proc in procs:
            proc.kill()


@pytest.mark.parametrize("d,q,ok", [(169, 2, True), (170, 2, False), (134, 3, True),
                                    (135, 3, False)])
def test_identity_refuses_a_product_side_past_the_string_limit(capsys, d, q, ok):
    # 2^e bounds the product side of q = 2 from below, so d = 170 is refused
    # before computing it; for q = 3 that bound is loose, and d = 135 is
    # refused once its product side, 4,317 digits, is known
    try:
        code = main(["identity", "--d", str(d), "--q", str(q)])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == (0 if ok else 1)
    assert out.endswith("equal: yes\n") if ok else (out, err) == (
        "", f"error: identity d={d}, q={q}: the product side has more than "
            f"{sys.get_int_max_str_digits()} digits\n")


def test_closed_form_diameter_bound_follows_the_cap(capsys):
    # isqrt(10 * cap): rho = 1,000 at the default cap, the largest spec the
    # docs run, and rho = 10 at cap 10
    assert main(["wd-bound", "--family", "johnson:1000,500"]) == 0
    assert main(["wd-bound", "--family", "hamming:1000,2"]) == 0
    assert main(["wd-bound", "--family", "hamming:10,2", "--cap", "10"]) == 0
    capsys.readouterr()
    assert main(["spectrum", "--family", "hamming:11,2", "--cap", "10"]) == 1
    assert capsys.readouterr().err == ("error: hamming(11,2): diameter 11 exceeds 10, "
                                       "the closed-form bound of cap 10\n")
    assert [FAMILIES[name].rho(*params) for name, params in
            [("octahedron", (5,)), ("halved_cube", (9,)), ("shrikhande", ()), ("doob", (2, 3)),
             ("grassmann", (8, 4, 2)), ("dual_polar_D", (3, 2))]] == [2, 4, 2, 7, 4, 3]
    for name, params in [("octahedron", (5,)), ("halved_cube", (8,)), ("doob", (2, 3)),
                         ("grassmann", (8, 4, 2)), ("dual_polar_D", (3, 2)), ("johnson", (9, 4))]:
        assert FAMILIES[name].rho(*params) == family_array(name, params).rho


def test_wd_bound_integrality_cross_check(capsys, monkeypatch):
    # wd-bound runs the integrality check of bitrades._integral_bound
    monkeypatch.setattr(bitrades, "wd_bound", lambda arr, th: Fraction(5, 2))
    with pytest.raises(CrossCheckViolation, match="5/2 is not an integer"):
        main(["wd-bound", "--family", "johnson:6,3"])


def test_python_m_entry_point(capsys):
    argv = ["spectrum", "--family", "johnson:6,3"]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-m", "drgtrades", *argv],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli(capsys, *argv)[1]


def test_byte_identical_across_hash_seeds():
    # determinism must survive different PYTHONHASHSEED values
    cmd = [sys.executable, "-m", "drgtrades.cli", "verify",
           "--family", "grassmann:4,2,2", "--bitrade", "min", "--json"]
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        res = subprocess.run(cmd, capture_output=True, cwd=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))), env=env)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]


def test_report_verb_rows_summary_and_json(capsys, monkeypatch):
    from drgtrades import report

    def fails():
        raise AssertionError("boom")

    monkeypatch.setattr(report, "_CRITERIA", {1: ("cheap pass", 1.0, lambda: "ok"),
                                              2: ("cheap fail", 2.5, fails)})
    clock = iter(range(100))
    monkeypatch.setattr(report, "perf_counter", lambda: next(clock))
    code, out = run_cli(capsys, "report", "--all")
    assert code == 1
    assert out.splitlines() == [
        "[ 1] PASS     1.00s / 1s  cheap pass  -- ok",
        "[ 2] FAIL     1.00s / 2.5s  cheap fail  -- AssertionError: boom",
        "1/2 criteria passed",
    ]
    code, out = run_cli(capsys, "report", "--json")
    assert code == 1
    rows = json.loads(out)
    assert [sorted(r) for r in rows] == [
        ["budget", "detail", "elapsed", "number", "passed", "title"]] * 2
    assert [(r["number"], r["passed"], r["detail"]) for r in rows] == [
        (1, True, "ok"), (2, False, "AssertionError: boom")]
