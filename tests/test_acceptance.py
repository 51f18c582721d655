"""Acceptance suite: one test per criterion of the verification matrix.

Each test prints its pass/fail line (visible with -s or in the summary on
failure) and enforces the stated wall-clock budget, the large ternary
pipeline (criterion 12) included.
"""

from drgtrades import report

# each criterion's detail on a pass, as `report` prints it
PASS_DETAILS = {
    1: "product = shell sum for all d <= 5, q in {2,3,4,5}",
    2: "trade sizes 15, 40, 85, 156 for q = 2, 3, 4, 5",
    3: "1395-vertex host, 30-vertex bitrade, all checks exact",
    4: "6-vertex bitrade is complete bipartite 3+3 in both ambients",
    5: "8 blocks, bound 8, trade subgraph = binary 3-cube",
    6: "16 vertices, bound 16, trade subgraph = binary 4-cube",
    7: "theta -3, bound 8; latin-square difference is a bitrade",
    8: "array of the quaternary 3-cube; 8-vertex pseudo-bitrade at theta -3",
    9: "agreement on 5 valid instances and 100 corruptions",
    10: "both directions of the bound/isometry equivalence exercised",
    11: "shell sums match recursion; shell/clique constants uniform",
    12: "33880-vertex host, 80-vertex bitrade, exact",
}


def _run(number):
    res = report.run_criterion(number)
    print(res.line())
    assert res.passed, res.detail
    assert res.detail == PASS_DETAILS[number]
    assert res.elapsed < res.budget, (
        f"criterion {number} took {res.elapsed:.2f}s, budget {res.budget}s")
    return res


def test_criterion_01_isotropic_count_identity():
    _run(1)


def test_criterion_02_minimum_trade_sizes():
    _run(2)


def test_criterion_03_full_binary_pipeline():
    _run(3)


def test_criterion_04_small_binary_pipeline():
    _run(4)


def test_criterion_05_triple_system_bitrade():
    _run(5)


def test_criterion_06_halved_8_cube():
    _run(6)


def test_criterion_07_ternary_and_latin():
    _run(7)


def test_criterion_08_doob_pseudo_bitrade():
    _run(8)


def test_criterion_09_criteria_equivalence():
    _run(9)


def test_criterion_10_bound_isometry_biconditional():
    _run(10)


def test_criterion_11_shell_sums_and_constants():
    _run(11)


def test_criterion_12_ternary_pipeline():
    _run(12)
