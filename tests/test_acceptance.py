"""Acceptance suite: one test per criterion of the verification matrix.

Each test prints its pass/fail line (visible with -s or in the summary on
failure) and enforces the stated wall-clock budget, the large ternary
pipeline (criterion 12) included.
"""

from drgtrades import report


def _run(number):
    res = report.run_criterion(number)
    print(res.line())
    assert res.passed, res.detail
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
