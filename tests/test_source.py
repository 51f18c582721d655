"""Source-level rules for the package."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "drgtrades")


def package_trees():
    """(file name, parsed module) for every module of the package."""
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), filename=path)


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop running; the package raises its errors explicitly
    found = [f"{name}:{node.lineno}" for name, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_does_not_call_np_unique():
    found = [f"{name}:{node.lineno}" for name, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "unique"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert found == [], (
        "np.unique imports numpy.ma on its first call, about 4 ms of every verdict; "
        "deduplicate with a boolean mask and np.flatnonzero instead")


def test_bitrades_reads_no_distance_matrix():
    # a distance-regular trade subgraph's shells follow from its proven array,
    # k_0 = 1, k_{i+1} = k_i b_i / c_{i+1}, so no m x m matrix is read for them
    found = [f"{name}:{node.lineno}" for name, tree in package_trees() if name == "bitrades.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "distance_matrix"]
    assert found == []
