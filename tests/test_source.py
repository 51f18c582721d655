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


def test_verify_bitrade_runs_the_public_criteria():
    # one function per criterion: the verdict calls the checks that the
    # package exports, and no private twin of them exists
    trees = dict(package_trees())
    verify = next(node for node in ast.walk(trees["bitrades.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "verify_bitrade")
    called = {node.func.id for node in ast.walk(verify)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"check_criterion_a", "check_criterion_b", "check_criterion_c",
            "check_minimality"} <= called
    twins = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name in ("_trade_subgraph_regular", "_minimality")]
    assert twins == []


def test_only_families_raises_enumeration_too_large():
    # every cap refusal is a family builder's, made before it allocates the host
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) == "EnumerationTooLarge" and name != "families.py":
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_package_reads_no_environment():
    # every input comes in through an argument or a CLI option, so the same
    # command line runs the same way in every shell
    found = [f"{name}:{node.lineno}" for name, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
             and isinstance(node.value, ast.Name) and node.value.id == "os"]
    assert found == []


def test_default_cap_is_assigned_only_in_families():
    # the builders, the only ones that enforce a cap, own its default
    found = [name for name, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name) and target.id == "DEFAULT_ENUMERATION_CAP"]
    assert found == ["families.py"]
