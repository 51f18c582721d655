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


def test_non_integer_spectrum_is_raised_at_one_site():
    # every eigenvalue, theta_min included, is confirmed by one rule
    found = [f"{name}:{node.lineno}" for name, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "NonIntegerSpectrum"]
    assert len(found) == 1, found


def defining_modules(function_name):
    return [name for name, tree in package_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == function_name]


def test_host_check_is_defined_only_in_graphs():
    # bitrades, clique systems and vertex functions are refused on another
    # host by one check
    assert defining_modules("_on_host") == ["graphs.py"]


def test_eigenvector_recurrence_has_one_function():
    # standard_eigenvector is the cached recurrence itself, with no private twin
    assert defining_modules("_eigenvector") == []
    assert defining_modules("standard_eigenvector") == ["spectral.py"]


def outside(owner, matches):
    """(file:line of each node that matches outside the top-level function or
    class named owner, the number of those inside it), over the package."""
    found, inside = [], 0
    for name, tree in package_trees():
        own = {id(node) for top in tree.body if getattr(top, "name", None) == owner
               for node in ast.walk(top)}
        for node in ast.walk(tree):
            if matches(node):
                if id(node) in own:
                    inside += 1
                else:
                    found.append(f"{name}:{node.lineno}")
    return found, inside


def test_only_graphs_reads_the_csr_arrays():
    # other code, in graphs or elsewhere, reaches the adjacency, CSR or clique
    # rows, through Graph's accessors, so its store can change in one class
    found, inside = outside("Graph", lambda node: isinstance(node, ast.Attribute)
                            and node.attr in ("_flat", "_off", "_rows", "_degrees", "_sizes",
                                              "_cliques", "_clique_incidence", "_row_ids", "_m"))
    assert found == [] and inside


def test_gather_bound_is_read_only_by_blocks():
    # every host-sized gather takes its slices from _blocks, so the bound on
    # the memory in flight is stated once
    found, inside = outside("_blocks", lambda node: isinstance(node, ast.Name)
                            and node.id == "_GATHER_BLOCK" and isinstance(node.ctx, ast.Load))
    assert found == [] and inside == 1


def test_only_the_label_store_reads_its_array():
    # Graph's labels are one Labels store: other code reads them as strs, by
    # index, or looks them up through index_of and indices_of
    found, inside = outside("Labels", lambda node: isinstance(node, ast.Attribute)
                            and node.attr == "_bytes")
    assert found == [] and inside


def test_labels_keep_one_sorted_array():
    # labels are refused unless sorted, so no order beside the store and no
    # searchsorted through a sorter
    from drgtrades.graphs import Labels
    assert Labels.__slots__ == ("_bytes",)
    found = [f"{name}:{node.lineno}" for name, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "searchsorted"
             and any(kw.arg == "sorter" for kw in node.keywords)]
    assert found == []


def test_test_only_functions_are_not_in_the_package():
    # criterion 11's oracles live in the tests' helpers; the private twin of
    # completely_regular_check and the mask of induced_subgraph are gone
    for name in ("delta_function", "weight_distribution_of", "_completely_regular",
                 "vertex_mask"):
        assert defining_modules(name) == [], name


def label_dicts(trees):
    """file:line of each dict comprehension over enumerate and each
    dict(zip(...)): a map from items, such as labels, to their positions."""
    def named(node, name):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    return [f"{name}:{node.lineno}" for name, tree in trees for node in ast.walk(tree)
            if (isinstance(node, ast.DictComp)
                and any(named(gen.iter, "enumerate") for gen in node.generators))
            or (named(node, "dict") and any(named(arg, "zip") for arg in node.args))]


def test_no_module_builds_a_label_dict():
    # a dict from labels to vertices holds a str and an entry per vertex
    # beside the store, whose searchsorted finds them
    assert label_dicts(package_trees()) == []
    old = ast.parse("idx = {lab: i for i, lab in enumerate(labels)}\n"
                    "index = dict(zip(labels, range(len(labels))))")
    assert label_dicts([("old.py", old)]) == ["old.py:1", "old.py:2"]
