"""numpy is an import of the array code, not of the package, and scipy
is no import of the package at all.

`import diampart`, the commands that do exact or Hoelder work and the
library's exact path (scheme partitions, grid coverage, diameter ratios,
the oracle) do not load numpy, so a fresh CLI process does not pay for it.  scipy is a
test-only reference (the Halton sampler is checked against it).  Nor do
the numpy-free commands load dataclasses or inspect: the value classes
are numbers.record classes.
"""
import ast
import json
import os
import re
import subprocess
import sys

import pytest

import diampart

PACKAGE_DIR = os.path.dirname(os.path.abspath(diampart.__file__))
REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYPROJECT = os.path.join(REPO_DIR, "pyproject.toml")
PERFBENCH_DIR = os.path.join(REPO_DIR, "perfbench")
HEAVY = ("numpy", "scipy")


def _package_trees():
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
            yield name, ast.parse(fh.read(), name)


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return None


def _module_level(tree):
    """Every node outside a function body: if/try blocks and class bodies
    count as module level."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_numpy_or_scipy():
    found = ["%s:%d imports %s" % (name, node.lineno, mod)
             for name, tree in _package_trees()
             for node in _module_level(tree)
             for mod in _imported_modules(node) or ()
             if mod.split(".")[0] in HEAVY]
    assert not found, "module-level heavy imports: " + "; ".join(found)


def test_no_scipy_import_at_any_depth():
    found = ["%s:%d imports %s" % (name, node.lineno, mod)
             for name, tree in _package_trees()
             for node in ast.walk(tree)
             for mod in _imported_modules(node) or ()
             if mod.split(".")[0] == "scipy"]
    assert not found, "scipy imports in the package: " + "; ".join(found)


def test_numpy_only_in_the_array_kernels():
    # the sampled and search kernels of coverings work on arrays; every
    # other module reads floats as the rationals they denote
    found = sorted({name for name, tree in _package_trees()
                    for node in ast.walk(tree)
                    for mod in _imported_modules(node) or ()
                    if mod.split(".")[0] == "numpy"})
    assert found == ["coverings.py"]


def test_no_unused_module_level_imports():
    found = []
    for name, tree in _package_trees():
        if name == "__init__.py":
            continue  # its imports are the package's exports
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in _module_level(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += ["%s:%d imports %s" % (name, node.lineno, b) for b in bound if b not in used]
    assert not found, "unused imports: " + "; ".join(sorted(found))


def _definitions(tree):
    """(name, node) for each module-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node


def _references(node):
    """The names a subtree reads: bare names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _unread(keep, outside=frozenset()):
    """'file:line defines name' for each package definition that keep(name,
    node) selects and that neither another top-level package statement
    nor the names in outside read."""
    trees = list(_package_trees())
    reads = [(top, set(_references(top))) for _, tree in trees for top in tree.body]
    return ["%s:%d defines %s" % (name, definition.lineno, helper)
            for name, tree in trees
            for helper, definition in _definitions(tree)
            if keep(helper, definition) and helper not in outside
            and not any(helper in names for top, names in reads if top is not definition)]


def test_no_orphan_private_helpers():
    found = _unread(lambda name, _: name.startswith("_") and not name.startswith("__"))
    assert not found, "private helpers nothing uses: " + "; ".join(found)


def test_no_orphan_public_names():
    # a public function or class that the package does not export is read
    # by the package itself or by the benchmark (perfbench/)
    bench = set()
    for root, _, files in os.walk(PERFBENCH_DIR):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    bench.update(_references(ast.parse(fh.read(), name)))
    found = _unread(lambda name, node: not name.startswith("_") and name not in diampart.__all__
                    and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)),
                    bench)
    assert not found, "public names nothing uses: " + "; ".join(found)


def test_no_bare_assert():
    # python -O strips assert statements, and certificate checks must
    # still run there: the package raises instead
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: " + "; ".join(found)


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[\w.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


NUMPY_FREE_COMMANDS = (
    ["partition", "cube", "--n", "3"],
    ["bm", "bound", "--p", "1.5"],
    ["bm", "scan", "--lo", "1.0", "--hi", "2.0", "--step", "1e-4"],
    ["beta", "table", "--p-list", "1,1.5,2,3,inf"],
    ["beta", "minmax", "--eta", "9/16", "--ball", "2/3"],
    ["check", "corollary-221-328"],
    ["oracle", "--points", None, "--m", "4"],
    ["partition", "simplex", "--m", "8", "--verify", "64", "--norm", "1"],
    ["partition", "triangle"],
)

SCRIPT = """
import json, sys
import diampart
import diampart.cli
codes = [diampart.cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.stderr.write(json.dumps({
    "codes": codes,
    "numpy": "numpy" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "diampart"),
}))
"""


def test_exact_commands_never_import_numpy(tmp_path):
    problem = tmp_path / "gauge.json"
    problem.write_text(json.dumps({
        "norm": {"kind": "gauge",
                 "vertices": [[2, 0, 1], [-2, 0, -1], [0, 1, 0], [0, -1, 0],
                              [1, 1, 3], [-1, -1, -3]]},
        "points": [[0, 0, 0], [1, "1/2", 2], [3, -1, 0], [-2, 2, 1], [1, 1, 1]],
    }))
    commands = [[str(problem) if a is None else a for a in argv]
                for argv in NUMPY_FREE_COMMANDS]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(PACKAGE_DIR)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stderr)
    assert seen["codes"] == [0] * len(commands)
    assert seen["numpy"] is False
    # nor the modules a value class would cost: the classes are records
    assert seen["dataclasses"] is False and seen["inspect"] is False
    # every module stays loaded, so tracing from outside still finds each layer
    want = sorted(["diampart"] + ["diampart." + name[:-3] for name in os.listdir(PACKAGE_DIR)
                                  if name.endswith(".py") and name != "__init__.py"])
    assert seen["modules"] == want


# one exact-certify item of the benchmark, called through the library
ITEM_SCRIPT = """
import sys
from diampart.coverings import partition_diameter_ratio, verify_covering
from diampart.geometry import Norm, Simplex
from diampart.numbers import INF
from diampart.oracle import beta_finite_exact
from diampart.partitions import simplex_partition

S = Simplex(((1, -2, 0), (4, 1, -1), (-3, 2, 2), (0, 5, -4)))
gauge = Norm.gauge(((2, 0, 1), (-2, 0, -1), (0, 1, 0), (0, -1, 0), (1, 1, 3), (-1, -1, -3)))
for scheme in ("m5", "m8", "m9"):
    cert = simplex_partition(S, scheme)
    if not verify_covering(cert.parent, cert.pieces, N=64).covered:
        raise SystemExit(scheme + " not covered")
    ratios = [partition_diameter_ratio(cert, norm) for norm in
              (Norm.lp(1), Norm.lp(2), Norm.lp(3), Norm.lp(INF), gauge)]
beta_finite_exact(S.vertices + ((0, 1, 0), (1, 1, -1)), 3, gauge)
print("numpy" in sys.modules)
"""


def test_exact_certify_item_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(PACKAGE_DIR)
    proc = subprocess.run([sys.executable, "-c", ITEM_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
