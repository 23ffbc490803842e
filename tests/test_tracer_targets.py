"""Every layer the perfbench tracer names still exists.

``perfbench/tracer.py`` wraps each ``TARGETS`` entry whose module is
loaded and looks the function up by name, so a renamed function would
break ``--trace 1`` runs only.  The file is parsed, not imported; an
entry whose module is gone from the package is skipped, as the tracer
skips it.
"""
import ast
import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _targets():
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), TRACER)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_traced_function_exists():
    checked = 0
    for key, modname, fname in _targets():
        if importlib.util.find_spec(modname) is None:
            continue
        module = importlib.import_module(modname)
        assert callable(getattr(module, fname, None)), "%s: %s.%s is gone" % (key, modname, fname)
        checked += 1
    assert checked >= 10
