"""Every function of the package earns its place: each top-level function
and method under ``src/`` (dunders aside) is referenced somewhere in
``src/`` outside its own body, or is listed in ``ALLOWED`` with the reason
it stays.  A test-only route belongs in ``tests/oracles.py``.

The scan is static and by name: a reference is a ``Name`` or an
``Attribute`` of that name (``__all__`` lists strings and does not count),
so a method is taken as referenced when any attribute of its name is.
Two reads do not count for a method: a bare name (a variable ``at``) and
an attribute read through the alias of an imported outside module
(``np.maximum.at``).  References from inside a function that is itself
unreferenced do not count, so a dead caller does not keep its callees
alive.
"""

import ast
import pathlib
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "branchlab"

# "module.qualname": why it stays without a caller in src/
ALLOWED = {
    "moments.laplace_functional": "pending API: finite-t law checks from the Laplace functional (ROADMAP item 4)",
    "branching.qprocess_weight": "pending API: the Q-process in every verify (ROADMAP item 5)",
    "analysis.qprocess_law_test": "pending API: the Q-process in every verify (ROADMAP item 5)",
    "semigroup.evolve_Q": "pending API: the Q-process in every verify (ROADMAP item 5)",
    "analysis.null_calibration": "pending API: seed scans and the power table (ROADMAP items 1 and 11)",
    "curves.make_curve": "public helper exported from branchlab",
}


def _definitions(sources=None):
    """{"module.qualname": (name, node)} of every top-level function and
    non-dunder method, and the parsed module trees, of ``sources`` (module
    name -> text; default: the package)."""
    if sources is None:
        sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = (node.name, node)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                        defs[f"{module}.{node.name}.{sub.name}"] = (sub.name, sub)
    return defs, trees


def _module_aliases(tree):
    """Names that ``import`` statements bind to modules outside the package
    (``np`` for ``import numpy as np``, ``scipy`` for ``import scipy.sparse``)."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] != "branchlab"
    }


def _chain_root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _unreferenced(defs, trees, alive_roots):
    """The definitions that no live code references, by fixpoint: code
    inside a dead definition is not live.  A method is referenced only as
    an attribute; a bare name (a variable ``at``) reaches functions only."""
    dead = set()
    while True:
        skip = {id(n) for key in dead for n in ast.walk(defs[key][1])}
        names, attrs = {}, {}
        for tree in trees.values():
            outside = _module_aliases(tree)
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name):
                    names.setdefault(node.id, []).append(node)
                elif isinstance(node, ast.Attribute):
                    root = _chain_root(node)
                    if not (isinstance(root, ast.Name) and root.id in outside):
                        attrs.setdefault(node.attr, []).append(node)
        newly = set()
        for key, (name, fn) in defs.items():
            own = {id(n) for n in ast.walk(fn)}
            refs = attrs.get(name, []) + ([] if key.count(".") == 2 else names.get(name, []))
            if key not in dead and key not in alive_roots and not any(id(n) not in own for n in refs):
                newly.add(key)
        if not newly:
            return dead
        dead |= newly


def test_every_src_function_is_reachable_or_allowed():
    defs, trees = _definitions()
    dead = _unreferenced(defs, trees, alive_roots=set(ALLOWED))
    assert not dead, "functions only tests (or nothing) reach; wire, move to tests/oracles.py or delete:\n" + "\n".join(
        sorted(dead)
    )


def test_scan_reads_methods_through_attributes_of_package_values_only():
    fields = """
        class Field:
            def at(self, t):
                return t

            def mean(self):
                return 0.0

        def helper():
            return 1.0
    """
    kernel = """
        import numpy as np
        from . import fields as fl

        def step(cur, at, f):
            np.maximum.at(cur, at, 1.0)
            return f.mean() + fl.helper()
    """
    defs, trees = _definitions({"fields": textwrap.dedent(fields), "kernel": textwrap.dedent(kernel)})
    # neither np.maximum.at nor the parameter ``at`` reaches Field.at;
    # f.mean() and fl.helper() are references
    assert _unreferenced(defs, trees, alive_roots={"kernel.step"}) == {"fields.Field.at"}


def test_allowlist_is_current():
    """Each allowed entry exists and has no caller in src/: an entry that
    gained one leaves the list."""
    defs, trees = _definitions()
    assert set(ALLOWED) <= set(defs), sorted(set(ALLOWED) - set(defs))
    assert _unreferenced(defs, trees, alive_roots=set()) >= set(ALLOWED)
