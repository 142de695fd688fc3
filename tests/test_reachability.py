"""Every function of the package earns its place: each top-level function
and method under ``src/`` (dunders aside) is referenced somewhere in
``src/`` outside its own body, or is listed in ``ALLOWED`` with the reason
it stays.  A test-only route belongs in ``tests/oracles.py``.

The scan is static and by name: a reference is a ``Name`` or an
``Attribute`` of that name (``__all__`` lists strings and does not count),
so a method is taken as referenced when any attribute of its name is.
References from inside a function that is itself unreferenced do not
count, so a dead caller does not keep its callees alive.
"""

import ast
import pathlib

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


def _definitions():
    """{"module.qualname": (name, node)} of every top-level function and
    non-dunder method, and the parsed module trees."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
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


def _unreferenced(defs, trees, alive_roots):
    """The definitions that no live code references, by fixpoint: code
    inside a dead definition is not live."""
    dead = set()
    while True:
        skip = {id(n) for key in dead for n in ast.walk(defs[key][1])}
        used = {}
        for tree in trees.values():
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None:
                    used.setdefault(name, []).append(node)
        newly = set()
        for key, (name, fn) in defs.items():
            own = {id(n) for n in ast.walk(fn)}
            if key not in dead and key not in alive_roots and not any(id(n) not in own for n in used.get(name, ())):
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


def test_allowlist_is_current():
    """Each allowed entry exists and has no caller in src/: an entry that
    gained one leaves the list."""
    defs, trees = _definitions()
    assert set(ALLOWED) <= set(defs), sorted(set(ALLOWED) - set(defs))
    assert _unreferenced(defs, trees, alive_roots=set()) >= set(ALLOWED)
