"""Every function and every parameter of the package earns its place.

Functions: each top-level function and method under ``src/`` (dunders
aside) is referenced somewhere in ``src/`` outside its own body, or is
listed in ``ALLOWED`` with the reason it stays.  A test-only route belongs
in ``tests/oracles.py``.

The function scan is static and by name: a reference is a ``Name`` or an
``Attribute`` of that name (``__all__`` lists strings and does not count),
so a method is taken as referenced when any attribute of its name is.
Two reads do not count for a method: a bare name (a variable ``at``) and
an attribute read through the alias of an imported outside module
(``np.maximum.at``).  A method whose name more than one ``src/`` class
defines is referenced only as ``ClassName.name``, as ``self.name`` or
``cls.name`` inside its class, or through an entry of ``REACHED_BY``
naming the live call that reaches it.  References from inside a function
that is itself unreferenced do not count, so a dead caller does not keep
its callees alive.

Parameters: each defaulted parameter of a live function or method
(``__init__`` included) is passed by some live call in ``src/`` and left
out by another, no parameter gets the same literal from every live call,
and each function reads every one of its parameters, or the parameter is
listed in ``ALLOWED_PARAMETERS`` with the reason it stays.  A value that
no command sets, or that every call sets to one literal, is a module
constant beside its one reader, not a parameter; a default that every call
overrides is a fallback that nothing runs.
A call reaches a definition by name, as above (a class name or ``cls``
reaches ``__init__``), and passes a parameter by keyword, by position, by
a ``*`` splat (every positional one) or by a ``**`` splat: of every
parameter, unless it splats a dict literal assigned in the same function,
whose keys alone count.  A call that forwards its caller's own defaulted
parameter passes it only if that parameter is passed in turn, which a
fixpoint settles.  A splat of anything but a dict literal may as well
leave every parameter out, so for a default that every call overrides
only the parameters a call names count: by keyword, by position before
any ``*`` splat, or as a key of its dict literal.  A literal is what
``ast.literal_eval`` reads (``2``, ``-1.0``, ``"subcritical"``), compared
by its source text.

Fields: each annotated field of a ``src/`` dataclass is read somewhere in
``src/``, or is listed in ``ALLOWED_FIELDS`` with the reason it stays.
This scan matches by name too: any attribute load of the field's name
counts as a read, whatever its object, so a field that shares its name
with a read of something else is missed (a line trace of the commands
found ``HResult.regime`` behind ``spectral.regime()`` and
``EnsembleResult.seed`` behind ``args.seed``).  A keyword of a constructor
or of ``dataclasses.replace`` writes a field and is no read.

State: no function mutates a container that a module-level assignment
binds (a dict, list or set display or comprehension, or a call of a
container type), by item assignment or deletion or through ``.pop``,
``.clear``, ``.update``, ``.setdefault``, ``.append`` and their kin,
unless it is listed in ``ALLOWED_MUTATIONS`` with the reason it stays.  A
solver's state lives in the call that builds it, so no result depends on
what ran earlier in the process.  A name that the function or a function
enclosing it binds (a parameter or a local) is not the module's.
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
}

# "module.Class.method" of a method name that several classes define:
# "caller: call", the live call in src/ that reaches it through a value
# of its class
REACHED_BY = {
    "analysis.TestReport.to_dict": "cli.cmd_verify: r.to_dict()",
    "model.HypothesisCheck.to_dict": "model.ValidationReport.to_dict: c.to_dict()",
    "model.ValidationReport.to_dict": "cli.cmd_validate: report.to_dict()",
    "semigroup.SpectralData.to_dict": "cli.cmd_spectrum: spec.to_dict()",
}

# "module.qualname" (every parameter of a pending-API function) or
# "module.qualname.parameter": why it stays unset or unread in src/
ALLOWED_PARAMETERS = {
    "moments.laplace_functional": "pending API (ROADMAP item 4)",
    "semigroup.evolve_Q": "pending API (ROADMAP item 5)",
    "branching.qprocess_weight": "pending API (ROADMAP item 5)",
    "analysis.qprocess_law_test": "pending API (ROADMAP item 5)",
    "analysis.null_calibration": "pending API (ROADMAP items 1 and 11)",
    "moments.solve_moments.ensure_times": "acceptance 1 reads exact slice times, and ROADMAP item 4 will",
    "moments.solve_survival.ensure_times": "acceptance 1 reads exact slice times, and ROADMAP item 4 will",
    "branching.simulate_ensemble.record_traits_at": "tests/test_kernel.py compares whole-population "
    "snapshots with its reference step",
    "branching.simulate_ensemble.functionals": "the simulator tests run bare ensembles, which record no functional",
    "branching.simulate_ensemble.reflect_at": "the simulator tests run ensembles on the whole line",
    "config.load_config.seed": "the override of the CLI's --seed; tests load configs with their own seed",
    "rng.root_key.index": "tests draw from the stream of one replica, index 0",
    "cli.main.argv": "the console entry point parses sys.argv; tests pass an argument list",
    "cli._RegimeAction.__call__": "argparse calls an Action as (parser, namespace, values, option_string)",
    "cli.cmd_validate.args": "the cmd_*(cfg, args, out) dispatch signature",
    "cli.cmd_spectrum.args": "the cmd_*(cfg, args, out) dispatch signature",
    "cli.cmd_moments.args": "the cmd_*(cfg, args, out) dispatch signature",
    "cli.cmd_survive.args": "the cmd_*(cfg, args, out) dispatch signature",
    "semigroup._rightmost_eigs.k": "tests/oracles.py asks it for more eigenvalues than the two src/ reads",
}

# "module.Class.field": why a dataclass field stays that no src/ code reads
ALLOWED_FIELDS = {
    "branching.EnsembleResult.traits_at": "tests/test_kernel.py compares whole-population snapshots "
    "with its reference step",
}


# "module.qualname: NAME": why the function may mutate the module-level
# container NAME
ALLOWED_MUTATIONS = {}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(sources=None):
    """{"module.qualname": (name, node)} of every top-level function and
    method, and the parsed module trees, of ``sources`` (module name ->
    text; default: the package)."""
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
                    if isinstance(sub, ast.FunctionDef):
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


def _shared_method_names(defs):
    names = [key.split(".")[2] for key in defs if key.count(".") == 2]
    return {name for name in names if names.count(name) > 1}


def _class_reads(defs, trees, key):
    """The reads that reach the method ``key`` of a shared name:
    ``Class.name`` anywhere, ``self.name`` or ``cls.name`` inside the class."""
    module, cls, name = key.split(".")
    own_class = next(n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == cls)
    inside = {id(n) for n in ast.walk(own_class)}
    return [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.value, ast.Name)
        and (node.value.id == cls or (node.value.id in ("self", "cls") and id(node) in inside))
    ]


def _unreferenced(defs, trees, alive_roots, reached_by=None):
    """The definitions that no live code references, by fixpoint: code
    inside a dead definition is not live.  A method is referenced only as
    an attribute; a bare name (a variable ``at``) reaches functions only; a
    method of a shared name only as ``_class_reads`` finds or through its
    ``reached_by`` caller ("caller: call")."""
    reached_by = reached_by or {}
    shared = _shared_method_names(defs)
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
            if _dunder(name) or key in dead or key in alive_roots:
                continue
            method = key.count(".") == 2
            if method and name in shared:
                caller = reached_by.get(key, "").split(":")[0]
                if caller in defs and caller not in dead:
                    continue
                refs = [n for n in _class_reads(defs, trees, key) if id(n) not in skip]
            else:
                refs = attrs.get(name, []) + ([] if method else names.get(name, []))
            own = {id(n) for n in ast.walk(fn)}
            if not any(id(n) not in own for n in refs):
                newly.add(key)
        if not newly:
            return dead
        dead |= newly


# ----------------------------------------------------------------------
# the parameter scan


def _parameters(key, fn):
    """(positional, all, defaulted) parameter names of ``fn``, without the
    ``self`` or ``cls`` of a method."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if key.count(".") == 2 and not static:
        positional = positional[1:]
    every = positional + [p.arg for p in a.kwonlyargs] + [p.arg for p in (a.vararg, a.kwarg) if p]
    return positional, every, defaulted


def _live_calls(defs, trees, dead):
    """(call, module, caller, local) of every call in live code: ``caller``
    is the key of the innermost definition around it (None at module level)
    and ``local`` the names that nested functions and lambdas bind in
    between."""
    keys = {id(node): key for key, (_, node) in defs.items()}
    dead_nodes = {id(defs[key][1]) for key in dead}
    calls = []

    def visit(node, caller, local):
        if id(node) in dead_nodes:
            return
        if id(node) in keys:
            caller, local = keys[id(node)], frozenset()
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            local = local | {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
        if isinstance(node, ast.Call):
            calls.append((node, module, caller, local))
        for child in ast.iter_child_nodes(node):
            visit(child, caller, local)

    for module, tree in trees.items():
        visit(tree, None, frozenset())
    return calls


def _targets(call, outside, caller, defs):
    """The definitions a call may reach, by name: a function by a bare name
    or an attribute not read off an ``outside`` module alias, a method by
    such an attribute, ``__init__`` by its class's name or by ``cls`` in a
    classmethod of its class."""
    func = call.func
    if isinstance(func, ast.Name):
        name, attr = func.id, False
    elif isinstance(func, ast.Attribute):
        root = _chain_root(func)
        if isinstance(root, ast.Name) and root.id in outside:
            return []
        name, attr = func.attr, True
    else:
        return []
    out = []
    for key, (fname, _) in defs.items():
        parts = key.split(".")
        if fname == "__init__":
            if name == parts[1] or (name == "cls" and not attr and caller and caller.split(".")[:2] == parts[:2]):
                out.append(key)
        elif fname == name and (attr or len(parts) == 2):
            out.append(key)
    return out


def _splat_literal(caller_node, name):
    """The (key, value) pairs of the dict literals (``{...}`` with string
    keys, or ``dict(...)`` with keywords) assigned to ``name`` in
    ``caller_node``; None unless there is one and every assignment to
    ``name`` is one."""
    pairs, found = [], False
    for node in ast.walk(caller_node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == name):
            continue
        value = node.value
        if isinstance(value, ast.Dict) and all(isinstance(k, ast.Constant) for k in value.keys):
            pairs += [(k.value, v) for k, v in zip(value.keys, value.values)]
        elif (isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "dict"
              and not value.args and all(k.arg for k in value.keywords)):
            pairs += [(k.arg, k.value) for k in value.keywords]
        else:
            return None
        found = True
    return pairs if found else None


def _literal(expr):
    try:
        ast.literal_eval(expr)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return False
    return True


def _parameter_findings(defs, trees, dead, allowed):
    """(unset, unread, overridden, one_valued): the
    "module.qualname.parameter" of every defaulted parameter that no live
    call passes, of every parameter its function does not read, of every
    defaulted parameter that each live call passes, and of every parameter
    that each live call passes as the same literal, outside ``allowed`` and
    the dead definitions."""
    params = {key: _parameters(key, fn) for key, (_, fn) in defs.items()}
    aliases = {module: _module_aliases(tree) for module, tree in trees.items()}
    live = [key for key in defs if key not in dead and key not in allowed]
    passed, forwards = set(), []
    at_calls = {}  # target -> {parameter: expression} that each of its calls surely passes
    for call, module, caller, local in _live_calls(defs, trees, dead):
        caller_params = params[caller][1] if caller else []

        def source(expr):
            # the caller's parameter that ``expr`` forwards, or None
            if isinstance(expr, ast.Name) and expr.id in caller_params and expr.id not in local:
                return (caller, expr.id)
            return None

        for target in _targets(call, aliases[module], caller, defs):
            positional, every, _ = params[target]
            given = []  # (parameter, expression or None)
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    given += [(p, None) for p in positional[i:]]
                    break
                if i < len(positional):
                    given.append((positional[i], arg))
            for kw in call.keywords:
                if kw.arg is not None:
                    given.append((kw.arg, kw.value))
                    continue
                literal = None
                if isinstance(kw.value, ast.Name) and caller:
                    literal = _splat_literal(defs[caller][1], kw.value.id)
                given += literal if literal is not None else [(p, None) for p in every]
            # a splat of anything but a literal may leave out any parameter
            at_calls.setdefault(target, []).append({param: expr for param, expr in given if expr is not None})
            for param, expr in given:
                src = source(expr) if expr is not None else None
                if src is None:
                    passed.add((target, param))
                else:
                    forwards.append(((target, param), src))

    def counts(src):
        key, param = src
        return (param not in params[key][2] or src in passed or key in allowed
                or f"{key}.{param}" in allowed)

    while True:
        newly = {dst for dst, src in forwards if dst not in passed and counts(src)}
        if not newly:
            break
        passed |= newly
    unset = sorted(
        f"{key}.{param}" for key in live for param in params[key][2]
        if (key, param) not in passed and f"{key}.{param}" not in allowed
    )
    unread = []
    for key in live:
        read = {n.id for n in ast.walk(defs[key][1]) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{key}.{p}" for p in params[key][1] if p not in read and f"{key}.{p}" not in allowed]
    overridden = sorted(
        f"{key}.{param}" for key in live for param in params[key][2]
        if key in at_calls and all(param in call for call in at_calls[key]) and f"{key}.{param}" not in allowed
    )
    one_valued = sorted(
        f"{key}.{param}" for key in live if key in at_calls for param in params[key][1]
        if all(param in call and _literal(call[param]) for call in at_calls[key])
        and len({ast.unparse(call[param]) for call in at_calls[key]}) == 1
        and f"{key}.{param}" not in allowed
    )
    return unset, sorted(unread), overridden, one_valued


# ----------------------------------------------------------------------
# the field scan


def _is_dataclass(node):
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass")
        for d in node.decorator_list
    )


def _unread_fields(trees, allowed):
    """The "module.Class.field" of every annotated field of a dataclass that
    no attribute load in ``trees`` names, outside ``allowed``; a load read
    off an outside module alias (``np.x``) does not count."""
    reads = set()
    for tree in trees.values():
        outside = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                root = _chain_root(node)
                if not (isinstance(root, ast.Name) and root.id in outside):
                    reads.add(node.attr)
    return sorted(
        f"{module}.{cls.name}.{stmt.target.id}"
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        if stmt.target.id not in reads and f"{module}.{cls.name}.{stmt.target.id}" not in allowed
    )


_CONTAINER_TYPES = {"dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "append", "extend", "insert", "remove", "add",
             "discard"}


def _is_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    func = value.func if isinstance(value, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id in _CONTAINER_TYPES) or (
        isinstance(func, ast.Attribute) and func.attr in _CONTAINER_TYPES
    )


def _module_containers(tree):
    """Names that module-level assignments of ``tree`` bind to a container."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if _is_container(value):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_nodes(fn):
    """The nodes of one function's own scope: its body, without the
    bodies of the functions nested in it, which are yielded themselves."""
    stack = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _own_names(fn):
    """The names one function binds itself: parameters, stored names and
    nested definitions, less those it declares global."""
    args = fn.args
    own = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
    declared = set()
    for node in _scope_nodes(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Global):
            declared |= set(node.names)
    return own - declared


def _scope_mutations(fn, shared):
    """The names in ``shared`` that ``fn`` or a function nested in it
    mutates, where no enclosing scope binds them."""
    shared = shared - _own_names(fn)
    found = set()
    for node in _scope_nodes(fn):
        if isinstance(node, _SCOPES):
            found |= _scope_mutations(node, shared)
            continue
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id in shared:
            found.add(target.id)
    return found


def _module_mutations(defs, trees, allowed):
    """The "module.qualname: NAME" of every function of ``defs`` that
    mutates the module-level container NAME, outside ``allowed``."""
    found = {
        f"{key}: {name}"
        for key, (_name, fn) in defs.items()
        for name in _scope_mutations(fn, _module_containers(trees[key.split(".")[0]]))
    }
    return sorted(found - set(allowed))


# ----------------------------------------------------------------------
# tests


def test_every_src_function_is_reachable_or_allowed():
    defs, trees = _definitions()
    dead = _unreferenced(defs, trees, alive_roots=set(ALLOWED), reached_by=REACHED_BY)
    assert not dead, "functions only tests (or nothing) reach; wire, move to tests/oracles.py or delete:\n" + "\n".join(
        sorted(dead)
    )


def test_every_src_parameter_is_set_and_read_or_allowed():
    defs, trees = _definitions()
    dead = _unreferenced(defs, trees, alive_roots=set(ALLOWED), reached_by=REACHED_BY)
    unset, unread, overridden, one_valued = _parameter_findings(defs, trees, dead, ALLOWED_PARAMETERS)
    assert not unset and not unread and not overridden and not one_valued, (
        "defaulted parameters no src/ call sets (make each a module constant or delete its path):\n"
        + "\n".join(unset)
        + "\nparameters their function never reads:\n"
        + "\n".join(unread)
        + "\ndefaulted parameters every src/ call sets (delete the default):\n"
        + "\n".join(overridden)
        + "\nparameters every src/ call sets to one literal (make each a module constant):\n"
        + "\n".join(one_valued)
    )


def test_every_dataclass_field_is_read_or_allowed():
    _, trees = _definitions()
    unread = _unread_fields(trees, ALLOWED_FIELDS)
    assert not unread, "dataclass fields no src/ code reads (delete each, or allow it):\n" + "\n".join(unread)


def test_no_src_function_mutates_module_state():
    found = _module_mutations(*_definitions(), ALLOWED_MUTATIONS)
    assert not found, (
        "functions that mutate a module-level container (keep the state in the call, or allow it):\n"
        + "\n".join(found)
    )


def test_module_state_scan_on_a_fixture():
    lib = """
        from collections import OrderedDict

        _CACHE = {}
        _SEEN = []
        _ORDER = OrderedDict()
        _NAMES = {k: 0 for k in "ab"}
        LIMIT = 32
        TABLE = {"a": 1}
        TABLE["b"] = 2

        def put(key, value):
            _CACHE[key] = value
            if len(_CACHE) > LIMIT:
                _CACHE.pop(next(iter(_CACHE)))

        def forget():
            del _NAMES["a"]

        def count(x):
            _NAMES["a"] += x
            return TABLE["a"] + _CACHE.get(x, 0)

        class Store:
            def add(self, item):
                _SEEN.append(item)
                self.items = {}
                self.items["x"] = item

            def reset(self):
                _ORDER.clear()

        def local(_CACHE):
            _CACHE.update(a=1)
            _SEEN = []
            _SEEN.append(1)

            def inner(key):
                _ORDER.setdefault(key, 0)
                _SEEN.append(key)

            return inner

        def outer(key):
            _CACHE[key] = 1

            def helper(_CACHE):
                _CACHE.clear()

            return helper

        def declared():
            global _SEEN
            _SEEN = []
            _SEEN.append(2)
    """
    defs, trees = _definitions({"lib": textwrap.dedent(lib)})
    # module-level mutation, reads, attributes of self and names the
    # function or an enclosing one binds do not count; a global
    # declaration does, and a name a nested function binds is its own only
    assert _module_mutations(defs, trees, allowed={}) == [
        "lib.Store.add: _SEEN", "lib.Store.reset: _ORDER", "lib.count: _NAMES", "lib.declared: _SEEN",
        "lib.forget: _NAMES", "lib.local: _ORDER", "lib.outer: _CACHE", "lib.put: _CACHE",
    ]
    assert _module_mutations(defs, trees, allowed={"lib.put: _CACHE": ""})[-1] == "lib.outer: _CACHE"


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


def test_scan_reaches_a_shared_method_name_through_its_class_only():
    shapes = """
        class Square:
            @classmethod
            def build(cls, cfg):
                return cls()

            def area(self):
                return self.side()

            def side(self):
                return 1.0

        class Circle:
            @classmethod
            def build(cls, cfg):
                return cls()

            def area(self):
                return 3.0

        def main(cfg, shape):
            return Square.build(cfg), shape.area()
    """
    defs, trees = _definitions({"shapes": textwrap.dedent(shapes)})
    # Square.build() does not reach Circle.build, nor does shape.area()
    # reach either area, unless an entry names that call
    dead = _unreferenced(defs, trees, alive_roots={"shapes.main"})
    assert dead == {"shapes.Circle.build", "shapes.Square.area", "shapes.Circle.area", "shapes.Square.side"}
    reached = {"shapes.Circle.area": "shapes.main: shape.area()"}
    dead = _unreferenced(defs, trees, alive_roots={"shapes.main"}, reached_by=reached)
    assert dead == {"shapes.Circle.build", "shapes.Square.area", "shapes.Square.side"}


def test_parameter_scan_on_a_fixture():
    lib = """
        class Box:
            def __init__(self, size, pad=0):
                self.size = size + pad

            @classmethod
            def of(cls, size):
                return cls(size, 1)

        def solve(x, hint, tol=1e-6, steps=10, scale=1.0, order=2):
            return x * tol * steps * scale * order

        def rescale(x, scale=1.0):
            return solve(x, None, scale=scale)

        def forward(x, order=2):
            return solve(x, None, order=order)

        def main(x):
            common = dict(steps=5)
            return solve(x, None, 1e-8, **common) + rescale(x, scale=3.0) + forward(x) + Box.of(x).size
    """
    defs, trees = _definitions({"lib": textwrap.dedent(lib)})
    dead = _unreferenced(defs, trees, alive_roots={"lib.main"})
    unset, unread, overridden, _ = _parameter_findings(defs, trees, dead, allowed={})
    # tol by position, steps by the literal splat, scale by a keyword that
    # forwards a passed parameter, pad through cls(...); order only by
    # forwarding an unset one
    assert unset == ["lib.forward.order", "lib.solve.order"]
    assert unread == ["lib.solve.hint"]
    # the one call of Box and of rescale passes pad and scale; some call of
    # solve leaves out each of its defaulted parameters
    assert overridden == ["lib.Box.__init__.pad", "lib.rescale.scale"]
    # a splat of anything but a literal may pass every parameter, and may
    # leave out every one
    text = textwrap.dedent(lib) + textwrap.dedent("""
        def passthrough(x, **opts):
            return solve(x, None, **opts) + rescale(x, **opts)
    """)
    defs, trees = _definitions({"lib": text})
    dead = _unreferenced(defs, trees, alive_roots={"lib.main", "lib.passthrough"})
    unset, _, overridden, _ = _parameter_findings(defs, trees, dead, allowed={})
    assert unset == ["lib.forward.order"] and overridden == ["lib.Box.__init__.pad"]


def test_one_valued_parameter_scan_on_a_fixture():
    lib = """
        def scale(u, regime, n, shift=0.0):
            return u * n + shift if regime == "sub" else u

        def order(u, k):
            return u ** k

        def main(u, n):
            common = dict(regime="sub")
            return (scale(u, "sub", 2) + scale(u, n=-1.0, **common)
                    + scale(u, "sub", 2, shift=n) + order(u, 2) + order(u, 2.0))
    """
    defs, trees = _definitions({"lib": textwrap.dedent(lib)})
    dead = _unreferenced(defs, trees, alive_roots={"lib.main"})
    # regime is "sub" in each call, by position or a literal splat; n is 2
    # or -1.0, shift is left out, and order's k is 2 or 2.0: two texts
    assert _parameter_findings(defs, trees, dead, allowed={})[3] == ["lib.scale.regime"]
    assert _parameter_findings(defs, trees, dead, allowed={"lib.scale.regime": ""})[3] == []
    # one call that passes a non-literal keeps the parameter
    text = textwrap.dedent(lib) + textwrap.dedent("""
        def other(u, regime):
            return scale(u, regime, 2)
    """)
    defs, trees = _definitions({"lib": text})
    dead = _unreferenced(defs, trees, alive_roots={"lib.main", "lib.other"})
    assert _parameter_findings(defs, trees, dead, allowed={})[3] == []


def test_field_scan_on_a_fixture():
    lib = """
        import numpy as np
        from dataclasses import dataclass, replace

        @dataclass
        class Result:
            h: float
            steps: list
            tail: float
            note: str = ""

        @dataclass(frozen=True)
        class Spec:
            m: float
            shape: tuple

        class Plain:
            size: int

        def run(spec):
            res = Result(h=spec.m, steps=[], tail=0.0)
            res.steps = np.shape
            return replace(res, note="x").h
    """
    _, trees = _definitions({"lib": textwrap.dedent(lib)})
    # h and m are read; steps is only written, shape only read off numpy,
    # tail and note only passed by keyword; a plain class has no fields
    assert _unread_fields(trees, allowed={}) == [
        "lib.Result.note", "lib.Result.steps", "lib.Result.tail", "lib.Spec.shape",
    ]
    assert _unread_fields(trees, allowed={"lib.Result.note": ""}) == [
        "lib.Result.steps", "lib.Result.tail", "lib.Spec.shape",
    ]


def test_allowlist_is_current():
    """Each entry names a definition and is still needed: an allowed
    function has no caller in src/, an allowed parameter stays unset,
    unread, overridden or one-valued without its entry, an allowed field
    stays unread, and each named call is in its caller."""
    defs, trees = _definitions()
    assert set(ALLOWED) <= set(defs), sorted(set(ALLOWED) - set(defs))
    assert _unreferenced(defs, trees, alive_roots=set(), reached_by=REACHED_BY) >= set(ALLOWED)

    assert set(REACHED_BY) <= set(defs), sorted(set(REACHED_BY) - set(defs))
    for key, entry in REACHED_BY.items():
        caller, call = (part.strip() for part in entry.split(":"))
        assert call in ast.unparse(defs[caller][1]), (key, entry)
        assert key.split(".")[2] in _shared_method_names(defs), key

    dead = _unreferenced(defs, trees, alive_roots=set(ALLOWED), reached_by=REACHED_BY)
    findings = set().union(*_parameter_findings(defs, trees, dead, allowed={}))
    for entry in ALLOWED_PARAMETERS:
        if entry in defs:
            assert any(f.startswith(entry + ".") for f in findings), entry
        else:
            assert entry in findings, entry

    assert set(ALLOWED_FIELDS) <= set(_unread_fields(trees, allowed={})), ALLOWED_FIELDS
    assert set(ALLOWED_MUTATIONS) <= set(_module_mutations(defs, trees, allowed={})), ALLOWED_MUTATIONS
