"""Guard against dead code in the package: every module-level import is read
in its module (in the test modules too), and every module-level name,
function, method and class is referenced somewhere in the package outside
its own definition.
``__init__.py`` holds only the docstring and ``__version__``, so it is not
scanned. Every field of a package dataclass is read by the package itself,
and every parameter of a package function is read in its body.
Six architecture guards ride along: importing the package loads no
submodule, congestion enters once, in the fleet controller, only the network
and the config builder index a network's edges (everything else reads a
route's legs), no function takes a ``plans`` memo (the drive model owns
it), only the metrics module writes CSV (the engine imports no ``csv``), and
no function changes module-level state.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import evfleetsim

PACKAGE = Path(evfleetsim.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))

# reached only from outside the package, on purpose: the brute-force oracle
# of nearest_edge in the tests, and two gates of the benchmark
KEEP = {"snap_distance", "assert_consistent", "energy_ledger_error"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def reads(node) -> Counter:
    """How often each name is read in ``node``, as a variable or as an
    attribute."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
    return counts


def imports(tree) -> Counter:
    """How often each name is reached from another module in ``tree``: as
    an attribute, or imported by name (the import must then be read)."""
    counts = Counter()
    for child in ast.walk(tree):
        if isinstance(child, ast.Attribute):
            counts[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            counts.update(alias.name for alias in child.names)
    return counts


class Package:
    def __init__(self):
        self.trees = {path.name: ast.parse(path.read_text(), filename=str(path))
                      for path in MODULES}
        self.reads = {module: reads(tree) for module, tree in self.trees.items()}
        self.imports = {module: imports(tree)
                        for module, tree in self.trees.items()}

    def referenced(self, module, node, name) -> bool:
        """Whether ``name``, bound by ``node`` in ``module``, is read
        anywhere in the package outside ``node``."""
        if self.reads[module][name] > reads(node)[name]:
            return True
        return any(counts[name] for other, counts in self.imports.items()
                   if other != module)


def module_bindings(tree):
    """(name, statement, is_import) for each import and assignment at
    module level."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node, False


def test_module_level_names_are_read():
    package = Package()
    unused = []
    for module, tree in package.trees.items():
        for name, node, is_import in module_bindings(tree):
            used = (package.reads[module][name] > 0 if is_import
                    else package.referenced(module, node, name))
            if not used:
                unused.append(f"{module}:{node.lineno} {name}")
    assert not unused, unused


def test_test_module_imports_are_read():
    unused = []
    for path in TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        counts = reads(tree)
        unused += [f"{path.name}:{node.lineno} {name}"
                   for name, node, is_import in module_bindings(tree)
                   if is_import and not counts[name]]
    assert not unused, unused


def test_every_definition_is_referenced():
    package = Package()
    defined, unreferenced = set(), []
    for module, tree in package.trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            defined.add(name)
            if name in KEEP or (name.startswith("__") and name.endswith("__")):
                continue
            if not package.referenced(module, node, name):
                unreferenced.append(f"{module}:{node.lineno} {name}")
    assert not unreferenced, unreferenced
    assert KEEP <= defined, "a keeper that is gone must leave the list"


# dataclass fields read only from outside the package, on purpose: the
# benchmark's ledger gate reads RunResult.collector, and the scenario
# invariants tell the sessions the horizon cut by ChargeSession.truncated
KEEP_FIELDS = {"RunResult.collector", "ChargeSession.truncated"}


def loaded_attributes(tree) -> set[str]:
    """Every attribute ``tree`` loads."""
    return {child.attr for child in ast.walk(tree)
            if isinstance(child, ast.Attribute)
            and isinstance(child.ctx, ast.Load)}


def sweep_columns(tree) -> set[str]:
    """The ``RunResult`` fields that ``sweep`` reads by name: the strings
    listed in ``SWEEP_HEADER``."""
    return {child.value
            for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "SWEEP_HEADER"
                    for t in node.targets)
            for child in ast.walk(node.value)
            if isinstance(child, ast.Constant)}


def is_dataclass(node) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    """A field counts as read only if the package reads it: as an attribute
    load, or by name through ``SWEEP_HEADER``. Reads in the tests do not
    count; the fields kept for readers outside the package are listed in
    ``KEEP_FIELDS``."""
    package = Package()
    names = set().union(*map(loaded_attributes, package.trees.values()),
                        sweep_columns(package.trees["simulation.py"]))
    unread, fields = [], set()
    for module, tree in package.trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and is_dataclass(node)):
                continue
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    continue
                field = f"{node.name}.{stmt.target.id}"
                fields.add(field)
                if stmt.target.id not in names and field not in KEEP_FIELDS:
                    unread.append(f"{module}:{stmt.lineno} {field}")
    assert not unread, unread
    assert KEEP_FIELDS <= fields, "a kept field that is gone must leave the list"


def functions(node, prefix=""):
    """(qualified name, node) of every function and method in ``node``."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, DEFINITIONS):
            name = f"{prefix}{child.name}."
        if isinstance(child, FUNCTIONS):
            yield name[:-1], child
        yield from functions(child, name)


def test_every_parameter_is_read():
    package = Package()
    unread = []
    for module, tree in package.trees.items():
        for qualname, node in functions(tree):
            loaded = {child.id for stmt in node.body for child in ast.walk(stmt)
                      if isinstance(child, ast.Name)
                      and isinstance(child.ctx, ast.Load)}
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            unread += [f"{module} {qualname}({param.arg})" for param in params
                       if param.arg not in loaded]
    assert not unread, unread


def test_package_import_loads_no_submodule():
    code = ("import sys, evfleetsim; print(sorted(m for m in sys.modules "
            "if m.startswith('evfleetsim.')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_congestion_enters_once():
    """The network holds the speed factor of each hour, and only the fleet
    controller asks for an hour (``engine.hour_of``) to index them; no
    function takes an hour, every one below the controller takes the
    factor."""
    package = Package()
    offences = []
    for module, tree in package.trees.items():
        for qualname, node in functions(tree):
            args = node.args
            if any(a.arg == "hour" for a in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs)):
                offences.append(f"{module} {qualname}(hour)")
        if module != "fleet.py":
            offences += [
                f"{module}:{child.lineno} hour_of" for child in ast.walk(tree)
                if isinstance(child, ast.Call)
                and "hour_of" in (getattr(child.func, "id", None),
                                  getattr(child.func, "attr", None))]
    assert not offences, offences


def test_only_the_network_and_config_index_network_edges():
    """Outside ``network.py`` and ``config.py`` no code indexes an
    ``edges`` attribute: a route carries its edges in its legs."""
    package = Package()
    offences = [
        f"{module}:{child.lineno}"
        for module, tree in package.trees.items()
        if module not in ("network.py", "config.py")
        for child in ast.walk(tree)
        if isinstance(child, ast.Subscript)
        and isinstance(child.value, ast.Attribute)
        and child.value.attr == "edges"]
    assert not offences, offences


def test_no_function_takes_a_plans_memo():
    """The drive plans belong to the drive model: a function takes the
    model, never the memo."""
    package = Package()
    offences = [
        f"{module} {qualname}"
        for module, tree in package.trees.items()
        for qualname, node in functions(tree)
        if any(a.arg == "plans" for a in (
            *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs))]
    assert not offences, offences


def test_only_the_metrics_module_writes_csv():
    """Every CSV output goes through ``metrics.write_csv``: no other module
    uses ``csv.writer``, and the engine does not import ``csv`` at all."""
    package = Package()
    offences = [
        f"{module}:{child.lineno} csv.writer"
        for module, tree in package.trees.items() if module != "metrics.py"
        for child in ast.walk(tree)
        if (isinstance(child, ast.Attribute) and child.attr == "writer"
            and getattr(child.value, "id", None) == "csv")
        or (isinstance(child, ast.ImportFrom) and child.module == "csv")]
    offences += [
        f"engine.py:{child.lineno} import csv"
        for child in ast.walk(package.trees["engine.py"])
        if isinstance(child, ast.Import)
        and any(alias.name == "csv" for alias in child.names)]
    assert not offences, offences


# methods that change the list, dict or set they are called on
MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear",
            "update", "setdefault", "add", "discard", "sort", "reverse",
            "difference_update", "intersection_update",
            "symmetric_difference_update", "__setitem__", "__delitem__"}


def module_names(tree) -> tuple[set[str], set[str]]:
    """Every name bound at module level: imports, assignments (also inside
    a module-level ``if`` or ``try``), functions and classes; and the
    imported ones among them."""
    names, imported, todo = set(), set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return names | imported, imported


def root_name(node) -> str | None:
    """The name an attribute or subscript chain such as ``a.b[k].c``
    starts from, or ``None`` if it starts from anything else."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_no_function_changes_module_state():
    """State that outlives a run belongs to an object the run builds: no
    package function stores into or deletes from a subscript or attribute
    of a module-level name, calls a mutating method on one or declares
    ``global``. A name that the function binds itself is its own, and a
    call such as ``np.append`` is an imported function, not a method."""
    package = Package()
    offences = []
    for module, tree in package.trees.items():
        shared, imported = module_names(tree)
        for qualname, node in functions(tree):
            args = node.args
            local = {a.arg for a in (*args.posonlyargs, *args.args,
                                     *args.kwonlyargs,
                                     *filter(None, (args.vararg, args.kwarg)))}
            local.update(child.id for child in ast.walk(node)
                         if isinstance(child, ast.Name)
                         and isinstance(child.ctx, ast.Store))
            for child in ast.walk(node):
                if isinstance(child, ast.Global):
                    offences += [f"{module}:{child.lineno} {qualname} "
                                 f"declares global {name}"
                                 for name in child.names]
                    continue
                if (isinstance(child, (ast.Attribute, ast.Subscript))
                        and isinstance(child.ctx, (ast.Store, ast.Del))):
                    name = root_name(child)
                elif (isinstance(child, ast.Call)
                      and isinstance(child.func, ast.Attribute)
                      and child.func.attr in MUTATORS
                      and getattr(child.func.value, "id", None)
                      not in imported):
                    name = root_name(child.func.value)
                else:
                    continue
                if name in shared and name not in local:
                    offences.append(
                        f"{module}:{child.lineno} {qualname} mutates {name}")
    assert not offences, offences
