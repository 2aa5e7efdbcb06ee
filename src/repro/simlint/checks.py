"""The determinism rules (``SIM1xx``): AST checks over one module.

Each check receives the parsed tree and a :class:`~repro.simlint.rules.
CheckContext` and reports through it.  The rules encode the repo's
determinism contract (DESIGN.md "Determinism contract"): a simulation's
outcome may depend only on its config and seed — never on the wall
clock, the process-global RNG, hash/identity ordering, or float
round-off luck.

The checks are deliberately syntactic: no type inference, no
cross-module analysis.  Where a rule needs intent it cannot see (the
``obs`` layer *measures* wall time on purpose), the escape hatches are
the engine's clock allowlist and ``# simlint: disable=...`` comments —
both visible in the diff, which is the point.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.simlint.rules import CheckContext, rule

__all__ = ["run_checks"]


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(func: ast.AST) -> Optional[str]:
    """The terminal name of a call target: ``f`` for ``f(...)`` and
    ``obj.f(...)`` alike."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# ----------------------------------------------------------------------
# SIM101 — wall-clock reads in simulation code
# ----------------------------------------------------------------------
_WALL_CLOCK_TIME_FNS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
_WALL_CLOCK_DT_FNS = {"now", "utcnow", "today"}


@rule("SIM101", "wall-clock",
      "sim code must not read the wall clock (time.*/datetime.now); "
      "virtual time comes from sim.now")
def check_wall_clock(tree: ast.AST, ctx: CheckContext) -> None:
    if ctx.in_clock_allowlist:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            root, _, leaf = dotted.rpartition(".")
            if root == "time" and leaf in _WALL_CLOCK_TIME_FNS:
                ctx.report(node, "SIM101",
                           f"wall-clock read `{dotted}`: sim paths must use "
                           "virtual time (sim.now), not the host clock")
            elif leaf in _WALL_CLOCK_DT_FNS and (
                    root == "datetime" or root.endswith(".datetime")
                    or root == "date" or root.endswith(".date")):
                ctx.report(node, "SIM101",
                           f"wall-clock read `{dotted}`: timestamps in sim "
                           "paths must derive from the virtual clock")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_TIME_FNS:
                    ctx.report(node, "SIM101",
                               f"`from time import {alias.name}` smuggles the "
                               "wall clock into sim code")


# ----------------------------------------------------------------------
# SIM102 — draws from the process-global RNG
# ----------------------------------------------------------------------
_GLOBAL_DRAWS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate",
    "getrandbits", "randbytes", "seed", "getstate", "setstate",
}


@rule("SIM102", "global-rng",
      "draws must come from a seeded per-purpose random.Random stream, "
      "never the module-global RNG")
def check_global_rng(tree: ast.AST, ctx: CheckContext) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            root, _, leaf = dotted.rpartition(".")
            if root == "random" and leaf in _GLOBAL_DRAWS:
                ctx.report(node, "SIM102",
                           f"`{dotted}` uses the process-global RNG; draw "
                           "from a seeded random.Random(f\"{seed}-purpose\") "
                           "stream instead")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_DRAWS:
                    ctx.report(node, "SIM102",
                               f"`from random import {alias.name}` binds the "
                               "process-global RNG; import Random and seed a "
                               "stream instead")


# ----------------------------------------------------------------------
# SIM103 — unordered-collection iteration feeding ordered sinks
# ----------------------------------------------------------------------
_ORDER_SINKS = {
    "emit", "snapshot", "serialize", "to_json", "to_jsonl", "to_csv",
    "dumps", "dump", "heappush", "insort", "push", "write",
}


def _setish_names(tree: ast.AST) -> Set[str]:
    """Names assigned a set expression anywhere in the module (coarse,
    scope-blind on purpose: a false suppression is worse than asking for
    a ``sorted()``)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_unordered_expr(node.value, names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_unordered_expr(node: ast.AST, setish: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in setish:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return (_is_unordered_expr(node.left, setish)
                or _is_unordered_expr(node.right, setish))
    return False


def _has_order_sink(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name and (name.startswith("schedule") or name in _ORDER_SINKS):
                    return True
    return False


@rule("SIM103", "unordered-iteration",
      "iterating a set into schedule*/serialization/snapshot sinks makes "
      "event order hash-dependent; sort first")
def check_unordered_iteration(tree: ast.AST, ctx: CheckContext) -> None:
    setish = _setish_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _is_unordered_expr(node.iter, setish) \
                and _has_order_sink(node.body):
            ctx.report(node.iter, "SIM103",
                       "set iteration feeds an order-sensitive sink "
                       "(schedule*/emit/serialize); iterate sorted(...) or an "
                       "insertion-ordered list so event order is reproducible")


# ----------------------------------------------------------------------
# SIM104 — mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_CTORS = {
    "list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict",
}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        return name in _MUTABLE_CTORS
    return False


@rule("SIM104", "mutable-default",
      "mutable default arguments accumulate state across calls and runs")
def check_mutable_defaults(tree: ast.AST, ctx: CheckContext) -> None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    ctx.report(default, "SIM104",
                               "mutable default argument: shared across calls, "
                               "so one run's state leaks into the next; "
                               "default to None and build inside")


# ----------------------------------------------------------------------
# SIM105 — float equality on sim-time arithmetic
# ----------------------------------------------------------------------
_TIME_NAMES = {
    "now", "t", "dt", "delay", "duration", "deadline", "elapsed",
    "interval", "timeout", "when",
}


def _is_timeish(name: str) -> bool:
    lowered = name.lower()
    return lowered in _TIME_NAMES or "time" in lowered


def _timeish_arithmetic(node: ast.AST) -> bool:
    """True for a +,-,*,/ expression whose leaves include a time name."""
    if not (isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))):
        return False
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and _is_timeish(leaf.id):
            return True
        if isinstance(leaf, ast.Attribute) and _is_timeish(leaf.attr):
            return True
    return False


@rule("SIM105", "float-time-eq",
      "== / != on sim-time arithmetic is round-off roulette; compare with "
      "a tolerance or restructure")
def check_float_time_eq(tree: ast.AST, ctx: CheckContext) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left] + list(node.comparators)
        if any(_timeish_arithmetic(operand) for operand in operands):
            ctx.report(node, "SIM105",
                       "float == / != on time arithmetic: accumulated "
                       "round-off makes this fragile; use a tolerance "
                       "(abs(a - b) < eps) or integer ticks")


# ----------------------------------------------------------------------
# SIM106 — id() as a sort key
# ----------------------------------------------------------------------
def _is_id_key(value: ast.AST) -> bool:
    if isinstance(value, ast.Name) and value.id == "id":
        return True
    if isinstance(value, ast.Lambda) and isinstance(value.body, ast.Call) \
            and isinstance(value.body.func, ast.Name) \
            and value.body.func.id == "id":
        return True
    return False


@rule("SIM106", "id-sort-key",
      "id() reflects allocation addresses; sorting by it changes order "
      "run-to-run")
def check_id_sort_key(tree: ast.AST, ctx: CheckContext) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name not in ("sorted", "sort", "min", "max"):
            continue
        for keyword in node.keywords:
            if keyword.arg == "key" and _is_id_key(keyword.value):
                ctx.report(keyword.value, "SIM106",
                           "id() as a sort key orders by allocation address "
                           "— nondeterministic across runs; sort by a stable "
                           "attribute (name, index, address) instead")


# ----------------------------------------------------------------------
# SIM107 — loop variables captured by scheduled closures
# ----------------------------------------------------------------------
def _target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _lambda_captures(lam: ast.Lambda, loop_vars: Set[str]) -> Set[str]:
    """Loop variables the lambda reads late (not rebound as params)."""
    bound = {arg.arg for arg in lam.args.args + lam.args.kwonlyargs}
    bound |= {arg.arg for arg in (
        [lam.args.vararg] if lam.args.vararg else []
    ) + ([lam.args.kwarg] if lam.args.kwarg else [])}
    captured: Set[str] = set()
    for node in ast.walk(lam.body):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in loop_vars and node.id not in bound:
            captured.add(node.id)
    return captured


class _LoopClosureVisitor(ast.NodeVisitor):
    def __init__(self, ctx: CheckContext):
        self.ctx = ctx
        self.loop_vars: List[Set[str]] = []

    def visit_For(self, node: ast.For) -> None:
        self.loop_vars.append(_target_names(node.target))
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self.loop_vars.pop()
        self.visit(node.iter)

    # a new function scope re-binds nothing loop-related by itself, but
    # lambdas inside it still capture the enclosing loop vars — keep
    # descending with the same stack.

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name and name.startswith("schedule") and self.loop_vars:
            active: Set[str] = set().union(*self.loop_vars)
            for value in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(value, ast.Lambda):
                    captured = _lambda_captures(value, active)
                    if captured:
                        names = ", ".join(sorted(captured))
                        self.ctx.report(
                            value, "SIM107",
                            f"scheduled lambda captures loop variable(s) "
                            f"{names} by reference — every callback sees the "
                            "final iteration's value; bind with a default "
                            "arg (lambda x=x: ...) or partial()")
        self.generic_visit(node)


@rule("SIM107", "loop-closure-callback",
      "a lambda scheduled inside a loop must bind its loop variables, "
      "not capture them by reference")
def check_loop_closure_callbacks(tree: ast.AST, ctx: CheckContext) -> None:
    _LoopClosureVisitor(ctx).visit(tree)


# ----------------------------------------------------------------------
# SIM108 — unused imports
# ----------------------------------------------------------------------
def _names_used(tree: ast.AST) -> Set[str]:
    """Every Name referenced anywhere (loads, stores, annotations) plus
    the strings listed in ``__all__`` — anything in here is "used"."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Constant) \
                                and isinstance(sub.value, str):
                            used.add(sub.value)
    return used


def _type_checking_nodes(tree: ast.AST) -> Set[int]:
    """ids of statements under ``if TYPE_CHECKING:`` — imports there
    exist only for annotations and quoted forward references."""
    guarded: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (test.id if isinstance(test, ast.Name)
                else test.attr if isinstance(test, ast.Attribute) else None)
        if name == "TYPE_CHECKING":
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    guarded.add(id(sub))
    return guarded


@rule("SIM108", "unused-import",
      "imports that nothing references are dead weight and hide real "
      "dependencies")
def check_unused_imports(tree: ast.AST, ctx: CheckContext) -> None:
    import os

    if os.path.basename(ctx.path) == "__init__.py":
        return  # package façades re-export on purpose
    used = _names_used(tree)
    guarded = _type_checking_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    ctx.report(node, "SIM108",
                               f"`import {alias.name}` is never used")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                if alias.asname == alias.name:
                    continue  # `import x as x` is the re-export idiom
                if bound not in used:
                    ctx.report(node, "SIM108",
                               f"`from {node.module or '.'} import "
                               f"{alias.name}` is never used")


def run_checks(tree: ast.AST, ctx: CheckContext, codes: List[str]) -> None:
    """Run the selected rules (import side effect: registry is full)."""
    from repro.simlint.rules import REGISTRY

    for code in codes:
        REGISTRY[code].check(tree, ctx)
