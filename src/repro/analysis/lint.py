"""Determinism lint: an AST checker for nondeterminism hazards.

The simulator's reproducibility contract (and the byte-identical digest
guarantee the chaos tests enforce) dies by a thousand cuts: one unseeded
``random`` call, one wall-clock read in a simulated path, one iteration
over a hash-ordered ``set`` that reaches event scheduling, one exact float
comparison between computed timestamps.  None of these crash; they just
make two runs of the "same" experiment disagree.  This lint finds them
statically.

Rules
-----
``unseeded-random``
    Calls into the stdlib ``random`` module (global, unseeded RNG) or
    numpy's legacy global RNG (``np.random.rand`` etc.).  Simulation code
    must thread an explicit ``np.random.Generator``.
``wall-clock``
    ``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()`` /
    ``datetime.now()`` and friends: real time leaking into simulated time.
    Every read is flagged wherever it appears, so a wall-clock timestamp
    handed to a tracer or span (which must stamp *sim* time, or golden
    traces stop matching) is caught here too.
``wallclock-seam``
    The same wall-clock reads, in any file under ``repro/`` outside
    :mod:`repro.obs.perf` — even ones a ``wall-clock`` pragma justifies.
    Legitimate wall-clock access (interval measurement, artifact
    timestamps) must route through :func:`repro.obs.perf.wallclock`, the
    repo's single audited seam to the host clock, so "who can see real
    time" stays greppable in one place.
``unordered-iteration``
    Iterating a ``set`` expression (literal, ``set(...)``/``frozenset``
    call, set comprehension, or a set-algebra expression) in an
    order-sensitive position — a ``for`` loop, a non-set comprehension, or
    ``list``/``tuple``/``enumerate``/``iter``/``sum`` — where hash order
    can reach event scheduling.  Order-insensitive sinks (``sorted``,
    ``min``, ``max``, ``len``, ``any``, ``all``, set-to-set operations)
    are allowed.  Two flow-insensitive inferences extend the reach beyond
    literal set expressions: a local *name* whose latest assignment was a
    set expression (or whose annotation is ``set``/``Set[...]``) is
    treated as a set, and a *subscript* of a name annotated
    ``Dict[..., Set[...]]`` (the ``flows_on_link`` shape that once made
    ``max_min_fair_rates``'s float accumulation hash-ordered) is treated
    as a set.  The same rule also covers environment/filesystem
    iteration order: ``os.environ`` (and its ``.keys()``/``.values()``/
    ``.items()`` views), ``os.listdir()``, ``os.scandir()``, and
    ``Path.iterdir()`` all follow OS-dependent order, which two machines
    (or two runs) need not agree on.
``float-eq``
    ``==`` / ``!=`` between values that look like event timestamps
    (``now``, ``deadline``, ``*_time``, ``*_until``, ...).  Computed floats
    must be compared with tolerances or orderings.
``adhoc-event-loop``
    A private simulated clock outside :mod:`repro.engine`: assigning a
    mutable simulated-time attribute (``now`` / ``_now`` /
    ``busy_until`` / ``_busy_until``) — virtual time must derive from the
    kernel :class:`~repro.engine.Clock` /
    :class:`~repro.engine.SerialResource` so every layer shares one
    timeline.  Files under ``repro/engine/`` are exempt: they *are* the
    kernel.
``bare-pragma``
    A suppression pragma with no justification, or one naming a rule
    this lint does not have (it would suppress nothing; see below).

Pragmas
-------
A finding is suppressed by a pragma on the same line, or on a standalone
comment line directly above, naming the rule *and justifying itself*::

    elapsed = time.perf_counter() - start  # det: allow(wall-clock) -- measures real CPU cost

    # det: allow(unordered-iteration) -- feeds a set union, order-free
    merged = list(ids_a & ids_b)

``det: allow(rule-a, rule-b)`` suppresses several rules at once.  Every
name must be one of :data:`ALL_RULES`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .pragmas import DET, PragmaIndex

UNSEEDED_RANDOM = "unseeded-random"
WALL_CLOCK = "wall-clock"
WALLCLOCK_SEAM = "wallclock-seam"
UNORDERED_ITERATION = "unordered-iteration"
FLOAT_EQ = "float-eq"
ADHOC_EVENT_LOOP = "adhoc-event-loop"
BARE_PRAGMA = "bare-pragma"

ALL_RULES = (
    UNSEEDED_RANDOM,
    WALL_CLOCK,
    WALLCLOCK_SEAM,
    UNORDERED_ITERATION,
    FLOAT_EQ,
    ADHOC_EVENT_LOOP,
    BARE_PRAGMA,
)

_WALL_CLOCK_TIME_FUNCS = {
    "time",
    "monotonic",
    "perf_counter",
    "process_time",
    "clock",
    "time_ns",
    "monotonic_ns",
    "perf_counter_ns",
}
_WALL_CLOCK_DATETIME_FUNCS = {"now", "utcnow", "today"}

_NUMPY_LEGACY_RANDOM = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "seed",
    "normal",
    "uniform",
    "poisson",
    "exponential",
    "binomial",
}

# Builtins that consume an iterable without depending on its order.
_ORDER_INSENSITIVE_SINKS = {
    "sorted",
    "min",
    "max",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
}
# Builtins whose output order follows input order (hash order escapes here).
_ORDER_SENSITIVE_SINKS = {"list", "tuple", "enumerate", "iter", "sum", "zip"}

_TIMEY_EXACT = {"now", "time", "deadline", "timestamp"}
_TIMEY_SUFFIXES = ("_time", "_until", "_deadline", "_timestamp", "_at")

# Attributes that smell like a privately-mutated simulated-time cursor.
_SIM_TIME_ATTRS = {"now", "_now", "busy_until", "_busy_until"}


@dataclass(frozen=True)
class LintFinding:
    """One determinism hazard.

    Attributes:
        rule: the lint rule that fired (one of :data:`ALL_RULES`).
        path: file the finding is in.
        line: 1-based line number.
        col: 0-based column offset.
        message: what was found and why it is a hazard.
        text: the source line, stripped.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    text: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def _identifier_of(node: ast.AST) -> str:
    """The trailing identifier of a name/attribute chain, or ''."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _root_name(node: ast.AST) -> str:
    """The leftmost name of an attribute chain (``np`` for ``np.random.x``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _looks_timey(node: ast.AST) -> bool:
    identifier = _identifier_of(node)
    if not identifier:
        return False
    bare = identifier.lstrip("_")
    return bare in _TIMEY_EXACT or any(
        bare.endswith(suffix) for suffix in _TIMEY_SUFFIXES
    )


def _wall_clock_name(node: ast.AST) -> str:
    """'time.time' / 'datetime.now' for a wall-clock read call, else ''."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return ""
    func = node.func
    if _root_name(func) == "time" and func.attr in _WALL_CLOCK_TIME_FUNCS:
        return f"time.{func.attr}"
    if (
        func.attr in _WALL_CLOCK_DATETIME_FUNCS
        and _identifier_of(func.value) in {"datetime", "date"}
    ):
        return f"{_identifier_of(func.value)}.{func.attr}"
    return ""


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that statically evaluate to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


#: Annotation heads that declare a set-valued name.
_SET_ANNOTATIONS = {
    "set",
    "frozenset",
    "Set",
    "FrozenSet",
    "AbstractSet",
    "MutableSet",
}
#: Annotation heads that declare a mapping (checked for set-typed values).
_DICT_ANNOTATIONS = {
    "dict",
    "Dict",
    "defaultdict",
    "DefaultDict",
    "Mapping",
    "MutableMapping",
}


def _annotation_is_set(node: ast.AST) -> bool:
    """True for annotations declaring a set: ``set``, ``Set[int]``, ..."""
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    return _identifier_of(node) in _SET_ANNOTATIONS


def _annotation_is_dict_of_sets(node: ast.AST) -> bool:
    """True for ``Dict[K, Set[...]]``-shaped annotations, whose subscripts
    are sets (the ``flows_on_link`` shape)."""
    if not isinstance(node, ast.Subscript):
        return False
    if _identifier_of(node.value) not in _DICT_ANNOTATIONS:
        return False
    value_slice = node.slice
    if isinstance(value_slice, ast.Tuple) and len(value_slice.elts) == 2:
        return _annotation_is_set(value_slice.elts[1])
    return False


#: OS-iteration sources in the ``os`` module.
_UNORDERED_FS_FUNCS = {"listdir", "scandir"}
_ENVIRON_VIEWS = {"keys", "values", "items"}


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, lines: Sequence[str]) -> None:
        self.path = path
        self.lines = lines
        self.findings: List[LintFinding] = []
        self._random_imports: Set[str] = set()
        self._os_imports: Dict[str, str] = {}  # local alias -> os.* name
        self._exempt_nodes: Set[int] = set()
        # Flow-insensitive type inference feeding unordered-iteration:
        # names whose latest binding (or annotation) is a set, and names
        # annotated Dict[..., Set[...]] whose subscripts are sets.
        self._set_vars: Set[str] = set()
        self._dict_of_set_vars: Set[str] = set()
        # The kernel is the one place allowed to mutate simulated time;
        # everything else must go through it.
        normalized = path.replace(os.sep, "/")
        self._in_engine = "repro/engine/" in normalized
        # repro.obs.perf owns the audited wall-clock seam; everything else
        # under repro/ must call repro.obs.perf.wallclock() instead of
        # reading the host clock directly.  Paths outside repro/ (tests,
        # scripts, fixtures) are out of the seam's jurisdiction.
        self._seam_applies = (
            "repro/" in normalized and "repro/obs/perf/" not in normalized
        )

    # -- helpers ------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        text = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        self.findings.append(
            LintFinding(
                rule=rule,
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                text=text,
            )
        )

    def _is_set_like(self, node: ast.AST) -> bool:
        """Set expressions plus the two inferred shapes: set-typed local
        names and subscripts of ``Dict[..., Set[...]]``-annotated names."""
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._set_vars
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in self._dict_of_set_vars
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self._is_set_like(node.left) or self._is_set_like(node.right)
        return False

    def _bind_name(self, name: str, value: Optional[ast.AST]) -> None:
        """Record whether ``name``'s new binding is a set (latest wins)."""
        if value is not None and self._is_set_like(value):
            self._set_vars.add(name)
        else:
            self._set_vars.discard(name)
            self._dict_of_set_vars.discard(name)

    def _bind_annotated(self, name: str, annotation: ast.AST) -> None:
        """Record a name's declared type from an annotation."""
        if _annotation_is_set(annotation):
            self._set_vars.add(name)
        elif _annotation_is_dict_of_sets(annotation):
            self._dict_of_set_vars.add(name)
        else:
            self._set_vars.discard(name)
            self._dict_of_set_vars.discard(name)

    def _visit_function(self, node) -> None:
        """Scope the set-inference to the function body: argument
        annotations seed it, and local bindings don't leak out."""
        saved_sets = set(self._set_vars)
        saved_dicts = set(self._dict_of_set_vars)
        args = node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + [args.vararg, args.kwarg]
        ):
            if arg is not None and arg.annotation is not None:
                self._bind_annotated(arg.arg, arg.annotation)
        self.generic_visit(node)
        self._set_vars = saved_sets
        self._dict_of_set_vars = saved_dicts

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _is_environ(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "environ" and _root_name(node) == "os"
        if isinstance(node, ast.Name):
            return self._os_imports.get(node.id) == "environ"
        return False

    def _unordered_source(self, node: ast.AST) -> Optional[str]:
        """A description of an OS-order iterable, else None."""
        if self._is_environ(node):
            return "os.environ"
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _ENVIRON_VIEWS and self._is_environ(func.value):
                return f"os.environ.{func.attr}()"
            if func.attr in _UNORDERED_FS_FUNCS and _root_name(func) == "os":
                return f"os.{func.attr}()"
            if func.attr == "iterdir":
                return "Path.iterdir()"
        elif isinstance(func, ast.Name):
            original = self._os_imports.get(func.id)
            if original in _UNORDERED_FS_FUNCS:
                return f"os.{original}()"
        return None

    # -- imports ------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self._random_imports.add(alias.asname or alias.name)
        if node.module == "os":
            for alias in node.names:
                if alias.name in {"environ", "listdir", "scandir"}:
                    self._os_imports[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    # -- calls --------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE_SINKS:
            for arg in node.args:
                self._exempt_nodes.add(id(arg))
        self._check_random_call(node)
        self._check_wall_clock_call(node)
        self._check_set_sink(node)
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and not (func.attr == "Random" and node.args)
            ):
                self._flag(
                    node,
                    UNSEEDED_RANDOM,
                    f"call to the global 'random.{func.attr}' RNG; thread a "
                    "seeded np.random.Generator instead",
                )
            elif (
                func.attr in _NUMPY_LEGACY_RANDOM
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and _root_name(func.value) in {"np", "numpy"}
            ):
                self._flag(
                    node,
                    UNSEEDED_RANDOM,
                    f"call to numpy's legacy global RNG "
                    f"'np.random.{func.attr}'; use np.random.default_rng(seed)",
                )
        elif isinstance(func, ast.Name) and func.id in self._random_imports:
            self._flag(
                node,
                UNSEEDED_RANDOM,
                f"call to '{func.id}' imported from the global random "
                "module; thread a seeded np.random.Generator instead",
            )

    def _check_wall_clock_call(self, node: ast.Call) -> None:
        name = _wall_clock_name(node)
        if not name:
            return
        self._flag(
            node,
            WALL_CLOCK,
            f"wall-clock read '{name}()' — real time must not "
            "reach simulated time",
        )
        if self._seam_applies:
            self._flag(
                node,
                WALLCLOCK_SEAM,
                f"direct '{name}()' under repro/ bypasses the audited "
                "seam; call repro.obs.perf.wallclock() (or unix_time() / "
                "timestamp() for artifact stamps) instead",
            )

    def _check_set_sink(self, node: ast.Call) -> None:
        func = node.func
        if (
            not isinstance(func, ast.Name)
            or func.id not in _ORDER_SENSITIVE_SINKS
            or not node.args
            or id(node.args[0]) in self._exempt_nodes
        ):
            return
        if self._is_set_like(node.args[0]):
            self._flag(
                node,
                UNORDERED_ITERATION,
                f"'{func.id}()' over a set materializes hash order; sort "
                "first (sorted(...)) or use an ordered container",
            )
            return
        source = self._unordered_source(node.args[0])
        if source is not None:
            self._flag(
                node.args[0],
                UNORDERED_ITERATION,
                f"'{func.id}()' over {source} materializes "
                "OS-dependent order; wrap it in sorted(...)",
            )

    # -- iteration ----------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._is_set_like(node.iter) and id(node.iter) not in self._exempt_nodes:
            self._flag(
                node,
                UNORDERED_ITERATION,
                "for-loop over a set iterates in hash order; sort first "
                "(sorted(...)) or use an ordered container",
            )
        elif id(node.iter) not in self._exempt_nodes:
            source = self._unordered_source(node.iter)
            if source is not None:
                self._flag(
                    node.iter,
                    UNORDERED_ITERATION,
                    f"for-loop over {source} iterates in OS-dependent "
                    "order; wrap it in sorted(...)",
                )
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        produces_set = isinstance(node, ast.SetComp)
        for generator in node.generators:
            if produces_set or id(generator.iter) in self._exempt_nodes:
                continue
            if id(node) in self._exempt_nodes:
                continue
            if self._is_set_like(generator.iter):
                self._flag(
                    generator.iter,
                    UNORDERED_ITERATION,
                    "comprehension over a set inherits hash order; sort "
                    "first (sorted(...)) or produce a set",
                )
                continue
            source = self._unordered_source(generator.iter)
            if source is not None:
                self._flag(
                    generator.iter,
                    UNORDERED_ITERATION,
                    f"comprehension over {source} inherits "
                    "OS-dependent order; wrap it in sorted(...)",
                )
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_SetComp = _visit_comprehension

    # -- simulated-time mutation --------------------------------------
    def _check_time_attr_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute) and target.attr in _SIM_TIME_ATTRS:
            self._flag(
                target,
                ADHOC_EVENT_LOOP,
                f"assignment to mutable simulated-time attribute "
                f"'{target.attr}' outside repro.engine; derive virtual time "
                "from the kernel Clock / SerialResource",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._in_engine:
            for target in node.targets:
                # ast.walk reaches attributes inside tuple/list targets.
                for sub in ast.walk(target):
                    self._check_time_attr_target(sub)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind_name(target.id, node.value)
            else:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        self._bind_name(sub.id, None)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not self._in_engine:
            self._check_time_attr_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._in_engine and node.value is not None:
            self._check_time_attr_target(node.target)
        if isinstance(node.target, ast.Name):
            self._bind_annotated(node.target.id, node.annotation)
        self.generic_visit(node)

    # -- comparisons --------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for this, other in ((left, right), (right, left)):
                if not _looks_timey(this):
                    continue
                if isinstance(other, ast.Constant) and (
                    other.value is None or isinstance(other.value, str)
                ):
                    continue
                self._flag(
                    node,
                    FLOAT_EQ,
                    f"exact equality on timestamp-like value "
                    f"'{_identifier_of(this)}'; computed floats need a "
                    "tolerance or an ordering comparison",
                )
                break
        self.generic_visit(node)


def pragma_findings(pragmas: PragmaIndex, path: str) -> List[LintFinding]:
    """``bare-pragma`` findings for every unjustified pragma in the index,
    and for every pragma naming a rule outside :data:`ALL_RULES`."""
    findings = [
        LintFinding(
            rule=BARE_PRAGMA,
            path=path,
            line=line,
            col=col,
            message=(
                "suppression pragma without a justification; write "
                f"'# {pragmas.namespace}: allow(rule) -- why this is safe'"
            ),
            text=text,
        )
        for line, col, text in pragmas.unjustified
    ]
    for line, col, text, rules in pragmas.sites:
        unknown = sorted(rules.difference(ALL_RULES))
        if unknown:
            findings.append(
                LintFinding(
                    rule=BARE_PRAGMA,
                    path=path,
                    line=line,
                    col=col,
                    message=(
                        f"suppression pragma names unknown rule(s) "
                        f"{', '.join(unknown)}; it suppresses nothing"
                    ),
                    text=text,
                )
            )
    return findings


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one Python source string; returns findings in line order."""
    lines = source.splitlines()
    pragmas = PragmaIndex(DET, lines)
    findings = pragma_findings(pragmas, path)
    tree = ast.parse(source, filename=path)
    visitor = _DeterminismVisitor(path, lines)
    visitor.visit(tree)
    findings.extend(
        finding
        for finding in visitor.findings
        if not pragmas.allows(finding.line, finding.rule)
    )
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule))


def lint_file(path: str) -> List[LintFinding]:
    """Lint one file."""
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                collected.extend(
                    os.path.join(root, name)
                    for name in files
                    if name.endswith(".py")
                )
        else:
            collected.append(path)
    return sorted(collected)


def lint_paths(paths: Iterable[str]) -> List[LintFinding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[LintFinding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    return findings


def format_findings(findings: Sequence[LintFinding]) -> str:
    """Render findings one per line, with the offending source quoted."""
    parts = []
    for finding in findings:
        parts.append(str(finding))
        if finding.text:
            parts.append(f"    {finding.text}")
    return "\n".join(parts)
