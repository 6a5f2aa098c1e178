"""The RPL rule catalogue.

Every rule encodes an invariant of the energy pipeline that a silent
violation would corrupt: the headline numbers are energy integrals
(watts x seconds over modeled rate vectors), so a Mbps/MBps mix-up, an
unseeded RNG in a simulation path, or a float ``==`` on a chunk
boundary is a results bug, not a style nit. Rules are scoped to the
packages where the invariant holds (see each rule's ``packages``), and
suppressible per line with ``# repro: noqa[RPLxxx]``.

=======  ==============================================================
code     invariant
=======  ==============================================================
RPL001   unit conversions go through :mod:`repro.units`, never raw
         ``1e6`` / ``* 1024`` / ``/ 8`` literals
RPL002   simulation paths are deterministic: no unseeded
         ``default_rng()``, no ``random.*``, no wall-clock reads
RPL003   no float ``==`` / ``!=`` in the energy/boundary math
RPL004   observer hook calls are guarded by ``is not None``
         (the zero-cost disabled idiom)
RPL005   ``emit(..., "kind", ...)`` kinds resolve against
         ``repro.obs.events.EVENT_SCHEMA`` and pass its required keys
RPL006   no mutable default arguments
RPL007   ``__all__`` hygiene: listed names exist; package
         ``__init__`` re-exports are declared
RPL008   public params with unit suffixes (``_s``/``_bytes``/``_w``/
         ``_j``/``_bps``) document their units in the docstring
RPL009   ``+``/``-``/``%``/comparisons/``min``/``max`` never mix
         dimensions (seconds vs bytes, W vs J, day-fraction vs s)
RPL010   assignment never changes a unit-suffixed (or alias-annotated)
         name's dimension
RPL011   call-site argument dimensions match the callee's
         annotation/suffix summary
RPL012   return value dimensions match the annotated
         :mod:`repro.units` alias
=======  ==============================================================

RPL009–RPL012 share one flow-sensitive dimensional pass (see
:mod:`repro.lint.dim` for the lattice, seeding and transfer
functions); the four codes are views over its findings, individually
selectable and suppressible like every other rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from collections.abc import Iterator
from typing import Optional

from repro.lint.dim import DIM_PACKAGES, DimFinding, SummaryTable, analyze
from repro.lint.framework import Finding, ModuleContext, Rule, register

__all__ = [
    "RawUnitLiterals",
    "SimulationNondeterminism",
    "FloatEquality",
    "UnguardedObserver",
    "UnknownEventKind",
    "MutableDefaults",
    "DunderAllHygiene",
    "UndocumentedUnits",
    "MixedDimensionArithmetic",
    "DimensionChangingAssignment",
    "ArgumentDimensionMismatch",
    "ReturnDimensionMismatch",
]

#: Packages whose numbers feed the paper's energy integrals directly.
_ENERGY_MATH = ("repro.core", "repro.netsim", "repro.netenergy", "repro.analysis")
#: Packages that must replay bit-identically under a fixed seed.
_SIMULATION = ("repro.netsim", "repro.core", "repro.service")
#: Packages covered by the typed-units/docstring contract.
_UNIT_SURFACE = _ENERGY_MATH + ("repro.obs", "repro.service", "repro.units")


def _is_number(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register
class RawUnitLiterals(Rule):
    """RPL001 — raw unit-conversion literals outside ``repro.units``.

    Flags ``*``/``/`` arithmetic against the classic conversion
    constants (1e3/1e6/1e9/1e12, the 1024 powers, and the 3.6e6
    joules-per-kWh factor) anywhere in the package, plus ``* 8`` /
    ``/ 8`` when the other operand smells like a rate (its
    subexpression names mention bps/bit/rate/bandwidth/throughput).
    ``repro.units`` itself is the one sanctioned home for these
    constants, and the named energy constants
    (``repro.service.tariff.JOULES_PER_KWH``) for theirs.
    """

    code = "RPL001"
    name = "raw-unit-literal"
    summary = "unit conversion bypasses repro.units helpers"
    packages = ("repro",)
    excluded = ("repro.units", "repro.lint")

    _CONSTANTS = frozenset(
        {1_000, 1_000_000, 1_000_000_000, 1_000_000_000_000,
         1024, 1024**2, 1024**3, 3_600_000}
    )
    _RATE_TOKENS = ("bps", "bit", "rate", "bandwidth", "throughput", "_bw")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Mult, ast.Div)):
                continue
            for operand, other in ((node.left, node.right), (node.right, node.left)):
                if not _is_number(operand):
                    continue
                value = operand.value  # type: ignore[attr-defined]
                if value in self._CONSTANTS:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"raw unit literal {value:g} in arithmetic; use a "
                        "repro.units helper (MB, mbps(), to_mbps(), ...)",
                    )
                    break
                if value == 8 and self._smells_like_rate(other):
                    yield ctx.finding(
                        node,
                        self.code,
                        "bits<->bytes factor 8 applied to a rate; use "
                        "repro.units mbps()/to_mbps() instead",
                    )
                    break

    def _smells_like_rate(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name and any(tok in name.lower() for tok in self._RATE_TOKENS):
                return True
        return False


@register
class SimulationNondeterminism(Rule):
    """RPL002 — nondeterminism in simulation paths.

    The engine, the algorithms, and the service layer must replay
    bit-identically under a fixed seed: flags unseeded
    ``np.random.default_rng()``, any use of the stdlib ``random``
    module, and wall-clock reads (``time.time``/``datetime.now``/...),
    which would couple simulated results to the host clock.
    """

    code = "RPL002"
    name = "sim-nondeterminism"
    summary = "nondeterministic call in a simulation path"
    packages = _SIMULATION

    _CLOCK_ATTRS = {
        "time": {"time", "time_ns", "monotonic", "perf_counter"},
        "datetime": {"now", "utcnow", "today"},
        "date": {"today"},
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_import(self, ctx: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    yield ctx.finding(
                        node,
                        self.code,
                        "stdlib random in a simulation path; use a seeded "
                        "np.random.default_rng(seed) threaded from the caller",
                    )
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            yield ctx.finding(
                node,
                self.code,
                "stdlib random in a simulation path; use a seeded "
                "np.random.default_rng(seed) threaded from the caller",
            )

    def _check_call(self, ctx: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf == "default_rng" and not node.args and not node.keywords:
            yield ctx.finding(
                node,
                self.code,
                "unseeded default_rng() in a simulation path; thread an "
                "explicit seed (or rng) through the caller",
            )
            return
        head = dotted.split(".", 1)[0]
        if head == "random" and "." in dotted:
            yield ctx.finding(
                node,
                self.code,
                f"{dotted}() is process-seeded global state; use a seeded "
                "np.random.default_rng(seed)",
            )
            return
        parts = dotted.split(".")
        if len(parts) >= 2:
            mod, attr = parts[-2], parts[-1]
            if attr in self._CLOCK_ATTRS.get(mod, ()):
                yield ctx.finding(
                    node,
                    self.code,
                    f"wall-clock read {dotted}() in a simulation path; "
                    "simulated time must come from the engine clock",
                )


@register
class FloatEquality(Rule):
    """RPL003 — float ``==`` / ``!=`` in the energy/boundary math.

    A float-literal equality on a chunk-partition or SLA boundary
    silently flips on round-off (exactly the class of bug fixed by hand
    in the HTEE probe ladder and ``sla_met``). Compare with an explicit
    tolerance, or document an exact sentinel comparison with
    ``# repro: noqa[RPL003]``.
    """

    code = "RPL003"
    name = "float-equality"
    summary = "float equality comparison in energy/boundary math"
    packages = _ENERGY_MATH

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                for side in (left, right):
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, float)
                    ):
                        symbol = "==" if isinstance(op, ast.Eq) else "!="
                        yield ctx.finding(
                            node,
                            self.code,
                            f"float {symbol} {side.value!r}; use an explicit "
                            "tolerance (abs(x - y) <= tol) or document the "
                            "exact comparison with # repro: noqa[RPL003]",
                        )
                        break


@register
class UnguardedObserver(Rule):
    """RPL004 — observer hook calls without the ``is not None`` guard.

    Instrumented code holds an ``Optional[Observer]``; PR 2's zero-cost
    contract is one ``is not None`` attribute check per disabled site.
    Flags ``observer.<hook>(...)`` / ``self.observer.<hook>(...)``
    calls not enclosed in an ``if <receiver> is not None:`` branch (or
    the ``else`` of an ``is None`` test). A receiver assigned directly
    from an ``Observer(...)`` constructor in the same function scope is
    statically non-None and exempt.
    """

    code = "RPL004"
    name = "unguarded-observer"
    summary = "observer call site missing the 'is not None' guard"
    packages = ("repro",)
    excluded = ("repro.obs", "repro.lint")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = func.value
            if not self._is_observer_expr(receiver):
                continue
            if self._guarded(ctx, node, receiver):
                continue
            yield ctx.finding(
                node,
                self.code,
                f"call to {_dotted(func) or 'observer hook'}() is not "
                "guarded by 'if <observer> is not None'; the disabled "
                "path must stay zero-cost",
            )

    @staticmethod
    def _is_observer_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in {"observer", "obs"}
        if isinstance(node, ast.Attribute):
            return node.attr == "observer"
        return False

    def _guarded(self, ctx: ModuleContext, call: ast.Call, receiver: ast.AST) -> bool:
        if self._constructed_locally(ctx, call, receiver):
            return True
        target = ast.dump(receiver)
        child: ast.AST = call
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, ast.If):
                in_body = any(child is stmt or self._contains(stmt, child)
                              for stmt in ancestor.body)
                polarity = self._none_test(ancestor.test, target)
                if polarity == "not-none" and in_body:
                    return True
                if polarity == "none" and not in_body:
                    return True
            elif isinstance(ancestor, ast.IfExp):
                polarity = self._none_test(ancestor.test, target)
                if polarity == "not-none" and self._contains(ancestor.body, call):
                    return True
                if polarity == "none" and self._contains(ancestor.orelse, call):
                    return True
            elif isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                break
            child = ancestor
        return False

    @staticmethod
    def _contains(root: ast.AST, node: ast.AST) -> bool:
        return any(sub is node for sub in ast.walk(root))

    @staticmethod
    def _constructed_locally(
        ctx: ModuleContext, call: ast.Call, receiver: ast.AST
    ) -> bool:
        """True when the receiver is a plain name assigned from an
        ``Observer(...)`` constructor inside the enclosing function, so
        it cannot be ``None``."""
        if not isinstance(receiver, ast.Name):
            return False
        scope: Optional[ast.AST] = None
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = ancestor
                break
        if scope is None:
            scope = ctx.tree
        for node in ast.walk(scope):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == receiver.id
                for t in node.targets
            ):
                continue
            value = node.value
            if isinstance(value, ast.Call):
                dotted = _dotted(value.func)
                if dotted is not None and dotted.rsplit(".", 1)[-1] == "Observer":
                    return True
        return False

    @staticmethod
    def _none_test(test: ast.AST, target: str) -> Optional[str]:
        """Classify a condition: 'not-none' if it asserts the receiver
        is not None (possibly inside an ``and``), 'none' for the
        inverse, else ``None``."""
        for sub in ast.walk(test):
            if not isinstance(sub, ast.Compare) or len(sub.ops) != 1:
                continue
            op = sub.ops[0]
            if not isinstance(op, (ast.Is, ast.IsNot)):
                continue
            left, right = sub.left, sub.comparators[0]
            none_side = (
                isinstance(right, ast.Constant) and right.value is None
            ) or (isinstance(left, ast.Constant) and left.value is None)
            expr_side = left if not isinstance(left, ast.Constant) else right
            if none_side and ast.dump(expr_side) == target:
                return "not-none" if isinstance(op, ast.IsNot) else "none"
        return None


@register
class UnknownEventKind(Rule):
    """RPL005 — ``emit()`` kinds and keys must resolve against
    ``EVENT_SCHEMA``.

    The observability schema is enforced at runtime, but a bad call
    only explodes when the instrumented branch actually runs. This rule
    resolves every literal ``emit(time, "kind", ...)`` kind against
    ``repro.obs.events.EVENT_SCHEMA`` statically (by parsing the schema
    module's AST, so the linter needs no numeric stack), and a site
    without ``**`` splats must pass each of the kind's required detail
    keys as a keyword.
    """

    code = "RPL005"
    name = "unknown-event-kind"
    summary = "emit() kind or keys do not match obs.events.EVENT_SCHEMA"
    packages = ("repro",)
    excluded = ("repro.lint",)

    #: kind -> required keys (``None`` when not statically known)
    _schema_cache: Optional[dict[str, Optional[frozenset[str]]]] = None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        schema = self._schema(ctx)
        if schema is None:  # schema module unavailable: stay silent
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
                continue
            kind = self._kind_arg(node)
            if kind is None:
                continue
            if kind not in schema:
                yield ctx.finding(
                    node,
                    self.code,
                    f"event kind {kind!r} is not in "
                    "repro.obs.events.EVENT_SCHEMA; add it to the schema "
                    "or fix the call site",
                )
                continue
            required = schema[kind]
            if required is None or any(kw.arg is None for kw in node.keywords):
                continue  # keys not literal in the schema, or a ** splat
            missing = sorted(required - {kw.arg for kw in node.keywords if kw.arg})
            if missing:
                yield ctx.finding(
                    node,
                    self.code,
                    f"event {kind!r} is missing required detail "
                    f"key(s) {', '.join(missing)}",
                )

    @staticmethod
    def _kind_arg(node: ast.Call) -> Optional[str]:
        for kw in node.keywords:
            if kw.arg == "kind":
                if isinstance(kw.value, ast.Constant) and isinstance(
                    kw.value.value, str
                ):
                    return kw.value.value
                return None
        if len(node.args) >= 2:
            arg = node.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
        return None

    @classmethod
    def _schema(
        cls, ctx: ModuleContext
    ) -> Optional[dict[str, Optional[frozenset[str]]]]:
        if cls._schema_cache is not None:
            return cls._schema_cache
        schema = cls._schema_from_ast(ctx) or cls._schema_from_import()
        if schema:
            cls._schema_cache = schema
        return schema

    @staticmethod
    def _schema_from_ast(
        ctx: ModuleContext,
    ) -> Optional[dict[str, Optional[frozenset[str]]]]:
        """Locate ``obs/events.py`` next to the linted tree and pull the
        literal kinds of ``EVENT_SCHEMA`` out of its AST, each with the
        literal key set its ``EventKind(...)`` entry opens with."""
        parts = Path(ctx.path).parts
        if "repro" not in parts:
            return None
        root = Path(*parts[: parts.index("repro") + 1])
        candidate = root / "obs" / "events.py"
        if not candidate.is_file():
            return None
        try:
            tree = ast.parse(candidate.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return None
        for node in ast.walk(tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "EVENT_SCHEMA":
                    if isinstance(value, ast.Dict):
                        return {
                            k.value: _literal_keys(v)
                            for k, v in zip(value.keys, value.values, strict=True)
                            if isinstance(k, ast.Constant)
                            and isinstance(k.value, str)
                        }
        return None

    @staticmethod
    def _schema_from_import() -> Optional[dict[str, Optional[frozenset[str]]]]:
        try:
            from repro.obs.events import EVENT_SCHEMA
        except Exception:
            return None
        return {kind: frozenset(spec.keys) for kind, spec in EVENT_SCHEMA.items()}


def _literal_keys(entry: ast.expr) -> Optional[frozenset[str]]:
    """The string set an ``EventKind({...}, ...)`` schema entry opens
    with, or ``None`` when it is not a literal."""
    if not (isinstance(entry, ast.Call) and entry.args):
        return None
    keys = entry.args[0]
    if not isinstance(keys, ast.Set):
        return None
    names = [e.value for e in keys.elts
             if isinstance(e, ast.Constant) and isinstance(e.value, str)]
    return frozenset(names) if len(names) == len(keys.elts) else None


@register
class MutableDefaults(Rule):
    """RPL006 — mutable default arguments.

    A ``[]`` / ``{}`` / ``set()`` default is shared across calls; in a
    harness that replays campaigns in one process this turns into
    cross-run state leakage (the ``dataset_for`` cache-poisoning bug
    was the same disease in cache form).
    """

    code = "RPL006"
    name = "mutable-default"
    summary = "mutable default argument"
    packages = None  # everywhere

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield ctx.finding(
                        default,
                        self.code,
                        f"mutable default argument in {label}(); default to "
                        "None and create the container inside the function",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False


@register
class DunderAllHygiene(Rule):
    """RPL007 — ``__all__`` hygiene.

    Two checks: every name listed in ``__all__`` is actually bound at
    module top level, and every public name a package ``__init__``
    re-exports via a relative import is declared in its ``__all__``
    (so the public API surface is explicit, not accidental).
    """

    code = "RPL007"
    name = "dunder-all-hygiene"
    summary = "__all__ out of sync with module bindings"
    packages = ("repro",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        declared, all_node = self._declared_all(ctx.tree)
        if declared is None:
            return
        bound = self._top_level_bindings(ctx.tree)
        star_import = "*" in bound
        for name in sorted(declared):
            if not star_import and name not in bound:
                yield ctx.finding(
                    all_node,
                    self.code,
                    f"__all__ lists {name!r} but the module never binds it",
                )
        if Path(ctx.path).name == "__init__.py":
            yield from self._check_reexports(ctx, declared)

    @staticmethod
    def _declared_all(
        tree: ast.Module,
    ) -> tuple[Optional[set[str]], Optional[ast.AST]]:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        if isinstance(node.value, (ast.List, ast.Tuple)):
                            names = {
                                e.value
                                for e in node.value.elts
                                if isinstance(e, ast.Constant)
                                and isinstance(e.value, str)
                            }
                            return names, node
        return None, None

    @classmethod
    def _top_level_bindings(cls, tree: ast.Module) -> set[str]:
        bound: set[str] = set()
        cls._collect_bindings(tree.body, bound)
        return bound

    @classmethod
    def _collect_bindings(cls, body: list[ast.stmt], bound: set[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    cls._collect_target(target, bound)
            elif isinstance(node, ast.AnnAssign):
                cls._collect_target(node.target, bound)
            elif isinstance(node, ast.AugAssign):
                cls._collect_target(node.target, bound)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound.add(alias.asname or alias.name)
            elif isinstance(node, ast.If):
                cls._collect_bindings(node.body, bound)
                cls._collect_bindings(node.orelse, bound)
            elif isinstance(node, ast.Try):
                cls._collect_bindings(node.body, bound)
                for handler in node.handlers:
                    cls._collect_bindings(handler.body, bound)
                cls._collect_bindings(node.orelse, bound)
                cls._collect_bindings(node.finalbody, bound)

    @staticmethod
    def _collect_target(target: ast.expr, bound: set[str]) -> None:
        if isinstance(target, ast.Name):
            bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                DunderAllHygiene._collect_target(elt, bound)
        elif isinstance(target, ast.Starred):
            DunderAllHygiene._collect_target(target.value, bound)

    def _check_reexports(
        self, ctx: ModuleContext, declared: set[str]
    ) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if not isinstance(node, ast.ImportFrom) or node.level < 1:
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name == "*" or name.startswith("_"):
                    continue
                if name not in declared:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"package __init__ re-exports {name!r} without "
                        "declaring it in __all__",
                    )


@register
class UndocumentedUnits(Rule):
    """RPL008 — unit-suffixed public parameters must document units.

    A parameter named ``deadline_s`` or ``rate_bps`` is a contract;
    the docstring of a public function must say what the unit means
    (seconds, bytes, bytes/s, watts, joules) so call sites never have
    to reverse-engineer the internal unit system.
    """

    code = "RPL008"
    name = "undocumented-units"
    summary = "unit-suffixed parameter lacks a unit mention in the docstring"
    packages = _UNIT_SURFACE

    #: suffix -> docstring tokens that count as documenting it
    #: (checked longest-suffix-first so ``_per_s``/``_bps`` win over ``_s``).
    _SUFFIXES: tuple[tuple[str, tuple[str, ...]], ...] = (
        ("_bytes_per_s", ("bytes/s", "bytes per second", "rate")),
        ("_per_s", ("per second", "/s", "rate")),
        ("_bps", ("bytes/s", "bytes per second", "bits per second",
                  "bps", "rate")),
        ("_bytes", ("byte",)),
        ("_joules", ("joule",)),
        ("_watts", ("watt",)),
        ("_seconds", ("second",)),
        ("_s", ("second",)),
        ("_w", ("watt",)),
        ("_j", ("joule",)),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            doc = ast.get_docstring(node) or ""
            doc_lower = doc.lower()
            args = [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
            for arg in args:
                if arg.arg in {"self", "cls"}:
                    continue
                tokens = self._tokens_for(arg.arg)
                if tokens is None:
                    continue
                if not doc:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"public function {node.name}() takes unit-suffixed "
                        f"parameter {arg.arg!r} but has no docstring",
                    )
                    break
                if not any(tok in doc_lower for tok in tokens):
                    yield ctx.finding(
                        node,
                        self.code,
                        f"{node.name}() docstring does not state the unit of "
                        f"{arg.arg!r} (expected a mention of "
                        f"{' / '.join(tokens[:2])})",
                    )

    def _tokens_for(self, name: str) -> Optional[tuple[str, ...]]:
        for suffix, tokens in self._SUFFIXES:
            if name.endswith(suffix):
                return tokens
        return None


class _DimensionalRule(Rule):
    """Shared machinery for RPL009–RPL012.

    The four dimensional rules are views over one flow-sensitive pass
    (:func:`repro.lint.dim.analyze`); the analysis runs once per module
    and is cached on the :class:`ModuleContext`, so selecting all four
    costs the same as selecting one.
    """

    packages = DIM_PACKAGES
    excluded = ("repro.units", "repro.lint")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for finding in self._dim_findings(ctx):
            if finding.code == self.code:
                yield ctx.finding(finding.node, finding.code, finding.message)

    @staticmethod
    def _dim_findings(ctx: ModuleContext) -> list[DimFinding]:
        cached = getattr(ctx, "_dim_findings", None)
        if cached is None:
            cached = analyze(ctx.tree, ctx.path, SummaryTable(ctx.path))
            ctx._dim_findings = cached  # type: ignore[attr-defined]
        return cached


@register
class MixedDimensionArithmetic(_DimensionalRule):
    """RPL009 — ``+``/``-``/``%``/comparison/``min``/``max`` over
    operands of different dimensions.

    ``Watts * Seconds`` is joules and composes fine; ``Watts +
    Seconds`` is a results bug. The day-fraction class lives here too:
    a provably dimensionless ratio (two durations divided, a seeded
    ``rng.uniform(0.2, 0.3)``) added to wall seconds flags, while bare
    numeric literals stay polymorphic (``t_s + 1.0`` is fine).
    """

    code = "RPL009"
    name = "mixed-dimension-arithmetic"
    summary = "additive arithmetic or comparison mixes dimensions"


@register
class DimensionChangingAssignment(_DimensionalRule):
    """RPL010 — assignment changes a unit-suffixed name's dimension.

    A name like ``duration_s`` or ``total_bytes`` (or one annotated
    with a :mod:`repro.units` alias) declares its dimension; binding
    it to a value of a different dimension — ``duration_s = size_bytes``
    — silently corrupts every downstream use.
    """

    code = "RPL010"
    name = "dimension-changing-assignment"
    summary = "assignment contradicts the dimension the name declares"


@register
class ArgumentDimensionMismatch(_DimensionalRule):
    """RPL011 — call-site argument dimension contradicts the callee.

    Callee contracts come from the interprocedural summary pass
    (annotations + unit suffixes over the whole tree, including
    dataclass constructors), so ``bdp_bytes(rtt_s, bandwidth)`` —
    swapped arguments, each individually well-formed — flags at the
    call site.
    """

    code = "RPL011"
    name = "argument-dimension-mismatch"
    summary = "argument dimension contradicts the callee's summary"


@register
class ReturnDimensionMismatch(_DimensionalRule):
    """RPL012 — return dimension contradicts the annotated alias.

    A function annotated ``-> Joules`` returning ``power_w`` (watts)
    breaks every caller that trusts the signature; the flow-sensitive
    pass checks each ``return`` against the declared alias.
    """

    code = "RPL012"
    name = "return-dimension-mismatch"
    summary = "return value dimension contradicts the annotated alias"
