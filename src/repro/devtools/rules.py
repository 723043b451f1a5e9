"""The reprolint rule catalogue.

Every rule encodes one invariant the package's correctness or privacy story
actually rests on:

========  ============================================================
RNG001    No global-state randomness: ``np.random.<fn>`` module calls,
          stdlib ``random.<fn>``, and unseeded ``default_rng()`` outside
          ``utils/rng.py``. Bit-reproducible ``n_jobs`` sweeps depend on
          every draw flowing through ``repro.utils.rng.as_generator``.
PRIV001   Privacy taint: raw user-value parameters must pass through a
          ``privatize`` call before reaching a ``repro.protocol`` encode
          path. This is the eps-LDP boundary.
PRIV002   Every public constructor accepting ``epsilon``/``eps`` must
          validate positivity (``check_epsilon``) or delegate the value
          onward; silently stashing an unvalidated budget is how eps<=0
          reaches the channel math. Converting it (``float``, ``int``) or
          computing with it (``math``/``numpy`` calls) is not delegating.
NUM001    Float ``==``/``!=`` against float literals, unguarded
          ``np.log``-family calls, and division by count-like names
          without a positivity guard in scope.
NUM002    No dense-channel materialization (``transition_matrix``,
          ``.to_dense()``) inside the ``repro.engine`` solver/operator
          hot paths — the operator protocol exists precisely so these
          stay ``O(d * B)``.
SVC001    No blocking calls inside ``repro.service`` async handlers:
          ``time.sleep``, synchronous ``socket`` use, direct solve calls
          (``.estimate()``/``.report()``/``.advance_window()``/
          ``.window_estimate()``, ``estimate_rounds``/``solve_cached``), or
          JSON-lines decodes (``decode_feed_grouped``, ``decode_feed``,
          ``decode_any_feed``) on the event loop. Upload admission runs on
          the loop; work that costs in proportion to its input must be
          offloaded through ``run_in_executor``/``asyncio.to_thread``
          worker threads.
STATE001  Window maintenance must go through the sanctioned state
          arithmetic (``repro.api.subtract_state`` and
          ``subtract_payload``). Ad-hoc ``-``/``*``/``/`` arithmetic on
          state payloads outside ``repro.api``/``repro.streaming``
          silently skips the compatibility and shape checks that make
          window advance bit-identical to re-ingesting; no scaling of a
          state is sanctioned at all.
FT001     No silently swallowed failures in ``repro.service``: a bare
          ``except:`` / ``except Exception`` / ``except BaseException``
          handler must re-raise, reference the bound exception, or touch
          an accounting sink (error counters, ``stats()`` fields,
          loggers). The service's fault-tolerance contract is that every
          failure is either surfaced or *counted* — a ``pass`` handler
          in a drain loop is how lost reports become undetectable.
========  ============================================================

Rules that only make sense for production code (PRIV001, PRIV002, NUM001,
NUM002, SVC001, STATE001, FT001) skip test files; RNG001 applies
everywhere — a test that draws from global RNG state poisons
reproducibility just as surely. The name sets below that match the
package's own calls (encode sinks, sanitizers, validators, dense calls,
blocking solves, JSON-lines decodes, state calls) name only functions that
exist under ``src/repro``, and every rule has a mutation of a real source
file that it must flag; ``tests/devtools/test_meta.py`` checks both.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Sequence

from repro.devtools.analyzer import AnalyzedModule
from repro.devtools.findings import Finding

__all__ = ["RULES", "rule_catalog"]

# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------


def _last_name(node: ast.expr) -> str | None:
    """Trailing identifier of a call target: ``a.b.c(...)`` -> ``"c"``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.expr) -> str | None:
    """``self._n`` -> ``"self._n"``; ``x`` -> ``"x"``; else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _expr_names(node: ast.AST, *, bases: bool = True) -> set[str]:
    """Every dotted name appearing anywhere inside ``node``; with
    ``bases=False``, only those that are not the base of a longer one
    (``self.density``, not ``self``)."""
    skip = set() if bases else {
        id(sub.value) for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    }
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)) and id(sub) not in skip:
            dotted = _dotted(sub)
            if dotted is not None:
                out.add(dotted)
    return out


def _functions(tree: ast.AST) -> Iterable[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    params = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    if args.vararg is not None:
        params.append(args.vararg.arg)
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
    return params


class _ImportMap:
    """Where ``numpy``, ``numpy.random``, and stdlib ``random`` are bound."""

    def __init__(self, tree: ast.Module) -> None:
        self.numpy: set[str] = set()
        self.np_random: set[str] = set()
        self.np_random_names: dict[str, str] = {}
        self.stdlib_random: set[str] = set()
        self.stdlib_random_names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    if alias.name == "numpy":
                        self.numpy.add(local)
                    elif alias.name == "numpy.random":
                        if alias.asname is not None:
                            self.np_random.add(alias.asname)
                        else:
                            self.numpy.add("numpy")
                    elif alias.name == "random":
                        self.stdlib_random.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.np_random.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        self.np_random_names[alias.asname or alias.name] = alias.name
                elif node.module == "random":
                    for alias in node.names:
                        self.stdlib_random_names[alias.asname or alias.name] = alias.name

    def resolve_random_call(self, func: ast.expr) -> tuple[str, str] | None:
        """Classify a call target as ``("numpy"|"stdlib", fn_name)``."""
        if isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in self.numpy
            ):
                return ("numpy", func.attr)
            if isinstance(value, ast.Name):
                if value.id in self.np_random:
                    return ("numpy", func.attr)
                if value.id in self.stdlib_random:
                    return ("stdlib", func.attr)
        elif isinstance(func, ast.Name):
            if func.id in self.np_random_names:
                return ("numpy", self.np_random_names[func.id])
            if func.id in self.stdlib_random_names:
                return ("stdlib", self.stdlib_random_names[func.id])
        return None


# ----------------------------------------------------------------------
# RNG001
# ----------------------------------------------------------------------

#: numpy.random members that do not touch global RNG state.
_SAFE_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


class RngRule:
    """RNG001 — all randomness flows through ``repro.utils.rng``."""

    code = "RNG001"
    summary = (
        "no global-state randomness: np.random.<fn> module calls, stdlib "
        "random.<fn>, or unseeded default_rng() outside utils/rng.py"
    )

    def check_module(self, module: AnalyzedModule) -> list[Finding]:
        imports = _ImportMap(module.tree)
        is_rng_module = module.rel.endswith("utils/rng.py")
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_random_call(node.func)
            if resolved is None:
                continue
            origin, fn = resolved
            if origin == "stdlib":
                findings.append(
                    module.finding(
                        node,
                        self.code,
                        f"stdlib random.{fn}() draws from hidden global state; "
                        "use repro.utils.rng.as_generator and a numpy Generator",
                    )
                )
            elif fn == "default_rng":
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if unseeded and not node.keywords and not is_rng_module:
                    findings.append(
                        module.finding(
                            node,
                            self.code,
                            "unseeded default_rng() outside utils/rng.py breaks "
                            "bit-reproducible sweeps; accept an rng argument and "
                            "route it through repro.utils.rng.as_generator",
                        )
                    )
            elif fn not in _SAFE_NP_RANDOM:
                findings.append(
                    module.finding(
                        node,
                        self.code,
                        f"np.random.{fn}() mutates process-global RNG state; "
                        "draw from a Generator obtained via "
                        "repro.utils.rng.as_generator instead",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# PRIV001
# ----------------------------------------------------------------------

#: Parameter names treated as raw (pre-randomization) user data.
_RAW_PARAMS = frozenset(
    {"values", "value", "raw", "raw_values", "user_values", "true_values", "private_values"}
)

#: Calls that put a payload on the wire.
_ENCODE_SINKS = frozenset({"encode_batch_v2", "encode_frame", "encode_frame_blocks"})

#: Calls that launder raw values into eps-LDP reports.
_SANITIZERS = frozenset({"privatize"})


class PrivacyTaintRule:
    """PRIV001 — raw values are privatized before any protocol encode."""

    code = "PRIV001"
    summary = (
        "raw user-value parameters must pass through privatize() before "
        "reaching a repro.protocol encode path"
    )

    def check_module(self, module: AnalyzedModule) -> list[Finding]:
        if module.is_test:
            return []
        findings: list[Finding] = []
        for func in _functions(module.tree):
            findings.extend(self._check_function(module, func))
        return findings

    def _check_function(
        self,
        module: AnalyzedModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[Finding]:
        tainted = {name for name in _param_names(func) if name in _RAW_PARAMS}
        if not tainted:
            return []
        findings: list[Finding] = []

        def expr_tainted(node: ast.AST) -> bool:
            if isinstance(node, ast.Call) and _last_name(node.func) in _SANITIZERS:
                return False  # sanitized subtree
            if isinstance(node, ast.Name) and node.id in tainted:
                return True
            return any(expr_tainted(child) for child in ast.iter_child_nodes(node))

        def sanitizes(node: ast.AST) -> bool:
            return any(
                isinstance(sub, ast.Call) and _last_name(sub.func) in _SANITIZERS
                for sub in ast.walk(node)
            )

        def scan_expression(node: ast.AST) -> None:
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                if _last_name(sub.func) not in _ENCODE_SINKS:
                    continue
                arguments = list(sub.args) + [kw.value for kw in sub.keywords]
                for argument in arguments:
                    if expr_tainted(argument):
                        findings.append(
                            module.finding(
                                sub,
                                self.code,
                                f"raw values reach {_last_name(sub.func)}() without "
                                "an intervening privatize() call — "
                                "this would ship unrandomized user data",
                            )
                        )
                        break

        def apply_assignment(targets: Sequence[ast.expr], value: ast.expr | None) -> None:
            if value is None:
                return
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if sanitizes(value):
                    tainted.discard(target.id)
                elif expr_tainted(value):
                    tainted.add(target.id)
                else:
                    tainted.discard(target.id)

        def visit(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue  # nested scopes check their own parameters
                if isinstance(stmt, (ast.If, ast.While)):
                    scan_expression(stmt.test)
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    scan_expression(stmt.iter)
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        scan_expression(item.context_expr)
                    visit(stmt.body)
                elif isinstance(stmt, ast.Try):
                    visit(stmt.body)
                    for handler in stmt.handlers:
                        visit(handler.body)
                    visit(stmt.orelse)
                    visit(stmt.finalbody)
                else:
                    scan_expression(stmt)
                    if isinstance(stmt, ast.Assign):
                        apply_assignment(stmt.targets, stmt.value)
                    elif isinstance(stmt, ast.AnnAssign):
                        apply_assignment([stmt.target], stmt.value)

        visit(func.body)
        return findings


# ----------------------------------------------------------------------
# PRIV002
# ----------------------------------------------------------------------

_EPSILON_PARAMS = frozenset({"epsilon", "eps"})
_EPSILON_VALIDATORS = frozenset({"check_epsilon"})
#: Builtins and modules that only convert or compute with a budget: handing
#: it to them is not passing it on to code that validates it.
_NUMERIC_BUILTINS = frozenset({"float", "int"})
_NUMERIC_MODULES = frozenset({"math", "np", "numpy"})


def _is_numeric_call(func: ast.expr) -> bool:
    """``float(x)``, ``int(x)``, ``math.exp(x)``, ``np.log(x)``, ..."""
    dotted = _dotted(func) or ""
    return dotted in _NUMERIC_BUILTINS or dotted.partition(".")[0] in _NUMERIC_MODULES


class EpsilonValidationRule:
    """PRIV002 — public constructors validate (or delegate) their budget."""

    code = "PRIV002"
    summary = (
        "public constructors accepting epsilon/eps must validate positivity "
        "(check_epsilon) or delegate the value to another constructor; "
        "float()/int()/math/numpy calls do not delegate"
    )

    def check_module(self, module: AnalyzedModule) -> list[Finding]:
        if module.is_test:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for stmt in node.body:
                    if (
                        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name == "__init__"
                    ):
                        findings.extend(self._check_callable(module, stmt))
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
                and node.name != "__init__"
                and node.name not in _EPSILON_VALIDATORS
            ):
                findings.extend(self._check_callable(module, node))
        return findings

    def _check_callable(
        self,
        module: AnalyzedModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[Finding]:
        params = [name for name in _param_names(func) if name in _EPSILON_PARAMS]
        if not params:
            return []
        validated: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                if _last_name(node.func) in _EPSILON_VALIDATORS:
                    validated.update(params)
                    break
                if _is_numeric_call(node.func):
                    continue
                arguments = list(node.args) + [kw.value for kw in node.keywords]
                for argument in arguments:
                    if isinstance(argument, ast.Name) and argument.id in params:
                        validated.add(argument.id)  # delegated onward
            elif isinstance(node, ast.Compare):
                for side in [node.left, *node.comparators]:
                    if isinstance(side, ast.Name) and side.id in params:
                        validated.add(side.id)  # explicit guard
        missing = [name for name in params if name not in validated]
        if not missing:
            return []
        return [
            module.finding(
                func,
                self.code,
                f"{func.name}() accepts {missing[0]!r} but neither validates it "
                "(repro.utils.validation.check_epsilon) nor passes it on; an "
                "eps<=0 budget would silently reach the channel math",
            )
        ]


# ----------------------------------------------------------------------
# NUM001
# ----------------------------------------------------------------------

_LOG_FUNCTIONS = frozenset({"log", "log2", "log10"})
_GUARD_CALLS = frozenset({"maximum", "clip", "abs", "exp", "expm1", "fmax"})
#: Denominators that smell like report/batch counts. ``.size`` is excluded
#: (dividing by an array's size is the standard vectorized-mean idiom and the
#: arrays are validated non-empty at the API boundary), as are math-flavored
#: names like ``denominator`` — those are analytic expressions, not counts.
_COUNT_NAME = re.compile(r"^(n|counts?|total|n_\w+|_n)$")


def _contains_guard_call(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Call) and _last_name(sub.func) in _GUARD_CALLS
        for sub in ast.walk(node)
    )


class NumericsRule:
    """NUM001 — float equality and unguarded log/divide on counts."""

    code = "NUM001"
    summary = (
        "float ==/!= against float literals; np.log/division on counts "
        "without a positivity guard in the enclosing function"
    )

    def check_module(self, module: AnalyzedModule) -> list[Finding]:
        if module.is_test:
            return []
        findings: list[Finding] = []
        enclosing = self._enclosing_function_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                findings.extend(self._check_compare(module, node))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_log(module, node, enclosing.get(node)))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                findings.extend(self._check_divide(module, node, enclosing.get(node)))
        return findings

    @staticmethod
    def _enclosing_function_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
        """Map every node to its innermost enclosing function, if any."""
        out: dict[ast.AST, ast.AST] = {}

        def fill(scope: ast.AST, current: ast.AST | None) -> None:
            for child in ast.iter_child_nodes(scope):
                nxt = current
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nxt = child
                elif current is not None:
                    out[child] = current
                fill(child, nxt)

        fill(tree, None)
        return out

    def _check_compare(self, module: AnalyzedModule, node: ast.Compare) -> list[Finding]:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return []
        operands = [node.left, *node.comparators]
        if not any(
            isinstance(operand, ast.Constant) and isinstance(operand.value, float)
            for operand in operands
        ):
            return []
        return [
            module.finding(
                node,
                self.code,
                "exact ==/!= against a float literal; float round-off makes "
                "this branch unstable — compare with a tolerance "
                "(math.isclose/np.isclose) or restructure around an exact flag",
            )
        ]

    @staticmethod
    def _has_positivity_evidence(
        scope: ast.AST | None, names: set[str]
    ) -> bool:
        """Whether the enclosing function guards any of ``names``."""
        if scope is None or not names:
            return False
        for node in ast.walk(scope):
            if isinstance(node, ast.Compare) and names & _expr_names(node):
                return True
            if (
                isinstance(node, ast.Call)
                and _last_name(node.func) in _GUARD_CALLS | {"max", "min"}
                and names & _expr_names(node)
            ):
                return True
            if (
                isinstance(node, ast.Call)
                and (_last_name(node.func) or "").startswith("check_")
                and names & _expr_names(node)
            ):
                return True
        return False

    def _check_log(
        self, module: AnalyzedModule, node: ast.Call, scope: ast.AST | None
    ) -> list[Finding]:
        fn = _last_name(node.func)
        if fn not in _LOG_FUNCTIONS:
            return []
        if not isinstance(node.func, ast.Attribute):
            # Bare log()/log2() names are almost always math.log imports on
            # scalars already range-checked by the caller; only numpy
            # attribute calls are array-valued.
            return []
        base = node.func.value
        if not (isinstance(base, ast.Name) and base.id in ("np", "numpy")):
            return []
        if any(kw.arg == "where" for kw in node.keywords):
            return []
        if not node.args:
            return []
        argument = node.args[0]
        if (
            isinstance(argument, ast.Constant)
            and isinstance(argument.value, (int, float))
            and argument.value > 0
        ):
            return []
        if _contains_guard_call(argument):
            return []
        if self._has_positivity_evidence(scope, _expr_names(argument, bases=False)):
            return []
        return [
            module.finding(
                node,
                self.code,
                f"np.{fn}() without a positivity guard: zero cells produce "
                "-inf and RuntimeWarnings; mask with where=/out= or floor the "
                "argument (np.maximum) first",
            )
        ]

    def _check_divide(
        self, module: AnalyzedModule, node: ast.BinOp, scope: ast.AST | None
    ) -> list[Finding]:
        denominator = node.right
        dotted = _dotted(denominator)
        if dotted is None:
            return []
        last = dotted.rsplit(".", 1)[-1]
        if not _COUNT_NAME.match(last):
            return []
        if self._has_positivity_evidence(scope, {dotted, last}):
            return []
        return [
            module.finding(
                node,
                self.code,
                f"division by count-like {dotted!r} without a positivity guard "
                "in the enclosing function; an empty batch would divide by zero",
            )
        ]


# ----------------------------------------------------------------------
# NUM002
# ----------------------------------------------------------------------

_HOT_MODULES = ("engine/solver.py", "engine/operators.py")
_DENSE_CALLS = frozenset({"to_dense", "transition_matrix"})


class DenseMaterializationRule:
    """NUM002 — solver/operator hot paths never materialize dense channels."""

    code = "NUM002"
    summary = (
        "no dense-channel materialization (transition_matrix/.to_dense()) "
        "inside repro.engine solver/operator hot paths"
    )

    def check_module(self, module: AnalyzedModule) -> list[Finding]:
        if module.is_test or not module.rel.endswith(_HOT_MODULES):
            return []
        findings: list[Finding] = []
        allowed_scopes = self._dense_definition_spans(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = _last_name(node.func)
            if fn not in _DENSE_CALLS:
                continue
            if not isinstance(node.func, ast.Attribute):
                continue  # plain-name calls are local helpers, not channels
            if any(lo <= node.lineno <= hi for lo, hi in allowed_scopes):
                continue
            findings.append(
                module.finding(
                    node,
                    self.code,
                    f".{fn}() materializes an O(d_out * d) dense channel inside "
                    "an engine hot path; use the ChannelOperator matvec/rmatvec "
                    "protocol (DenseChannel exists for the fallback seam)",
                )
            )
        return findings

    @staticmethod
    def _dense_definition_spans(tree: ast.AST) -> list[tuple[int, int]]:
        """Line spans where dense materialization is the *point*.

        ``to_dense`` implementations, ``DenseChannel`` itself, and ``__repr__``
        diagnostics legitimately touch dense matrices.
        """
        spans: list[tuple[int, int]] = []
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and (node.name in ("to_dense", "__repr__") or "dense" in node.name)
            ) or (isinstance(node, ast.ClassDef) and node.name == "DenseChannel"):
                spans.append((node.lineno, node.end_lineno or node.lineno))
        return spans


# ----------------------------------------------------------------------
# SVC001
# ----------------------------------------------------------------------

#: Synchronous solve entry points — each can run a full EM reconstruction.
_BLOCKING_SOLVES = frozenset(
    {
        "estimate",
        "report",
        "advance_window",
        "window_estimate",
        "estimate_rounds",
        "solve_cached",
    }
)
#: The module-level batch solvers, which block under a bare name too.
_BATCH_SOLVES = frozenset({"estimate_rounds", "solve_cached"})
#: JSON-lines decoders: ~50 ms per MB, so never on the loop. Admission of
#: what they return (and frame header parsing) does run on the loop.
_JSONL_DECODES = frozenset({"decode_feed_grouped", "decode_feed", "decode_any_feed"})
#: Offload seams whose argument subtrees legitimately name blocking work.
_OFFLOAD_CALLS = frozenset({"run_in_executor", "to_thread"})


class AsyncBlockingRule:
    """SVC001 — ``repro.service`` async handlers never block the loop.

    The service's throughput story rests on the event loop doing only
    bounded work per request: parse the HTTP head, read a frame header,
    admit the upload, fold its decoded blocks, respond. Folding is work in
    proportion to the upload, but at a few milliseconds per MB and with
    ``max_body_bytes`` bounding the upload, it stays on the loop. One
    ``time.sleep``, one synchronous socket round-trip, one un-offloaded
    solve (``ShardedCollector.estimate()``/``advance_window()``/
    ``window_estimate()``, ``estimate_rounds``/``solve_cached``) or one
    JSON-lines decode (about 50 ms per MB) in a coroutine stalls *every*
    connection, and the loadgen's p99 shows it. Such work belongs on worker
    threads behind ``run_in_executor`` / ``asyncio.to_thread`` — calls
    inside those offload arguments (e.g. a lambda handed to an executor)
    are exempt, as is ``asyncio.sleep``.
    """

    code = "SVC001"
    summary = (
        "no blocking calls (time.sleep, sync socket use, direct "
        ".estimate()/.report()/.advance_window()/.window_estimate()/"
        "estimate_rounds/solve_cached solves, JSON-lines "
        "decodes) inside repro.service async handlers; offload via "
        "run_in_executor/to_thread worker threads"
    )

    def check_module(self, module: AnalyzedModule) -> list[Finding]:
        if module.is_test or "service/" not in module.rel:
            return []
        findings: list[Finding] = []
        for func in _functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            # Exempt spans: offload-call argument subtrees, and nested defs
            # — sync helpers defined inline are meant to run on an
            # executor, and nested *async* defs are visited on their own.
            skip = self._offloaded_spans(func) + [
                (nested.lineno, nested.end_lineno or nested.lineno)
                for nested in ast.walk(func)
                if isinstance(nested, (ast.FunctionDef, ast.AsyncFunctionDef))
                and nested is not func
            ]
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                if any(lo <= node.lineno <= hi for lo, hi in skip):
                    continue
                findings.extend(self._check_call(module, func, node))
        return findings

    @staticmethod
    def _offloaded_spans(
        func: ast.AsyncFunctionDef,
    ) -> list[tuple[int, int]]:
        """Line spans of run_in_executor/to_thread argument subtrees."""
        spans: list[tuple[int, int]] = []
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and _last_name(node.func) in _OFFLOAD_CALLS
            ):
                spans.append((node.lineno, node.end_lineno or node.lineno))
        return spans

    def _check_call(
        self,
        module: AnalyzedModule,
        func: ast.AsyncFunctionDef,
        node: ast.Call,
    ) -> list[Finding]:
        dotted = _dotted(node.func) or ""
        fn = _last_name(node.func)
        if dotted == "time.sleep":
            return [
                module.finding(
                    node,
                    self.code,
                    f"time.sleep() inside async {func.name}() stalls the "
                    "whole event loop; use await asyncio.sleep()",
                )
            ]
        if dotted.startswith("socket.") or dotted == "socket":
            return [
                module.finding(
                    node,
                    self.code,
                    f"synchronous socket call {dotted}() inside async "
                    f"{func.name}() blocks the event loop; use the asyncio "
                    "stream APIs (open_connection/start_server)",
                )
            ]
        if fn in _BLOCKING_SOLVES and (
            isinstance(node.func, ast.Attribute) or fn in _BATCH_SOLVES
        ):
            return [
                module.finding(
                    node,
                    self.code,
                    f"{fn}() can run a full merge + EM solve; calling it "
                    f"directly inside async {func.name}() blocks every "
                    "connection — offload it via loop.run_in_executor or "
                    "asyncio.to_thread",
                )
            ]
        if fn in _JSONL_DECODES:
            return [
                module.finding(
                    node,
                    self.code,
                    f"{fn}() decodes JSON lines at about 50 ms per MB; "
                    f"inside async {func.name}() it blocks every connection "
                    "— parse via loop.run_in_executor or asyncio.to_thread "
                    "and admit the parsed upload on the loop",
                )
            ]
        return []


# ----------------------------------------------------------------------
# STATE001
# ----------------------------------------------------------------------

#: Calls that produce or consume aggregation-state payloads.
_STATE_CALLS = frozenset({"_state", "to_state", "_load_state", "from_state"})
#: Identifiers that read as state payloads: ``state``, ``old_state``,
#: ``window_state`` ... but not ``statement`` or ``estate``.
_STATE_NAME = re.compile(r"(^|_)state$")
#: Directory segments where state arithmetic is sanctioned: the helpers
#: themselves (``repro.api.arithmetic``) and the window states built on
#: them (``repro.streaming``).
_STATE_SANCTIONED_SEGMENTS = frozenset({"api", "streaming"})


def _touches_state(node: ast.AST) -> bool:
    """Whether a subtree mentions a state payload (by call or by name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _last_name(sub.func) in _STATE_CALLS:
            return True
        if isinstance(sub, (ast.Name, ast.Attribute)):
            dotted = _dotted(sub)
            if dotted is not None and _STATE_NAME.search(
                dotted.rsplit(".", 1)[-1]
            ):
                return True
    return False


class StateArithmeticRule:
    """STATE001 — window math uses the sanctioned state helpers.

    ``repro.api.subtract_state`` (and the payload-level
    ``subtract_payload``) carry the compatibility checks — same family,
    same ``_params()``, mirrored payload shapes — that make sliding-window
    advance bit-identical to re-ingesting the window. A hand-rolled
    ``current - evicted`` elsewhere skips all of that, and a
    ``0.9 * state["n"]`` has no sanctioned form at all: both are exactly
    the kind of drift this rule exists to catch. ``repro/api/`` and
    ``repro/streaming/`` are exempt: they are where the sanctioned
    arithmetic lives.
    """

    code = "STATE001"
    summary = (
        "window state maintenance must use the sanctioned repro.api "
        "subtract_state helper; no ad-hoc -/*// arithmetic on state "
        "payloads outside repro.api/repro.streaming"
    )

    _FLAGGED_OPS = (ast.Sub, ast.Mult, ast.Div)

    def check_module(self, module: AnalyzedModule) -> list[Finding]:
        if module.is_test:
            return []
        if _STATE_SANCTIONED_SEGMENTS & set(module.rel.split("/")[:-1]):
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, self._FLAGGED_OPS
            ):
                if _touches_state(node.left) or _touches_state(node.right):
                    findings.append(self._finding(module, node, node.op))
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, self._FLAGGED_OPS
            ):
                if _touches_state(node.target) or _touches_state(node.value):
                    findings.append(self._finding(module, node, node.op))
        return findings

    def _finding(
        self, module: AnalyzedModule, node: ast.AST, op: ast.operator
    ) -> Finding:
        symbol = {"Sub": "-", "Mult": "*", "Div": "/"}[type(op).__name__]
        return module.finding(
            node,
            self.code,
            f"ad-hoc '{symbol}' arithmetic on a state payload bypasses the "
            "compatibility/shape checks of the sanctioned helpers; use "
            "repro.api.subtract_state (or the payload-level "
            "subtract_payload)",
        )


# ----------------------------------------------------------------------
# FT001
# ----------------------------------------------------------------------

#: Exception names broad enough that a silent handler hides real faults.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})
#: Identifier tokens that count as "the failure was accounted for":
#: error counters, stats fields, loggers. A handler that touches any of
#: these is surfacing the fault, not swallowing it.
_ACCOUNTING_TOKENS = frozenset(
    {
        "error",
        "errors",
        "counter",
        "counters",
        "stats",
        "failed",
        "failures",
        "log",
        "logger",
        "warn",
        "warning",
    }
)


class SwallowedFaultRule:
    """FT001 — no silently swallowed failures in ``repro.service``.

    The fault-tolerance contract is that every failure is either
    re-raised or *counted*: a drain loop's ``except Exception: pass``
    turns lost reports into an undetectable accuracy bug — the journal
    replays them, the counters never saw them, and recovery "succeeds"
    with the wrong answer. A broad handler (bare ``except:``,
    ``except Exception``, ``except BaseException``, or a tuple
    containing one) passes only if its body re-raises, references the
    bound exception (it is being recorded or wrapped), or touches an
    accounting sink — error counters, ``stats``-shaped fields, loggers.
    Narrow handlers (``except queue.Full`` etc.) are out of scope: they
    name the exact condition being absorbed.
    """

    code = "FT001"
    summary = (
        "broad except handlers in repro.service must re-raise, use the "
        "bound exception, or update failure accounting (error counters/"
        "stats/logging) — never silently swallow"
    )

    def check_module(self, module: AnalyzedModule) -> list[Finding]:
        if module.is_test or "service/" not in module.rel:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._accounts_for_failure(node):
                continue
            caught = "bare except" if node.type is None else (
                f"except {_dotted(node.type) or 'Exception'}"
            )
            findings.append(
                module.finding(
                    node,
                    self.code,
                    f"{caught} swallows the failure: re-raise it, record "
                    "the bound exception, or count it in an error/stats "
                    "sink so recovery and monitoring can see it",
                )
            )
        return findings

    @staticmethod
    def _is_broad(type_expr: ast.expr | None) -> bool:
        if type_expr is None:  # bare ``except:``
            return True
        exprs = (
            list(type_expr.elts)
            if isinstance(type_expr, ast.Tuple)
            else [type_expr]
        )
        return any(_last_name(expr) in _BROAD_EXCEPTIONS for expr in exprs)

    @staticmethod
    def _accounts_for_failure(handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for stmt in handler.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise):
                    return True
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    dotted = _dotted(sub)
                    if dotted is None:
                        continue
                    parts = dotted.replace(".", "_").split("_")
                    if bound is not None and bound in parts:
                        return True
                    if _ACCOUNTING_TOKENS & set(parts):
                        return True
        return False


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------

RULES: tuple[object, ...] = (
    RngRule(),
    PrivacyTaintRule(),
    EpsilonValidationRule(),
    NumericsRule(),
    DenseMaterializationRule(),
    AsyncBlockingRule(),
    StateArithmeticRule(),
    SwallowedFaultRule(),
)


def rule_catalog() -> list[tuple[str, str]]:
    """``(code, summary)`` pairs for ``--list-rules`` and the docs."""
    return [(rule.code, rule.summary) for rule in RULES]  # type: ignore[attr-defined]
