"""In-memory span recording around the program's layer functions.

The benchmark installs these wrappers from outside: nothing in the program
changes. Each span is ``(span_id, parent_id, name, start_ns, end_ns,
correlation_id, thread_name, extra)``. Synchronous spans nest through a
per-thread stack, so a span's parent is whatever traced call is running
below it on the same thread, and it inherits that parent's correlation id
unless it names its own. Coroutine spans (the HTTP handlers) interleave on
the event loop, so they are recorded detached: no parent, no children.

Wrappers patch every binding a caller actually looks up: a class attribute
for methods, and each module that imported a function by name. A layer
function the program no longer has is left out, and a hook that no longer
fits its arguments or result records nothing, so a program change never
fails the program's own calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_now = time.perf_counter_ns


def _hook(fn: Callable[..., Any] | None, *args, **kwargs) -> Any:
    """Run a span hook; one that no longer fits the program's API returns ``None``."""
    if fn is None:
        return None
    try:
        return fn(*args, **kwargs)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _open(self, corr: str | None) -> tuple:
        """Push a span on this thread's stack; returns the token :meth:`_close` takes."""
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
            local.thread = threading.current_thread().name
        parent, parent_corr = stack[-1] if stack else (0, None)
        span_id = next(self._ids)
        if corr is None:
            corr = parent_corr
        stack.append((span_id, corr))
        return span_id, parent, corr, _now()

    def _close(self, token: tuple, name: str, extra: dict | None) -> None:
        end = _now()
        self._local.stack.pop()
        span_id, parent, corr, start = token
        self.spans.append((span_id, parent, name, start, end, corr, self._local.thread, extra))

    @contextmanager
    def span(self, name: str, corr: str | None = None) -> Iterator[dict]:
        """Record one synchronous span; the yielded dict becomes its ``extra``."""
        extra: dict = {}
        if not self.enabled:
            yield extra
            return
        token = self._open(corr)
        try:
            yield extra
        finally:
            self._close(token, name, extra or None)

    def record_detached(self, name: str, start: int, end: int, corr: str | None) -> None:
        if self.enabled:
            thread = threading.current_thread().name
            self.spans.append((next(self._ids), 0, name, start, end, corr, thread, None))

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Stop recording (e.g. around the benchmark's own output checks)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    # -- wrapper factories ---------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        corr: Callable[..., str | None] | None = None,
        before: Callable[..., Any] | None = None,
        after: Callable[..., dict | None] | None = None,
    ) -> Callable:
        """Trace a plain function, method, generator function or coroutine function.

        ``corr(*args, **kwargs)`` names the correlation id; ``before`` runs
        ahead of the call and its value reaches ``after(result, pre, *args,
        **kwargs)``, which returns extra fields for the span.
        """
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                start = _now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.record_detached(name, start, _now(), _hook(corr, *args, **kwargs))

            return traced_coroutine

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                pre = _hook(before, *args, **kwargs)
                return tracer._iterate(name, fn(*args, **kwargs), pre)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            pre = _hook(before, *args, **kwargs)
            token = tracer._open(_hook(corr, *args, **kwargs))
            extra = None
            try:
                result = fn(*args, **kwargs)
                extra = _hook(after, result, pre, *args, **kwargs)
                return result
            finally:
                tracer._close(token, name, extra)

        return traced

    def _iterate(self, name: str, gen: Iterator, pre: dict | None) -> Iterator:
        """Yield from ``gen``, recording each step as a span (``block`` marks a yield)."""
        extra = dict(pre or {})
        while True:
            if not self.enabled:
                yield from gen
                return
            token = self._open(None)
            try:
                item = next(gen)
            except StopIteration:
                self._close(token, name, extra or None)
                return
            except BaseException:
                self._close(token, name, extra or None)
                raise
            extra["block"] = 1
            self._close(token, name, extra)
            extra = {}
            yield item


# -- the program's layers ------------------------------------------------------


def _arg(index: int, key: str) -> Callable[..., Any]:
    def pick(*args, **kwargs):
        if key in kwargs:
            return kwargs[key]
        return args[index] if index < len(args) else None
    return pick


def _engine_after(result, _pre, *args, **kwargs) -> dict:
    return {
        "columns": int(result.estimates.shape[1]),
        "iters": int(result.iterations.sum()),
        "warm": kwargs.get("x0") is not None,
    }


def _journal_before(journal, *_args, **_kwargs) -> int:
    return journal._file.tell()


def _journal_after(offset, pre, *_args, **_kwargs) -> dict:
    return {"bytes": int(offset) - pre}


def _frames_before(source, *_args, **_kwargs) -> dict:
    return {"bytes": len(source)} if isinstance(source, (bytes, bytearray, memoryview)) else {}


def _headers_key(_self, _round_id, headers, _body) -> str | None:
    return headers.get("idempotency-key")


#: (module, attribute path, span name, extra hooks). Functions imported by
#: name elsewhere list every module holding a binding.
LAYERS: list[tuple[tuple[str, ...], str, str, dict]] = [
    (("repro.tasks.session",), "Session.privatize", "session.privatize", {}),
    (("repro.tasks.session",), "Session.to_feed", "session.to_feed", {}),
    (("repro.tasks.session",), "Session.results", "session.results", {}),
    (("repro.protocol.frames", "repro.protocol.server"), "decode_any_feed",
     "frames.decode_any_feed", {}),
    (("repro.protocol.frames", "repro.service.core"), "iter_frame_blocks",
     "frames.iter_frame_blocks", {"before": _frames_before}),
    (("repro.protocol.frames",), "FrameBlock.materialize", "frames.materialize", {}),
    (("repro.protocol.server",), "PlanServer.ingest_feed", "server.ingest_feed", {}),
    (("repro.protocol.server",), "PlanServer.report", "server.report", {}),
    (("repro.protocol.server",), "CollectionServer.estimate", "server.estimate", {}),
    (("repro.protocol.server", "repro.service.core"), "estimate_rounds",
     "server.estimate_rounds", {}),
    (("repro.engine.solver", "repro.engine", "repro.core.em"),
     "batched_expectation_maximization", "engine.solve", {"after": _engine_after}),
    (("repro.service.http",), "ReportService._handle_reports", "http.reports",
     {"corr": _headers_key}),
    (("repro.service.http",), "ReportService._handle_estimate", "http.estimate",
     {"corr": _arg(1, "round_id")}),
    (("repro.service.http",), "ReportService._handle_advance", "http.advance",
     {"corr": _arg(1, "round_id")}),
    (("repro.service.core",), "ShardedCollector.submit", "service.submit",
     {"corr": _arg(3, "key")}),
    (("repro.service.core",), "ShardedCollector.flush", "service.flush", {}),
    (("repro.service.core",), "ShardedCollector.estimate", "service.estimate",
     {"corr": _arg(1, "round_id")}),
    (("repro.service.core",), "ShardedCollector.advance_window", "service.advance_window",
     {"corr": _arg(1, "round_id")}),
    (("repro.service.core",), "ShardedCollector._merge_round", "service.merge_round", {}),
    (("repro.service.core",), "ShardedCollector.checkpoint", "service.checkpoint", {}),
    (("repro.service.core",), "ShardAggregator.enqueue", "service.enqueue", {}),
    # The shard worker's fold: FrameBlock.materialize plus the estimator ingest.
    (("repro.service.core",), "ShardAggregator._fold", "service.fold", {}),
    (("repro.service.core",), "ShardAggregator.snapshot", "service.snapshot", {}),
    (("repro.service.resilience",), "ShardJournal.append", "journal.append",
     {"before": _journal_before, "after": _journal_after}),
    (("repro.service.resilience",), "MetaJournal.commit", "journal.commit", {}),
    (("repro.service.sharding", "repro.service.core"), "merge_tree",
     "sharding.merge_tree", {}),
    (("repro.streaming.scheduler",), "StreamingCollector.tick", "streaming.tick", {}),
    (("repro.streaming.window",), "SlidingWindowState.push", "streaming.push", {}),
]


def _resolve(modules: tuple[str, ...], path: str) -> Callable | None:
    """The function a :data:`LAYERS` entry names, or ``None`` if the program no longer has it."""
    try:
        home = importlib.import_module(modules[0])
    except ImportError:
        return None
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(home, owner_name, None)
        return vars(owner).get(attr) if isinstance(owner, type) else None
    return getattr(home, attr, None)


def missing_layers() -> list[str]:
    """The spans of :data:`LAYERS` whose function the program no longer has."""
    return [name for modules, path, name, _ in LAYERS if _resolve(modules, path) is None]


def install(tracer: Tracer) -> None:
    """Wrap every layer function in :data:`LAYERS` that the program has."""
    # Import everything first: a module imported after a patch would bind the wrapper.
    for modules, *_ in LAYERS:
        for module_name in modules:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
    for modules, path, name, hooks in LAYERS:
        original = _resolve(modules, path)
        if original is None:
            continue
        traced = tracer.wrap(original, name, **hooks)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            setattr(getattr(sys.modules[modules[0]], owner_name), attr, traced)
            continue
        for module_name in modules:
            module = sys.modules.get(module_name)
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
