"""Declarative analysis plans: attributes + tasks, no mechanism names.

The paper's central claim (Sections 1, 6.3, 8) is that an analyst should
state *what they want to know* — means, quantiles, range queries, whole
distributions — and let the system decide how to collect it. An
:class:`AnalysisPlan` is that statement: it names the attributes being
collected (domain, type, granularity) and the tasks to answer over them,
plus the total per-user privacy budget. Mechanism selection and budget
allocation happen later, in :mod:`repro.tasks.planner`; execution in
:mod:`repro.tasks.session`.

Plans are plain data: they serialize to/from JSON (and load from TOML), so
a deployment can check its collection contract into version control and
drive the CLI's ``analyze`` subcommand from the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.metrics.statistics import DECILES
from repro.utils.validation import check_domain_size, check_epsilon

__all__ = [
    "ATTRIBUTE_KINDS",
    "SPLIT_STRATEGIES",
    "AttributeSpec",
    "Task",
    "Distribution",
    "Mean",
    "Variance",
    "Quantiles",
    "RangeQueries",
    "Marginals",
    "task_from_dict",
    "AnalysisPlan",
    "load_plan",
]

#: Value types an attribute can declare. ``"discrete"`` routes to the
#: bucketize-before-randomize mechanisms (paper Section 5.4).
ATTRIBUTE_KINDS: tuple[str, ...] = ("continuous", "discrete")

#: How the planner spreads the budget over attributes: ``"population"``
#: assigns each user one attribute at full budget (parallel composition,
#: the Section 4.2 recommendation); ``"budget"`` has every user report
#: every attribute at a fraction of the budget (sequential composition).
SPLIT_STRATEGIES: tuple[str, ...] = ("population", "budget")


@dataclass(frozen=True)
class AttributeSpec:
    """One collected attribute: its name, domain, type, and granularity.

    ``low``/``high`` are the attribute's real-world bounds; estimators run
    on the normalized unit domain and results are mapped back. ``weight``
    biases the planner's budget/population split toward this attribute.
    """

    name: str
    low: float = 0.0
    high: float = 1.0
    d: int = 256
    kind: str = "continuous"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"attribute name must be a non-empty string, got {self.name!r}")
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
            raise ValueError(f"attribute {self.name!r}: domain bounds must be finite")
        if self.high <= self.low:
            raise ValueError(
                f"attribute {self.name!r}: need low < high, got [{self.low}, {self.high}]"
            )
        check_domain_size(self.d)
        if self.kind not in ATTRIBUTE_KINDS:
            raise ValueError(
                f"attribute {self.name!r}: kind must be one of {ATTRIBUTE_KINDS}, "
                f"got {self.kind!r}"
            )
        if not self.weight > 0:
            raise ValueError(f"attribute {self.name!r}: weight must be > 0")

    @property
    def span(self) -> float:
        return float(self.high - self.low)

    def check(self, values: np.ndarray) -> np.ndarray:
        """``values`` as float64; raises unless all are finite and inside
        ``[low, high]``."""
        arr = np.asarray(values, dtype=np.float64)
        # A NaN makes min and max NaN, which fails both comparisons; the
        # bounds are finite, so an infinity fails one. No temporary array.
        if arr.size and not (self.low <= arr.min() and arr.max() <= self.high):
            raise ValueError(
                f"attribute {self.name!r}: values must be finite and inside "
                f"[{self.low}, {self.high}]"
            )
        return arr

    def to_unit(self, values: np.ndarray) -> np.ndarray:
        """Map raw values from ``[low, high]`` onto the unit domain."""
        return (self.check(values) - self.low) / self.span

    def from_unit(self, positions) -> np.ndarray | float:
        """Map unit-domain positions back into ``[low, high]``."""
        return self.low + np.asarray(positions, dtype=np.float64) * self.span

    def bucket_edges(self, d: int | None = None) -> np.ndarray:
        """Edges of ``d`` equal-width buckets over the real-world domain."""
        return np.linspace(self.low, self.high, (d or self.d) + 1)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "low": float(self.low),
            "high": float(self.high),
            "d": int(self.d),
            "kind": self.kind,
            "weight": float(self.weight),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttributeSpec":
        return _construct(cls, data)


def _construct(cls, data: dict):
    """Build a plan component, turning unknown/misnamed keys into ValueError.

    Plan files are hand-written; a typo'd key must surface as the CLI's
    clean ``error:`` path (which catches ``ValueError``), not a traceback.
    """
    try:
        return cls(**data)
    except TypeError as exc:
        raise ValueError(f"invalid {cls.__name__} entry: {exc}") from None


@dataclass(frozen=True)
class Task:
    """Base class for analysis tasks; subclasses name one or more attributes."""

    #: Wire/task-type name; subclasses override.
    task: ClassVar[str] = ""

    #: Registry metrics the serving mechanism must support (capability check).
    metrics: ClassVar[tuple[str, ...]] = ()

    @property
    def attributes(self) -> tuple[str, ...]:
        raise NotImplementedError

    @property
    def key(self) -> str:
        """Stable lookup key for this task's result: ``"task:attr[+attr]"``."""
        return f"{self.task}:{'+'.join(self.attributes)}"

    def to_dict(self) -> dict:
        data = {"task": self.task}
        for f in fields(self):
            if f.init:
                value = getattr(self, f.name)
                data[f.name] = list(value) if isinstance(value, tuple) else value
        return data


@dataclass(frozen=True)
class _SingleAttributeTask(Task):
    attribute: str = ""

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ValueError(f"{type(self).__name__} needs an attribute name")

    @property
    def attributes(self) -> tuple[str, ...]:
        return (self.attribute,)


@dataclass(frozen=True)
class Distribution(_SingleAttributeTask):
    """Reconstruct the attribute's full distribution (the paper's headline)."""

    task = "distribution"
    metrics = ("w1",)


@dataclass(frozen=True)
class Mean(_SingleAttributeTask):
    """Estimate the attribute's mean."""

    task = "mean"
    metrics = ("mean",)


@dataclass(frozen=True)
class Variance(_SingleAttributeTask):
    """Estimate the attribute's variance."""

    task = "variance"
    metrics = ("variance",)


@dataclass(frozen=True)
class Quantiles(_SingleAttributeTask):
    """Estimate a set of quantiles (defaults to the paper's deciles)."""

    task = "quantiles"
    metrics = ("quantile",)

    quantiles: tuple[float, ...] = DECILES

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "quantiles", tuple(float(q) for q in self.quantiles))
        if not self.quantiles:
            raise ValueError("quantiles must be non-empty")
        if any(not 0.0 <= q <= 1.0 for q in self.quantiles):
            raise ValueError(f"quantiles must lie in [0, 1], got {self.quantiles}")


@dataclass(frozen=True)
class RangeQueries(_SingleAttributeTask):
    """Estimate the mass inside ``(low, high)`` windows of the real domain."""

    task = "range_queries"
    metrics = ("range-0.1",)

    windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self,
            "windows",
            tuple((float(lo), float(hi)) for lo, hi in self.windows),
        )
        if not self.windows:
            raise ValueError("windows must be non-empty")
        for lo, hi in self.windows:
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
                raise ValueError(f"window endpoints must satisfy low <= high, got ({lo}, {hi})")

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "attribute": self.attribute,
            "windows": [list(w) for w in self.windows],
        }


@dataclass(frozen=True)
class Marginals(Task):
    """Reconstruct every named attribute's marginal distribution together."""

    task = "marginals"
    metrics = ("w1",)

    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if len(self.names) < 2:
            raise ValueError("Marginals needs at least two attribute names")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"Marginals attribute names must be unique, got {self.names}")

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.names


#: Task-type registry for deserialization; keys are wire names.
TASK_TYPES: dict[str, type] = {
    cls.task: cls
    for cls in (Distribution, Mean, Variance, Quantiles, RangeQueries, Marginals)
}


def task_from_dict(data: dict) -> Task:
    """Rebuild a task from :meth:`Task.to_dict` output (or a plan file)."""
    data = dict(data)
    name = data.pop("task", None)
    try:
        cls = TASK_TYPES[name]
    except KeyError:
        raise ValueError(
            f"unknown task type {name!r}; known: {sorted(TASK_TYPES)}"
        ) from None
    if cls is RangeQueries and "windows" in data:
        data["windows"] = tuple(tuple(w) for w in data["windows"])
    if cls is Marginals and "names" in data:
        data["names"] = tuple(data["names"])
    if cls is Quantiles and "quantiles" in data:
        data["quantiles"] = tuple(data["quantiles"])
    return _construct(cls, data)


@dataclass(frozen=True)
class AnalysisPlan:
    """A declarative collection contract: budget, attributes, tasks.

    Parameters
    ----------
    epsilon:
        Total per-user privacy budget for the whole plan.
    attributes:
        The attributes being collected; every one must be referenced by at
        least one task (an unreferenced attribute would silently waste
        budget).
    tasks:
        What to answer; each task references declared attributes.
    split:
        Budget strategy over attributes (see :data:`SPLIT_STRATEGIES`).
    """

    epsilon: float
    attributes: tuple[AttributeSpec, ...]
    tasks: tuple[Task, ...]
    split: str = "population"

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.attributes:
            raise ValueError("plan must declare at least one attribute")
        if not self.tasks:
            raise ValueError("plan must declare at least one task")
        if self.split not in SPLIT_STRATEGIES:
            raise ValueError(
                f"split must be one of {SPLIT_STRATEGIES}, got {self.split!r}"
            )
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"attribute names must be unique, got {names}")
        known = set(names)
        referenced: set[str] = set()
        keys: set[str] = set()
        for task in self.tasks:
            if task.key in keys:
                raise ValueError(f"duplicate task {task.key!r} in plan")
            keys.add(task.key)
            for attr in task.attributes:
                if attr not in known:
                    raise ValueError(
                        f"task {task.key!r} references unknown attribute {attr!r}; "
                        f"declared: {sorted(known)}"
                    )
                referenced.add(attr)
            if isinstance(task, RangeQueries):
                spec = self.attribute(task.attribute)
                for lo, hi in task.windows:
                    if lo < spec.low or hi > spec.high:
                        raise ValueError(
                            f"task {task.key!r}: window ({lo}, {hi}) outside the "
                            f"attribute domain [{spec.low}, {spec.high}]"
                        )
        unused = known - referenced
        if unused:
            raise ValueError(
                f"attributes {sorted(unused)} are declared but no task uses them"
            )

    def attribute(self, name: str) -> AttributeSpec:
        """Look up one declared attribute by name."""
        for spec in self.attributes:
            if spec.name == name:
                return spec
        raise ValueError(
            f"unknown attribute {name!r}; declared: {[a.name for a in self.attributes]}"
        )

    def tasks_for(self, name: str) -> tuple[Task, ...]:
        """Every task that touches the named attribute."""
        return tuple(t for t in self.tasks if name in t.attributes)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "split": self.split,
            "attributes": [a.to_dict() for a in self.attributes],
            "tasks": [t.to_dict() for t in self.tasks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisPlan":
        if not isinstance(data, dict):
            raise ValueError(
                f"plan must be a JSON/TOML object, got {type(data).__name__}"
            )
        try:
            return cls(
                epsilon=float(data["epsilon"]),
                attributes=tuple(
                    AttributeSpec.from_dict(a) for a in data["attributes"]
                ),
                tasks=tuple(task_from_dict(t) for t in data["tasks"]),
                split=data.get("split", "population"),
            )
        except KeyError as exc:
            raise ValueError(f"plan is missing required key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed plan: {exc}") from None

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisPlan":
        return cls.from_dict(json.loads(text))


def load_plan(path: str | Path) -> AnalysisPlan:
    """Load a plan file: ``.json`` (any Python) or ``.toml`` (3.11+)."""
    path = Path(path)
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python < 3.11 only
            raise ValueError(
                f"{path}: TOML plans need Python >= 3.11 (tomllib); "
                "use a JSON plan instead"
            ) from None
        with path.open("rb") as handle:
            return AnalysisPlan.from_dict(tomllib.load(handle))
    return AnalysisPlan.from_json(path.read_text())
