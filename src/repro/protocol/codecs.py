"""Per-mechanism wire payload codecs (protocol v2).

Every estimator family produces a different report object — a float per
user for Square Wave, a category index for GRR and discrete SW, an
``(a, b, y)`` hash triple for OLH, a ``(row, bit)`` Hadamard coefficient for
HRR, per-level oracle bundles for the hierarchical estimators — yet the
collection service must carry all of them over one wire. A
:class:`PayloadCodec` closes that gap: it maps a mechanism's report batch to
and from a set of named, fixed-dtype *columns*, and a frame
(:mod:`repro.protocol.frames`) writes each column as one raw little-endian
buffer, so encoding and decoding a million reports is a handful of
``ndarray`` operations instead of a Python loop.

Codecs are registered by name, and every estimator instance names its
codec via the ``wire_codec`` attribute, so :func:`codec_for_estimator`
resolves the right one even for families whose payload type depends on
construction (CFO binning reports through GRR or OLH depending on the
chosen oracle).

Nothing privacy-relevant lives here — payloads are already randomized — but
decoding validates shapes and dtypes, so a corrupted feed fails loudly
instead of silently biasing the estimate.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

__all__ = [
    "PayloadCodec",
    "register_codec",
    "get_codec",
    "list_codecs",
    "codec_for_estimator",
]

#: Wire dtypes a codec column may use (little-endian, fixed width).
_WIRE_DTYPES = ("<f8", "<i8")


class PayloadCodec(abc.ABC):
    """Maps one mechanism family's report batches to/from wire columns.

    Subclasses declare ``name`` and ``columns`` — an ordered tuple of
    ``(column_name, dtype_str)`` pairs with dtypes from ``{"<f8", "<i8"}`` —
    and implement :meth:`to_columns` / :meth:`from_columns`.
    """

    #: Registry key; also what travels in a frame block's ``mech`` field.
    name: str = ""

    #: Ordered ``(name, dtype)`` column layout of one report batch.
    columns: tuple[tuple[str, str], ...] = ()

    @abc.abstractmethod
    def to_columns(self, reports: Any) -> dict[str, np.ndarray]:
        """Decompose a report batch into equal-length 1-d column arrays."""

    @abc.abstractmethod
    def from_columns(self, columns: dict[str, np.ndarray]) -> Any:
        """Rebuild the report batch a matching estimator's ``ingest`` takes."""

    def n_reports(self, reports: Any) -> int:
        """Number of users behind one report batch."""
        n = getattr(reports, "n", None)
        if n is not None:
            return int(n)
        return int(np.asarray(reports).shape[0])

    def _check_columns(self, columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Validate presence, dtype, and equal length of decoded columns."""
        out: dict[str, np.ndarray] = {}
        length: int | None = None
        for col_name, dtype in self.columns:
            if col_name not in columns:
                raise ValueError(
                    f"codec {self.name!r}: missing column {col_name!r}"
                )
            arr = np.asarray(columns[col_name])
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(
                    f"codec {self.name!r}: column {col_name!r} must be a "
                    f"non-empty 1-d array, got shape {arr.shape}"
                )
            if arr.dtype.kind not in "fiu":
                # A column of strings or objects must fail as ValueError,
                # not as astype's TypeError.
                raise ValueError(
                    f"codec {self.name!r}: column {col_name!r} carries "
                    f"non-numeric values"
                )
            # A column that already has its wire dtype passes through
            # uncopied: a decoded frame column is a view of the frame.
            if np.dtype(dtype).kind == "f":
                arr = arr.astype(np.float64, copy=False)
                if not np.isfinite(arr).all():
                    raise ValueError(
                        f"codec {self.name!r}: column {col_name!r} must be finite"
                    )
            else:
                if arr.dtype.kind == "f" and not np.equal(np.mod(arr, 1), 0).all():
                    raise ValueError(
                        f"codec {self.name!r}: column {col_name!r} must be integral"
                    )
                arr = arr.astype(np.int64, copy=False)
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ValueError(
                    f"codec {self.name!r}: columns have mismatched lengths"
                )
            out[col_name] = arr
        unknown = set(columns) - {name for name, _ in self.columns}
        if unknown:
            raise ValueError(
                f"codec {self.name!r}: unexpected columns {sorted(unknown)}"
            )
        return out

    def __repr__(self) -> str:
        layout = ", ".join(f"{n}:{d}" for n, d in self.columns)
        return f"{type(self).__name__}(name={self.name!r}, columns=[{layout}])"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_CODECS: dict[str, PayloadCodec] = {}


def register_codec(codec: PayloadCodec, *, overwrite: bool = False) -> PayloadCodec:
    """Register a codec instance under its ``name`` (third parties welcome)."""
    if not codec.name:
        raise ValueError("codec must declare a non-empty name")
    if not codec.columns:
        raise ValueError(f"codec {codec.name!r} must declare its columns")
    for col_name, dtype in codec.columns:
        if dtype not in _WIRE_DTYPES:
            raise ValueError(
                f"codec {codec.name!r} column {col_name!r}: dtype must be one "
                f"of {_WIRE_DTYPES}, got {dtype!r}"
            )
    if not overwrite and codec.name in _CODECS:
        raise ValueError(f"codec {codec.name!r} is already registered")
    _CODECS[codec.name] = codec
    return codec


def get_codec(name: str) -> PayloadCodec:
    """Look up a codec; raises ``ValueError`` for unknown names."""
    try:
        return _CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown payload codec {name!r}; registered: {sorted(_CODECS)}"
        ) from None


def list_codecs() -> list[PayloadCodec]:
    """All registered codecs, sorted by name."""
    return sorted(_CODECS.values(), key=lambda codec: codec.name)


def codec_for_estimator(estimator: Any) -> PayloadCodec:
    """The codec an estimator instance's reports travel under.

    Every built-in estimator names its codec via the ``wire_codec``
    attribute (a property where the payload type depends on construction,
    e.g. CFO binning). ``None`` means the family's reports have no wire
    form and shard state must travel via ``to_state()`` instead.
    """
    name = getattr(estimator, "wire_codec", None)
    if name is None:
        raise ValueError(
            f"{type(estimator).__name__} reports have no wire codec; "
            "ship shard state via to_state() instead"
        )
    return get_codec(name)


# ----------------------------------------------------------------------
# built-in codecs
# ----------------------------------------------------------------------


class FloatValueCodec(PayloadCodec):
    """One float per report: continuous SW and the scalar SR/PM mechanisms."""

    name = "float"
    columns = (("value", "<f8"),)

    def to_columns(self, reports: Any) -> dict[str, np.ndarray]:
        arr = np.asarray(reports, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("float reports must be a non-empty 1-d array")
        if not np.isfinite(arr).all():
            raise ValueError("float reports must be finite")
        return {"value": arr}

    def from_columns(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return self._check_columns(columns)["value"]


class CategoryCodec(PayloadCodec):
    """One category index per report: GRR and the discrete SW variant."""

    name = "category"
    columns = (("value", "<i8"),)

    def to_columns(self, reports: Any) -> dict[str, np.ndarray]:
        arr = np.asarray(reports)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("category reports must be a non-empty 1-d array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("category reports must be integers")
        return {"value": arr.astype(np.int64)}

    def from_columns(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return self._check_columns(columns)["value"]


class OLHCodec(PayloadCodec):
    """Per-report ``(a, b, y)``: OLH hash coefficients + perturbed hash."""

    name = "olh"
    columns = (("a", "<i8"), ("b", "<i8"), ("y", "<i8"))

    def to_columns(self, reports: Any) -> dict[str, np.ndarray]:
        from repro.freq_oracle.olh import OLHReports

        if not isinstance(reports, OLHReports):
            raise ValueError(
                f"olh codec expects OLHReports, got {type(reports).__name__}"
            )
        return {
            "a": reports.a.astype(np.int64),
            "b": reports.b.astype(np.int64),
            "y": reports.y.astype(np.int64),
        }

    def from_columns(self, columns: dict[str, np.ndarray]):
        from repro.freq_oracle.olh import OLHReports

        cols = self._check_columns(columns)
        return OLHReports(a=cols["a"], b=cols["b"], y=cols["y"])


class HRRCodec(PayloadCodec):
    """Per-report ``(row, bit)``: a perturbed Hadamard coefficient."""

    name = "hrr"
    columns = (("row", "<i8"), ("bit", "<i8"))

    def to_columns(self, reports: Any) -> dict[str, np.ndarray]:
        from repro.freq_oracle.hrr import HRRReports

        if not isinstance(reports, HRRReports):
            raise ValueError(
                f"hrr codec expects HRRReports, got {type(reports).__name__}"
            )
        return {
            "row": reports.row.astype(np.int64),
            "bit": reports.bit.astype(np.int64),
        }

    def from_columns(self, columns: dict[str, np.ndarray]):
        from repro.freq_oracle.hrr import HRRReports

        cols = self._check_columns(columns)
        if not np.isin(cols["bit"], (-1, 1)).all():
            raise ValueError("hrr codec: bit column must be -1 or +1")
        return HRRReports(row=cols["row"], bit=cols["bit"])


#: Oracle discriminants used by :class:`TreeCodec` rows.
_TREE_ORACLE_CATEGORY = 0
_TREE_ORACLE_OLH = 1
_TREE_ORACLE_HRR = 2


class TreeCodec(PayloadCodec):
    """Hierarchical reports (HH, HaarHRR): one level-tagged row per user.

    Each user reported at exactly one tree level through that level's
    oracle, so a row is ``(level, oracle, c0, c1, c2)`` — the oracle
    discriminant (0 = category/GRR, 1 = OLH, 2 = HRR) plus up to three
    generic integer coefficients (GRR uses ``c0``; HRR uses ``c0, c1``; OLH
    uses all three). Decoding regroups rows into the
    :class:`repro.hierarchy.hh.TreeReports` bundle ``ingest`` expects;
    levels must be oracle-homogeneous (they are by construction).
    """

    name = "tree"
    columns = (
        ("level", "<i8"),
        ("oracle", "<i8"),
        ("c0", "<i8"),
        ("c1", "<i8"),
        ("c2", "<i8"),
    )

    def to_columns(self, reports: Any) -> dict[str, np.ndarray]:
        from repro.freq_oracle.hrr import HRRReports
        from repro.freq_oracle.olh import OLHReports
        from repro.hierarchy.hh import TreeReports

        if not isinstance(reports, TreeReports):
            raise ValueError(
                f"tree codec expects TreeReports, got {type(reports).__name__}"
            )
        levels, oracles, c0s, c1s, c2s = [], [], [], [], []
        for level in sorted(reports.reports):
            batch = reports.reports[level]
            if isinstance(batch, OLHReports):
                kind, n = _TREE_ORACLE_OLH, batch.n
                c0, c1, c2 = batch.a, batch.b, batch.y
            elif isinstance(batch, HRRReports):
                kind, n = _TREE_ORACLE_HRR, batch.n
                c0, c1 = batch.row, batch.bit
                c2 = np.zeros(n, dtype=np.int64)
            else:
                arr = np.asarray(batch)
                if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
                    raise ValueError(
                        f"tree codec: level {level} carries unsupported "
                        f"reports of type {type(batch).__name__}"
                    )
                kind, n = _TREE_ORACLE_CATEGORY, arr.size
                c0 = arr.astype(np.int64)
                c1 = np.zeros(n, dtype=np.int64)
                c2 = np.zeros(n, dtype=np.int64)
            if n != reports.counts.get(level):
                raise ValueError(
                    f"tree codec: level {level} count mismatch "
                    f"({reports.counts.get(level)} != {n})"
                )
            levels.append(np.full(n, level, dtype=np.int64))
            oracles.append(np.full(n, kind, dtype=np.int64))
            c0s.append(np.asarray(c0, dtype=np.int64))
            c1s.append(np.asarray(c1, dtype=np.int64))
            c2s.append(np.asarray(c2, dtype=np.int64))
        if not levels:
            raise ValueError("tree codec: batch contains no reports")
        return {
            "level": np.concatenate(levels),
            "oracle": np.concatenate(oracles),
            "c0": np.concatenate(c0s),
            "c1": np.concatenate(c1s),
            "c2": np.concatenate(c2s),
        }

    def from_columns(self, columns: dict[str, np.ndarray]):
        from repro.freq_oracle.hrr import HRRReports
        from repro.freq_oracle.olh import OLHReports
        from repro.hierarchy.hh import TreeReports

        cols = self._check_columns(columns)
        level_col, oracle_col = cols["level"], cols["oracle"]
        reports: dict[int, Any] = {}
        counts: dict[int, int] = {}
        for level in np.unique(level_col):
            mask = level_col == level
            kinds = np.unique(oracle_col[mask])
            if kinds.size != 1:
                raise ValueError(
                    f"tree codec: level {int(level)} mixes oracle kinds"
                )
            kind = int(kinds[0])
            c0, c1, c2 = cols["c0"][mask], cols["c1"][mask], cols["c2"][mask]
            if kind == _TREE_ORACLE_CATEGORY:
                batch: Any = c0
            elif kind == _TREE_ORACLE_OLH:
                batch = OLHReports(a=c0, b=c1, y=c2)
            elif kind == _TREE_ORACLE_HRR:
                if not np.isin(c1, (-1, 1)).all():
                    raise ValueError(
                        "tree codec: HRR bit column must be -1 or +1"
                    )
                batch = HRRReports(row=c0, bit=c1)
            else:
                raise ValueError(f"tree codec: unknown oracle kind {kind}")
            reports[int(level)] = batch
            counts[int(level)] = int(mask.sum())
        return TreeReports(reports=reports, counts=counts)


register_codec(FloatValueCodec())
register_codec(CategoryCodec())
register_codec(OLHCodec())
register_codec(HRRCodec())
register_codec(TreeCodec())
