"""Design matrices and their canonical coordinates: the set-up path.

A design enters as an n x p matrix (load_design reads one from a comma- or
whitespace-separated table) and is reduced to d x p canonical coordinates,
d = rank (canonicalize); everything downstream runs on the canonical
design. Model universes, the subset-lattice walk and the direction streams
live in posikit.lattice. This module does not import it, so reading and
reducing a design compiles only ingestion; the lattice's public names still
resolve here, loading it on first access (PEP 562).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import DataError, InfeasibleError

if TYPE_CHECKING:
    from .lattice import ModelId

DEFAULT_RANK_TOLERANCE = 1e-10

UPPER_TRIANGULAR = "upper_triangular"
SYMMETRIC = "symmetric"
UNSPECIFIED = "unspecified"

# The public names this module forwards to posikit.lattice, which defines them.
_LATTICE_NAMES = frozenset((
    "Direction", "DirectionSet", "LevelBatch", "ModelId", "ModelUniverse",
    "adjusted_predictor", "direction_stream", "enumerate_models", "vif",
))


def __getattr__(name: str):
    if name in _LATTICE_NAMES:
        from . import lattice

        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Frozen:
    """Fields set once, by __init__ through vars(self); assigning or deleting
    one afterwards raises AttributeError. Equality and hashing are by
    identity."""

    _repr_fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{type(self).__name__}({fields})"


def _check_rank_tolerance(rank_tolerance: float):
    """Both design classes take a rank tolerance only when it is finite and
    at least 0: NaN, for one, would pass a sign test and then make no model
    rank deficient."""
    if not 0.0 <= rank_tolerance < np.inf:
        raise ValueError(
            f"rank_tolerance must be nonnegative and finite, got {rank_tolerance!r}")


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------


class DesignMatrix(_Frozen):
    """Raw n x p predictor matrix with rank metadata (``singular_values``)."""

    _repr_fields = ("values", "column_names", "rank_tolerance")

    def __init__(self, values: np.ndarray, column_names: Sequence[str],
                 rank_tolerance: float = DEFAULT_RANK_TOLERANCE):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError("design must be a 2-d matrix with n >= 1, p >= 1")
        if not np.all(np.isfinite(values)):
            raise DataError("design contains non-finite entries")
        if len(column_names) != values.shape[1]:
            raise ValueError("column_names length must match the column count")
        _check_rank_tolerance(rank_tolerance)
        vars(self).update(values=values, column_names=tuple(column_names),
                          rank_tolerance=rank_tolerance,
                          singular_values=np.linalg.svd(values, compute_uv=False))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def rank(self) -> int:
        svals = self.singular_values
        if svals[0] == 0.0:
            raise DataError("design is the zero matrix")
        return int(np.sum(svals > self.rank_tolerance * svals[0]))


def _cells(text: str) -> list[str]:
    """The cells of a line or a comma list: split on commas and whitespace,
    so empty cells vanish."""
    return text.replace(",", " ").split()


def _text_rows(source, what: str) -> Iterator[tuple[int, list[str]]]:
    """The 1-based line number and the cells of every line of a path or text
    stream that is not blank and does not start with '#'.

    Every text input (designs, response and mean vectors, model lists) is
    read here: UTF-8 with an optional byte-order mark, cells as _cells splits
    them. A path that cannot be read or decoded is a DataError naming
    ``what``.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {what} {source!r}: {exc}") from exc
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, _cells(stripped)


def load_design(
    source,
    header: bool = False,
    intercept: bool = False,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> DesignMatrix:
    """Read a numeric table (comma- or whitespace-separated) as a design.

    ``source`` may be a path or a text stream, read as _text_rows reads it.
    With ``header`` the first line read supplies column names; otherwise
    names are synthesized as x1..xp. With ``intercept`` a constant column is
    prepended.
    """
    rows: list[list[float]] = []
    names: tuple[str, ...] | None = None
    for lineno, cells in _text_rows(source, "design"):
        if names is None and header:
            names = tuple(cells)
            continue
        row = []
        for colno, tok in enumerate(cells, start=1):
            try:
                row.append(float(tok))
            except ValueError:
                raise DataError(
                    f"non-numeric cell {tok!r} at row {lineno}, column {colno}"
                ) from None
        if rows and len(row) != len(rows[0]):
            raise DataError(
                f"ragged table: row {lineno} has {len(row)} cells, expected {len(rows[0])}"
            )
        rows.append(row)

    if not rows:
        raise DataError("empty table")
    values = np.array(rows, dtype=float)
    if names is not None and len(names) != values.shape[1]:
        raise DataError(
            f"header names {len(names)} do not match {values.shape[1]} data columns"
        )
    if names is None:
        names = tuple(f"x{j}" for j in range(1, values.shape[1] + 1))
    if intercept:
        values = np.hstack([np.ones((values.shape[0], 1)), values])
        names = ("intercept",) + names
    return DesignMatrix(values=values, column_names=names, rank_tolerance=rank_tolerance)


# ---------------------------------------------------------------------------
# Canonical coordinates
# ---------------------------------------------------------------------------


class CanonicalDesign(_Frozen):
    """d x p design in an orthonormal basis of the original column space.

    ``basis`` is the n x d matrix Q with orthonormal columns used in the
    reduction, so values = Q.T @ X and the Gram matrix is preserved.
    ``rank_limits`` holds tau * ||x_j|| for each column, with tau the rank
    tolerance: the thresholds of the rank rule (see lattice._level_batches).
    """

    _repr_fields = ("values", "basis", "form", "column_names", "rank_tolerance")

    def __init__(self, values: np.ndarray, basis: np.ndarray, form: str,
                 column_names: Sequence[str],
                 rank_tolerance: float = DEFAULT_RANK_TOLERANCE):
        values = np.ascontiguousarray(np.asarray(values, dtype=float))
        basis = np.asarray(basis, dtype=float)
        if values.ndim != 2:
            raise ValueError("canonical values must be 2-d")
        if basis.shape != (basis.shape[0], values.shape[0]):
            raise ValueError("basis must be n x d for a d x p canonical matrix")
        if form not in (UPPER_TRIANGULAR, SYMMETRIC, UNSPECIFIED):
            raise ValueError(f"unknown canonical form {form!r}")
        _check_rank_tolerance(rank_tolerance)
        vars(self).update(values=values, basis=basis, form=form,
                          column_names=tuple(column_names), rank_tolerance=rank_tolerance,
                          rank_limits=rank_tolerance * np.linalg.norm(values, axis=0))

    @classmethod
    def from_canonical(
        cls,
        values: np.ndarray,
        form: str = UNSPECIFIED,
        column_names: Sequence[str] | None = None,
        rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
    ) -> "CanonicalDesign":
        """Wrap a matrix that is already expressed in canonical coordinates."""
        values = np.asarray(values, dtype=float)
        d = values.shape[0]
        if column_names is None:
            column_names = tuple(f"x{j}" for j in range(1, values.shape[1] + 1))
        return cls(
            values=values,
            basis=np.eye(d),
            form=form,
            column_names=tuple(column_names),
            rank_tolerance=rank_tolerance,
        )

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def gram(self) -> np.ndarray:
        return self.values.T @ self.values

    def column(self, j: int) -> np.ndarray:
        """Column of the canonical matrix for 1-based predictor index j."""
        if not 1 <= j <= self.p:
            raise ValueError(f"predictor index {j} out of range 1..{self.p}")
        return self.values[:, j - 1]

    def reduce_response(self, y: np.ndarray) -> np.ndarray:
        """Map an n-vector into canonical coordinates via the stored basis."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.basis.shape[0],):
            raise DataError(
                f"response length {y.shape} does not match design rows {self.basis.shape[0]}"
            )
        return self.basis.T @ y

    def submatrix(self, model: ModelId) -> np.ndarray:
        cols = [j - 1 for j in model.members]
        if cols and cols[-1] >= self.p:
            raise ValueError(f"model {model} references columns beyond p={self.p}")
        return self.values[:, cols]


def canonicalize(design: DesignMatrix, form: str = UPPER_TRIANGULAR) -> CanonicalDesign:
    """Reduce a design to d x p canonical coordinates.

    ``upper_triangular`` uses a QR factorization (rank-revealing with column
    pivoting when d < p, in which case the result is triangular only up to
    the pivot permutation). ``symmetric`` uses the SVD route and requires
    d = p.
    """
    X = design.values
    d = design.rank
    p = design.p
    if form == SYMMETRIC:
        if d != p:
            raise InfeasibleError(
                f"symmetric canonical form requires full column rank (d={d}, p={p})"
            )
        U, svals, Vt = np.linalg.svd(X, full_matrices=False)
        basis = U @ Vt
        values = (Vt.T * svals) @ Vt
        values = 0.5 * (values + values.T)
        return CanonicalDesign(values, basis, SYMMETRIC, design.column_names,
                               design.rank_tolerance)
    if form != UPPER_TRIANGULAR:
        raise ValueError(f"unknown canonical form {form!r}")

    if d == p:
        Q, R = np.linalg.qr(X)
        signs = np.sign(np.diag(R))
        signs[signs == 0] = 1.0
        Q = Q * signs
        values = signs[:, None] * R
    else:
        import scipy.linalg

        Q, R, _ = scipy.linalg.qr(X, mode="economic", pivoting=True)
        signs = np.sign(np.diag(R)[:d])
        signs[signs == 0] = 1.0
        Q = Q[:, :d] * signs
        values = Q.T @ X
    return CanonicalDesign(values, Q, UPPER_TRIANGULAR, design.column_names,
                           design.rank_tolerance)
