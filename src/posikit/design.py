"""Design matrices, canonical coordinates, model universes, and direction streams.

A design enters as an n x p matrix, is reduced to d x p canonical coordinates
(d = rank), and from there every submodel M and member predictor j yields an
adjusted predictor: the residual of column j regressed on the other columns of
M. The normalized adjusted predictors are the unit "directions" over which all
simultaneous max-|t| computations run. This module owns that pipeline and its
performance core: a level-wise enumeration that takes the models of one size
in blocks of up to 4 096 and reads every member's direction off the dual
design X_M (X_M'X_M)^-1 = R^-1 Q. A model of size k is its lexicographic
prefix of size k - 1 plus one larger member, so its factors Q and R^-1 come
from the prefix's by one Gram-Schmidt step with one re-orthogonalization,
vectorized over the block; the previous level's factors are held up to a byte
cap. Fits, adjusted_predictor and vif factor their models by the same steps,
bit for bit. Pairs come out by model size, then lexicographically by members,
then by predictor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, InfeasibleError

DEFAULT_RANK_TOLERANCE = 1e-10

# Dedup hashing grid: power of two so scaling is lossless in binary floating
# point, coarse enough that numerically-equal directions computed along
# different orthogonalization paths land in the same bucket.
_DEDUP_GRID_BITS = 20
_DEDUP_GRID = 2.0 ** -_DEDUP_GRID_BITS

UPPER_TRIANGULAR = "upper_triangular"
SYMMETRIC = "symmetric"
UNSPECIFIED = "unspecified"


# ---------------------------------------------------------------------------
# Model identifiers
# ---------------------------------------------------------------------------


class ModelId:
    """A nonempty submodel, stored as a bitmask over 1-based column indices."""

    __slots__ = ("_mask",)

    def __init__(self, members: Iterable[int]):
        mask = 0
        for j in members:
            if not isinstance(j, (int, np.integer)) or j < 1:
                raise ValueError(f"model members must be integers >= 1, got {j!r}")
            mask |= 1 << (int(j) - 1)
        if mask == 0:
            raise ValueError("a model must contain at least one predictor")
        self._mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "ModelId":
        if mask <= 0:
            raise ValueError("mask must be a positive integer")
        obj = cls.__new__(cls)
        obj._mask = mask
        return obj

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def members(self) -> tuple[int, ...]:
        out = []
        m = self._mask
        j = 1
        while m:
            if m & 1:
                out.append(j)
            m >>= 1
            j += 1
        return tuple(out)

    @property
    def size(self) -> int:
        return self._mask.bit_count()

    def __contains__(self, j: int) -> bool:
        return j >= 1 and bool(self._mask >> (j - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelId) and self._mask == other._mask

    def __lt__(self, other: "ModelId") -> bool:
        return self._mask < other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"ModelId({{{', '.join(map(str, self.members))}}})"


# ---------------------------------------------------------------------------
# Model universes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelUniverse:
    """Declarative family of candidate submodels, composable by intersection.

    Constraints are conjunctive; the default instance admits every nonempty
    subset. Rank filtering is not part of the universe: rank-deficient subsets
    are dropped during enumeration against a concrete design.
    """

    max_size: int | None = None
    min_size: int | None = None
    forced: tuple[int, ...] = ()
    nested: bool = False
    explicit_masks: frozenset[int] | None = None
    source: str | None = None

    def __post_init__(self):
        if self.max_size is not None and self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        if self.min_size is not None and self.min_size < 1:
            raise ValueError("min_size must be >= 1")
        if any(j < 1 for j in self.forced):
            raise ValueError("forced indices must be >= 1")
        object.__setattr__(self, "forced", tuple(sorted(set(self.forced))))

    # -- constructors ------------------------------------------------------

    @classmethod
    def all(cls) -> "ModelUniverse":
        return cls()

    @classmethod
    def of_max_size(cls, m: int) -> "ModelUniverse":
        return cls(max_size=m)

    @classmethod
    def of_min_size(cls, m: int) -> "ModelUniverse":
        return cls(min_size=m)

    @classmethod
    def forcing(cls, *indices: int) -> "ModelUniverse":
        return cls(forced=tuple(indices))

    @classmethod
    def nested_chain(cls) -> "ModelUniverse":
        return cls(nested=True)

    @classmethod
    def explicit(cls, models: Iterable[ModelId | Iterable[int]],
                 source: str | None = None) -> "ModelUniverse":
        masks = frozenset(
            (m if isinstance(m, ModelId) else ModelId(m)).mask for m in models
        )
        if not masks:
            raise ValueError("explicit universe needs at least one model")
        return cls(explicit_masks=masks, source=source)

    def __and__(self, other: "ModelUniverse") -> "ModelUniverse":
        max_size = min(
            (s for s in (self.max_size, other.max_size) if s is not None),
            default=None,
        )
        min_size = max(
            (s for s in (self.min_size, other.min_size) if s is not None),
            default=None,
        )
        if self.explicit_masks is None:
            explicit = other.explicit_masks
            source = other.source
        elif other.explicit_masks is None:
            explicit = self.explicit_masks
            source = self.source
        else:
            explicit = self.explicit_masks & other.explicit_masks
            source = None
        return ModelUniverse(
            max_size=max_size,
            min_size=min_size,
            forced=self.forced + other.forced,
            nested=self.nested or other.nested,
            explicit_masks=explicit,
            source=source,
        )

    # -- membership ----------------------------------------------------------

    @property
    def forced_mask(self) -> int:
        m = 0
        for j in self.forced:
            m |= 1 << (j - 1)
        return m

    def contains(self, model: ModelId) -> bool:
        """Constraint membership; does not look at the design's rank."""
        return self.admits(model.mask)

    def admits(self, mask: int) -> bool:
        """contains() for the model with this bitmask of 1-based columns."""
        size = mask.bit_count()
        if self.max_size is not None and size > self.max_size:
            return False
        if self.min_size is not None and size < self.min_size:
            return False
        if self.forced_mask & ~mask:
            return False
        if self.nested and mask != (1 << size) - 1:
            return False
        if self.explicit_masks is not None and mask not in self.explicit_masks:
            return False
        return True

    # -- spec strings --------------------------------------------------------

    def spec_string(self) -> str:
        parts = []
        if self.max_size is not None:
            parts.append(f"size<={self.max_size}")
        if self.min_size is not None:
            parts.append(f"size>={self.min_size}")
        if self.forced:
            parts.append("forced=" + ",".join(map(str, self.forced)))
        if self.nested:
            parts.append("nested")
        if self.explicit_masks is not None:
            if self.source is not None:
                parts.append(self.source)
            else:
                models = sorted(ModelId.from_mask(m) for m in self.explicit_masks)
                parts.append(
                    "models=" + ";".join(",".join(map(str, m.members)) for m in models)
                )
        return "&".join(parts) if parts else "all"

    @classmethod
    def from_spec(cls, text: str, p: int | None = None) -> "ModelUniverse":
        """Parse a universe spec such as ``size<=2&forced=1`` or ``all``.

        Supported terms: ``all``, ``size<=m``, ``size<m``, ``size>=m``,
        ``size>m`` (m may be an integer or ``p-K`` when p is given),
        ``forced=i,j,...``, ``nested``, ``file=PATH`` (one model per line,
        comma-separated 1-based indices), ``models=i,j;k,...``.
        """
        universe = cls.all()
        for raw in text.split("&"):
            term = raw.strip()
            if not term or term == "all":
                continue
            if term == "nested":
                universe = universe & cls.nested_chain()
            elif term.startswith("forced="):
                idx = [int(t) for t in term[len("forced="):].split(",") if t.strip()]
                universe = universe & cls.forcing(*idx)
            elif term.startswith("size"):
                universe = universe & _parse_size_term(term, p)
            elif term.startswith("file="):
                path = term[len("file="):]
                models = _read_model_list(path)
                universe = universe & cls.explicit(models, source=term)
            elif term.startswith("models="):
                groups = term[len("models="):].split(";")
                models = [ModelId(int(t) for t in g.split(",") if t.strip())
                          for g in groups if g.strip()]
                # No groups is the empty set, which spec_string writes for two
                # disjoint explicit universes intersected.
                masks = frozenset(m.mask for m in models)
                universe = universe & cls(explicit_masks=masks)
            else:
                raise ValueError(f"unrecognized universe term {term!r}")
        return universe


def _parse_size_term(term: str, p: int | None) -> ModelUniverse:
    body = term[len("size"):]
    for op in ("<=", ">=", "<", ">"):
        if body.startswith(op):
            bound = _parse_size_bound(body[len(op):], p)
            if op == "<=":
                return ModelUniverse.of_max_size(bound)
            if op == "<":
                return ModelUniverse.of_max_size(bound - 1)
            if op == ">=":
                return ModelUniverse.of_min_size(bound)
            return ModelUniverse.of_min_size(bound + 1)
    raise ValueError(f"unrecognized size constraint {term!r}")


def _parse_size_bound(text: str, p: int | None) -> int:
    text = text.strip()
    if text.startswith("p"):
        if p is None:
            raise ValueError("size bound uses 'p' but no design dimension is known")
        rest = text[1:].strip()
        if not rest:
            return p
        if rest.startswith("-"):
            return p - int(rest[1:])
        raise ValueError(f"unrecognized size bound {text!r}")
    return int(text)


def _read_model_list(path: str) -> list[ModelId]:
    models = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                models.append(ModelId(int(t) for t in line.replace(",", " ").split()))
    except OSError as exc:
        raise DataError(f"cannot read model list {path!r}: {exc}") from exc
    if not models:
        raise DataError(f"model list {path!r} is empty")
    return models


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignMatrix:
    """Raw n x p predictor matrix with rank metadata."""

    values: np.ndarray
    column_names: tuple[str, ...]
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE
    singular_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError("design must be a 2-d matrix with n >= 1, p >= 1")
        if not np.all(np.isfinite(values)):
            raise DataError("design contains non-finite entries")
        if len(self.column_names) != values.shape[1]:
            raise ValueError("column_names length must match the column count")
        if self.rank_tolerance < 0:
            raise ValueError("rank_tolerance must be nonnegative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        svals = np.linalg.svd(values, compute_uv=False)
        object.__setattr__(self, "singular_values", svals)

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


def load_design(
    source,
    header: bool = False,
    intercept: bool = False,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> DesignMatrix:
    """Read a numeric table (comma- or whitespace-separated) as a design.

    ``source`` may be a path or a text stream. With ``header`` the first
    nonblank line supplies column names; otherwise names are synthesized as
    x1..xp. With ``intercept`` a constant column is prepended.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read design {source!r}: {exc}") from exc

    rows: list[list[float]] = []
    names: tuple[str, ...] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = [t for t in stripped.replace(",", " ").split() if t]
        if names is None and header:
            names = tuple(tokens)
            continue
        row = []
        for colno, tok in enumerate(tokens, start=1):
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


@dataclass(frozen=True)
class CanonicalDesign:
    """d x p design in an orthonormal basis of the original column space.

    ``basis`` is the n x d matrix Q with orthonormal columns used in the
    reduction, so values = Q.T @ X and the Gram matrix is preserved.
    ``rank_limits`` holds tau * ||x_j|| for each column, with tau the rank
    tolerance: the thresholds of the rank rule (see _level_batches).
    """

    values: np.ndarray
    basis: np.ndarray
    form: str
    column_names: tuple[str, ...]
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE
    rank_limits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        basis = np.asarray(self.basis, dtype=float)
        if values.ndim != 2:
            raise ValueError("canonical values must be 2-d")
        if basis.shape != (basis.shape[0], values.shape[0]):
            raise ValueError("basis must be n x d for a d x p canonical matrix")
        if self.form not in (UPPER_TRIANGULAR, SYMMETRIC, UNSPECIFIED):
            raise ValueError(f"unknown canonical form {self.form!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "rank_limits",
                           self.rank_tolerance * np.linalg.norm(values, axis=0))

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


# ---------------------------------------------------------------------------
# Adjusted predictors and VIF
# ---------------------------------------------------------------------------


def adjusted_predictor(
    design: CanonicalDesign, model: ModelId, j: int
) -> tuple[np.ndarray, float]:
    """Residual of column j on the other columns of the submodel, plus its norm.

    The residual is the norm times the unit direction that the enumeration
    emits for the pair (j, M) (see _level_batches), so it is exactly what K
    is computed over. Raises DataError when the model has more than d
    columns, the others are rank deficient (the residual of some x_i against
    the members before it is at most tau ||x_i||, with tau the design's rank
    tolerance) or the residual is degenerate (norm <= tau ||x_j||), as the
    enumerator counts them.
    """
    if j not in model:
        raise ValueError(f"predictor {j} is not a member of {model}")
    members = np.array(model.members, dtype=np.intp) - 1
    if members[-1] >= design.p:
        raise ValueError(f"model {model} references columns beyond p={design.p}")
    if members.size > design.d:
        raise DataError(f"submodel {model} is rank deficient")
    at = model.members.index(j)
    counted, emitted, norm, vector = (a[0, at] for a in
                                      _models_pairs(design, members[None, :]))
    if not counted:
        raise DataError(f"submodel {model} is rank deficient")
    if not emitted:
        raise DataError(
            f"adjusted predictor {j} in {model} is numerically degenerate"
        )
    return float(norm) * vector, float(norm)


def vif(design: CanonicalDesign, model: ModelId, j: int) -> float:
    """Variance inflation ||x_j||^2 / ||x_{j.M}||^2 (centering is the caller's job)."""
    x = design.column(j)
    _, norm = adjusted_predictor(design, model, j)
    return float(np.dot(x, x)) / (norm * norm)


# ---------------------------------------------------------------------------
# Level-wise enumeration of (predictor, model) pairs
# ---------------------------------------------------------------------------

# Models per block: at d = 20 and 10 members, each of a block's (B, k, d)
# arrays (Q, the dual rows, the directions) takes 6.5 MB.
_LEVEL_BLOCK = 4096


@dataclass(frozen=True)
class Direction:
    """Unit-norm adjusted predictor with its (predictor, model) provenance."""

    vector: np.ndarray
    predictor: int
    model: ModelId
    raw_norm: float


@dataclass(frozen=True)
class LevelBatch:
    """Emitted pairs of one block of same-size models, in (model, predictor) order.

    ``masks`` holds the model masks (int64, or Python ints when p > 62),
    ``predictors`` the 1-based predictors, ``vectors`` the unit directions as
    rows and ``norms`` the adjusted-predictor norms. ``skips`` counts the
    block's degenerate pairs, which are not emitted.
    """

    masks: np.ndarray
    predictors: np.ndarray
    vectors: np.ndarray
    norms: np.ndarray
    skips: int = 0

    def keys(self) -> np.ndarray:
        """(n, 2) array of (model mask, predictor) rows."""
        return np.column_stack([self.masks, self.predictors])


def _model_plan(universe: ModelUniverse, p: int, max_size: int,
                predictor: int | None = None):
    """The forced members (the predictor among them) as ascending 0-based
    indices, and the model sizes to walk: from the universe's minimum, the
    forced count and, for a nested universe, the largest forced member, up
    to the universe's maximum capped at max_size. No sizes when a forced
    member lies beyond p."""
    forced = set(universe.forced) | ({predictor} if predictor is not None else set())
    lo = max(universe.min_size or 1, len(forced))
    if universe.nested:
        lo = max(lo, max(forced, default=1))
    hi = min(universe.max_size or p, max_size)
    if any(j > p for j in forced):
        hi = 0
    return np.array(sorted(forced), dtype=np.intp) - 1, range(lo, hi + 1)


def _explicit_levels(universe: ModelUniverse, p: int, forced_idx: np.ndarray,
                     sizes: range) -> Iterator[np.ndarray]:
    """The explicit universe's models of each size in turn, as (B, k) arrays
    of ascending 0-based members: those within 1..p that hold every forced
    member and, for a nested universe, are a prefix."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for mask in universe.explicit_masks:
        by_size.setdefault(mask.bit_count(), []).append(ModelId.from_mask(mask).members)
    for k in sizes:
        rows = np.array(by_size.get(k, []), dtype=np.intp).reshape(-1, k) - 1
        keep = (rows < p).all(axis=1)
        for j in forced_idx:
            keep &= (rows == j).any(axis=1)
        if universe.nested:
            keep &= (rows == np.arange(k)).all(axis=1)
        yield rows[keep]


def _model_blocks(universe: ModelUniverse, p: int, max_size: int,
                  predictor: int | None = None):
    """The universe's models of at most max_size columns among 1..p, as
    (B, k) arrays of ascending 0-based members: by size, then
    lexicographically, at most _LEVEL_BLOCK rows an array. With a predictor,
    only the models that contain it. Each array comes with the (B,) flags of
    the rows that are models, or None when all are: the levels of an
    explicit universe also hold the prefixes of its larger models (see
    _explicit_blocks)."""
    forced_idx, sizes = _model_plan(universe, p, max_size, predictor)
    if universe.explicit_masks is not None:
        yield from _explicit_blocks(universe, p, forced_idx, sizes)
        return
    if universe.nested:
        for k in sizes:
            yield np.arange(k)[None, :], None
        return
    others = np.setdiff1d(np.arange(p), forced_idx).tolist()
    for k in sizes:
        free = k - forced_idx.size
        if free == 0:
            yield forced_idx[None, :], None
            continue
        combos = itertools.combinations(others, free)
        while True:
            flat = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(combos, _LEVEL_BLOCK)),
                dtype=np.intp)
            if not flat.size:
                break
            rows = flat.reshape(-1, free)
            if forced_idx.size:
                rows = np.sort(np.hstack(
                    [rows, np.broadcast_to(forced_idx, (rows.shape[0], forced_idx.size))]),
                    axis=1)
            yield rows, None


def _explicit_blocks(universe: ModelUniverse, p: int, forced_idx: np.ndarray,
                     sizes: range):
    """_model_blocks of an explicit universe: every level from size 1 up to
    the largest model's, each with the prefixes of the larger models merged
    into its models in lexicographic order, so that every row's prefix lies
    one level down and the walk steps each level once from the one below."""
    levels = {rows.shape[1]: rows for rows in
              _explicit_levels(universe, p, forced_idx, sizes) if rows.size}
    merged = []
    above = np.empty((0, max(levels, default=0) + 1), dtype=np.intp)
    for k in range(above.shape[1] - 1, 0, -1):
        models = levels.get(k, np.empty((0, k), dtype=np.intp))
        rows = np.vstack([models, above[:, :k]])
        flags = np.arange(rows.shape[0]) < models.shape[0]
        # Sorted with a model ahead of the same rows as a prefix, then deduplicated.
        order = np.lexsort((~flags, *rows.T[::-1]))
        rows, flags = rows[order], flags[order]
        first = np.ones(rows.shape[0], dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        above = rows[first]
        merged.append((above, flags[first]))
    for rows, flags in reversed(merged):
        for start in range(0, rows.shape[0], _LEVEL_BLOCK):
            yield rows[start:start + _LEVEL_BLOCK], flags[start:start + _LEVEL_BLOCK]


def _candidate_pair_count(design: CanonicalDesign, universe: ModelUniverse,
                         predictor: int | None = None) -> int:
    """Number of (j, M) pairs the enumeration considers before the rank rule
    (see _level_batches): every member of each model _model_blocks yields
    for the design, or with a predictor one pair per model. On a design
    whose models of at most d columns are all full rank it is the count of
    directions plus degenerate skips. Counted, not walked."""
    forced_idx, sizes = _model_plan(universe, design.p, min(design.d, design.p),
                                    predictor)
    if universe.explicit_masks is not None:
        models = {rows.shape[1]: rows.shape[0] for rows in
                  _explicit_levels(universe, design.p, forced_idx, sizes)}
    elif universe.nested:
        models = dict.fromkeys(sizes, 1)
    else:
        free = design.p - forced_idx.size
        models = {k: math.comb(free, k - forced_idx.size) for k in sizes}
    return sum(n * (1 if predictor is not None else k) for k, n in models.items())


def _row_masks(rows: np.ndarray, p: int) -> np.ndarray:
    if p < 63:
        return (np.int64(1) << rows).sum(axis=1)
    return np.array([sum(1 << j for j in row) for row in rows.tolist()], dtype=object)


@dataclass(frozen=True)
class _Factors:
    """Factors of B models of k members each, by Gram-Schmidt over the
    members in order, X_M = Q'R: Q (B, k, d) orthonormal rows, Rinv (B, k, k)
    the upper triangular inverse of R, and reach (B,) the number of leading
    members whose residual against those before it clears the rank rule
    (see _level_batches). Past a model's reach the rows are finite filler.
    The rows of the dual design X_M (X_M'X_M)^-1 are those of Rinv Q."""

    Q: np.ndarray
    Rinv: np.ndarray
    reach: np.ndarray

    def take(self, index: np.ndarray) -> "_Factors":
        return _Factors(self.Q[index], self.Rinv[index], self.reach[index])


def _extend(design: CanonicalDesign, factors: _Factors, cols: np.ndarray) -> _Factors:
    """Each model's factors extended by one column x, cols (B,) 0-based: one
    classical Gram-Schmidt step with one re-orthogonalization against Q
    ("twice is enough") gives R's new column c = Qx and the residual r, so
    Q gains the row r/|r| and Rinv the column (-Rinv c/|r|, 1/|r|). Every
    kernel treats the models one by one, so a model's factors do not depend
    on its block."""
    Q, Rinv, reach = factors.Q, factors.Rinv, factors.reach
    B, k, d = Q.shape
    x = design.values.T[cols]
    r = x
    if k:
        c = np.vecdot(Q, x[:, None, :])
        r = x - np.matmul(c[:, None, :], Q)[:, 0]
        c2 = np.vecdot(Q, r[:, None, :])
        r -= np.matmul(c2[:, None, :], Q)[:, 0]
        c += c2
    norm = np.sqrt(np.vecdot(r, r))
    step = norm > design.rank_limits[cols]
    inverse = 1.0 / np.where(step, norm, 1.0)
    grown = _Factors(np.empty((B, k + 1, d)), np.zeros((B, k + 1, k + 1)),
                     reach + ((reach == k) & step))
    np.multiply(r, inverse[:, None], out=grown.Q[:, k])
    grown.Rinv[:, k, k] = inverse
    if k:
        grown.Q[:, :k] = Q
        grown.Rinv[:, :k, :k] = Rinv
        grown.Rinv[:, :k, k] = np.vecdot(Rinv, c[:, None, :]) * -inverse[:, None]
    return grown


class _HeldLevel:
    """The factors of one level's blocks in walk order, kept for the next
    level to extend while they fit a byte budget."""

    def __init__(self, k: int, budget: int):
        self.k = k
        self.budget = budget
        self.nbytes = 0
        self.blocks: list[_Factors] = []
        self._masks: list[np.ndarray] = []
        self._index = self._starts = None

    def keep(self, masks: np.ndarray, factors: _Factors):
        # The masks are held three times over: as kept, sorted and ordered.
        size = factors.Q.nbytes + factors.Rinv.nbytes + 3 * masks.nbytes
        if self.nbytes + size <= self.budget:
            self.blocks.append(factors)
            self._masks.append(masks)
            self.nbytes += size

    def find(self, masks: np.ndarray) -> np.ndarray:
        """Each model's index among the held ones (in walk order), or -1."""
        if self._index is None:
            held = np.concatenate(self._masks) if self._masks else np.empty(0, np.int64)
            order = np.argsort(held)
            self._index = held[order], order
            self._starts = np.cumsum([0] + [f.reach.size for f in self.blocks])
        held, order = self._index
        if not held.size:
            return np.full(masks.size, -1)
        at = np.minimum(np.searchsorted(held, masks), held.size - 1)
        return np.where(held[at] == masks, order[at], -1)

    def take(self, index: np.ndarray) -> _Factors:
        """The factors at these indices (see find)."""
        if len(self.blocks) == 1:
            return self.blocks[0].take(index)
        block = np.searchsorted(self._starts, index, side="right") - 1
        first = self.blocks[0]
        out = _Factors(np.empty((index.size, *first.Q.shape[1:])),
                       np.empty((index.size, *first.Rinv.shape[1:])),
                       np.empty(index.size, dtype=first.reach.dtype))
        for i, factors in enumerate(self.blocks):
            sel = block == i
            _assign(out, sel, factors.take(index[sel] - self._starts[i]))
        return out


def _assign(out: _Factors, where: np.ndarray, factors: _Factors):
    out.Q[where], out.Rinv[where], out.reach[where] = factors.Q, factors.Rinv, factors.reach


def _prefix_factors(design: CanonicalDesign, rows: np.ndarray,
                    held: _HeldLevel | None = None) -> _Factors:
    """_Factors of the models in rows (B, k): from held where it has them,
    otherwise extended from their own prefixes, each run of equal rows once."""
    B, k = rows.shape
    if k == 0:
        return _Factors(np.empty((B, 0, design.d)), np.empty((B, 0, 0)),
                        np.zeros(B, dtype=np.intp))
    wanted = rows
    if held is not None:
        at = held.find(_row_masks(rows, design.p))
        missing = at < 0
        if not missing.any():
            return held.take(at)
        wanted = rows[missing]
    if wanted.shape[0] == 1:
        computed = _factors(design, wanted)
    else:
        # Repeats of a prefix are adjacent in lexicographically ordered rows.
        new = np.ones(wanted.shape[0], dtype=bool)
        new[1:] = (wanted[1:] != wanted[:-1]).any(axis=1)
        computed = _factors(design, wanted[new]).take(np.cumsum(new) - 1)
    if held is None or missing.all():
        return computed
    out = held.take(np.where(missing, 0, at))
    _assign(out, missing, computed)
    return out


def _factors(design: CanonicalDesign, rows: np.ndarray,
             held: _HeldLevel | None = None) -> _Factors:
    """_Factors of the models in rows (B, k), ascending 0-based members: each
    is its prefix's factors (held, or found the same way) extended by its
    last member, so a model's factors are the same bits along every path."""
    return _extend(design, _prefix_factors(design, rows[:, :-1], held), rows[:, -1])


# Byte budget for the factors the walk holds at once: the previous level's,
# which the current level's models extend, and the current level's, kept for
# the next. A model of k members takes (k d + k^2) 8 bytes and its mask 24.
# Models whose prefixes are not held get them by the recurrence. The two
# largest adjacent levels of the full lattice take 0.7 MB at p = d = 11,
# 41 MB at p = d = 16 and 0.9 GB at p = d = 20.
_HELD_BYTES = 64 << 20


def _walk_factors(design: CanonicalDesign, universe: ModelUniverse,
                  predictor: int | None = None):
    """The models of _model_blocks for the design, block by block, each
    block with its masks, its _Factors and the previous level's held factors
    (or None)."""
    held = kept = None
    for rows, models in _model_blocks(universe, design.p, min(design.d, design.p),
                                      predictor):
        k = rows.shape[1]
        if kept is None or kept.k != k:
            held = kept if kept is not None and kept.k == k - 1 else None
            kept = _HeldLevel(k, _HELD_BYTES - (held.nbytes if held is not None else 0))
        masks = _row_masks(rows, design.p)
        factors = _factors(design, rows, held)
        kept.keep(masks, factors)
        if models is None:
            yield rows, masks, factors, held
        elif models.any():
            yield rows[models], masks[models], factors.take(models), held


def _pairs(design: CanonicalDesign, rows: np.ndarray, factors: _Factors,
           held: _HeldLevel | None, at: np.ndarray | None = None):
    """Counted and emitted flags, adjusted norms and unit directions of the
    pairs (j, M), M a model of rows (B, k), in (model, member) order: for
    every member j, or for member at[i] of model i alone (see
    _level_batches)."""
    B, k = rows.shape
    # The dual rows of all members, so each pair rounds as in the full walk.
    dual = np.matmul(factors.Rinv, factors.Q)
    if at is None:
        b, t = np.divmod(np.arange(B * k), k)
        dual = dual.reshape(B * k, -1)
    else:
        b, t = np.arange(B), at
        dual = dual[b, t]
    reach = factors.reach[b]
    # When every ascending prefix of M clears its limit, so does every prefix
    # of each M \ {j} (a residual against fewer columns is no smaller), and
    # the directions are the normalized rows of the dual design, whose norms
    # are the reciprocal adjusted norms.
    counted = reach == k
    valid = counted.copy()
    # Otherwise M \ {j} keeps M's first failing prefix unless j lies in it;
    # such a pair extends the factors of M \ {j} by j: it is counted when
    # M \ {j} is reachable, and the new dual row gives its direction.
    redo = np.flatnonzero(~counted & (t <= reach))
    if redo.size:
        models = rows[b[redo]]
        others = models[np.arange(k) != t[redo, None]].reshape(redo.size, k - 1)
        prefix = _prefix_factors(design, others, held)
        grown = _extend(design, prefix, models[np.arange(redo.size), t[redo]])
        counted[redo] = prefix.reach == k - 1
        valid[redo] = grown.reach == k
        dual[redo] = np.matmul(grown.Rinv, grown.Q)[:, -1]
    inverse_norms = np.where(valid, np.sqrt(np.vecdot(dual, dual)), 1.0)
    vectors = dual / inverse_norms[:, None]
    norms = 1.0 / inverse_norms
    emitted = valid & (norms > design.rank_limits[rows[b, t]])
    return counted, emitted, norms, vectors


def _level_batches(design: CanonicalDesign, universe: ModelUniverse,
                   predictor: int | None = None) -> Iterator[LevelBatch]:
    """Enumerate the universe's (predictor, model) pairs, one block of
    same-size models at a time: by model size, then lexicographically by
    members, then by predictor.

    A pair (j, M) is counted iff M is admitted, |M| <= d, and M \\ {j} is
    reachable: each of its ascending prefixes has a residual above
    tau * ||x_s|| against the earlier members, with tau the design's rank
    tolerance. A counted pair is emitted if its adjusted norm is above
    tau * ||x_j||, and is a degenerate skip otherwise. With a 1-based
    ``predictor`` only that predictor's pairs are enumerated, and each
    direction is bitwise the one the full enumeration gives.

    Each model of size k is its lexicographic prefix of size k - 1 plus one
    larger member, so its factors are one vectorized Gram-Schmidt step from
    the prefix's (see _extend); the previous level's factors are held up to
    _HELD_BYTES, and prefixes not held are factored by the same recurrence.
    """
    for rows, masks, factors, held in _walk_factors(design, universe, predictor):
        if predictor is None:
            at, members = None, rows.ravel()
            masks = np.repeat(masks, rows.shape[1])
        else:
            at = np.argmax(rows == predictor - 1, axis=1)
            members = rows[np.arange(rows.shape[0]), at]
        counted, emitted, norms, vectors = _pairs(design, rows, factors, held, at)
        yield LevelBatch(masks[emitted], members[emitted] + 1, vectors[emitted],
                         norms[emitted], int(counted.sum() - emitted.sum()))


def _models_pairs(design: CanonicalDesign, rows: np.ndarray):
    """Every member's pair in each model of rows (B, k), bitwise as the
    enumeration emits them: counted and emitted flags and adjusted norms
    shaped (B, k), unit directions shaped (B, k, d)."""
    return tuple(a.reshape(*rows.shape, *a.shape[1:])
                 for a in _pairs(design, rows, _factors(design, rows), None))


def _model_directions(design: CanonicalDesign,
                      model: ModelId) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (k, d) and adjusted norms (k,) of the model's members,
    bitwise as the enumeration emits them: the model's chain of Gram-Schmidt
    steps is the one the walk takes, and no step depends on the other models
    of its block. Raises InfeasibleError unless the enumeration emits every
    pair of the model (see _level_batches)."""
    _check_fit(design, model)
    _, emitted, norms, vectors = (a[0] for a in _models_pairs(
        design, np.array([model.members], dtype=np.intp) - 1))
    if not emitted.all():
        raise InfeasibleError(f"submodel {model} is rank deficient")
    return vectors, norms


def _models_directions(design: CanonicalDesign, models: Iterable[ModelId]
                       ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """_model_directions of each distinct model, by mask, from one walk of
    the explicit universe of the models."""
    models = list(models)
    for model in models:
        _check_fit(design, model)
    out = {}
    for rows, masks, factors, held in _walk_factors(design, ModelUniverse.explicit(models)):
        _, emitted, norms, vectors = (a.reshape(*rows.shape, *a.shape[1:]) for a in
                                      _pairs(design, rows, factors, held))
        for mask, ok, v, n in zip(masks.tolist(), emitted.all(axis=1), vectors, norms):
            if not ok:
                raise InfeasibleError(f"submodel {ModelId.from_mask(mask)} is rank deficient")
            out[mask] = (v, n)
    return out


def _check_fit(design: CanonicalDesign, model: ModelId):
    if model.members[-1] > design.p:
        raise ValueError(f"model {model} references columns beyond p={design.p}")
    if model.size > design.d:
        raise InfeasibleError(f"submodel {model} has more columns than d={design.d}")


def _full_rank_blocks(design: CanonicalDesign, universe: ModelUniverse):
    """The universe's full-rank models (every ascending prefix clears the rank
    rule), by size and then lexicographically, in blocks: their (B,) masks
    (as _row_masks gives them) with the (B, k, d) orthonormal rows of their
    bases."""
    for rows, masks, factors, _ in _walk_factors(design, universe):
        full = factors.reach == rows.shape[1]
        yield masks[full], factors.Q[full]


def _joined(batches: list[LevelBatch], d: int) -> LevelBatch:
    if not batches:
        return LevelBatch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                          np.empty((0, d)), np.empty(0))
    return LevelBatch(*(np.concatenate([getattr(b, name) for b in batches])
                        for name in ("masks", "predictors", "vectors", "norms")),
                      skips=sum(b.skips for b in batches))


def enumerate_models(
    design: CanonicalDesign, universe: ModelUniverse
) -> Iterator[ModelId]:
    """Yield every full-rank model admitted by the universe, exactly once, by
    size and then lexicographically.

    Rank-deficient candidate subsets are silently skipped. Raises
    InfeasibleError if nothing survives the filtering.
    """
    count = 0
    for masks, _ in _full_rank_blocks(design, universe):
        for mask in masks.tolist():
            count += 1
            yield ModelId.from_mask(mask)
    if count == 0:
        raise InfeasibleError("model universe is empty after rank filtering")


def _sign_canonical_keys(vectors: np.ndarray) -> np.ndarray:
    """Sign-flip unit rows deterministically (the first entry of at least half
    the largest magnitude is made positive) and quantize them to the grid."""
    magnitudes = np.abs(vectors)
    lead = np.argmax(magnitudes >= 0.5 * magnitudes.max(axis=1, keepdims=True), axis=1)
    flip = np.where(vectors[np.arange(len(vectors)), lead] < 0, -1.0, 1.0)
    return np.round(vectors * flip[:, None] * (1 << _DEDUP_GRID_BITS)).astype(np.int64)


class DirectionSet:
    """Re-iterable set of adjusted-predictor directions for (design, universe).

    With ``dedup=None`` iteration streams directions straight out of the
    level-wise enumeration, each pair (j, M) exactly once, duplicates
    included; the Monte Carlo fold consumes this stream in chunks and never
    holds the whole set. With ``dedup="up_to_sign"`` the set is materialized
    once and duplicate directions (equal up to sign on the 2^-20 hashing
    grid) are collapsed to their first occurrence; retained vectors are
    canonicalized representatives on that grid, so two numerically-equal sets
    built along different arithmetic paths dedup to bitwise-identical vectors.
    """

    def __init__(
        self,
        design: CanonicalDesign,
        universe: ModelUniverse | None = None,
        dedup: str | None = None,
        predictor: int | None = None,
    ):
        if universe is None:
            universe = ModelUniverse.all()
        if dedup not in (None, "up_to_sign"):
            raise ValueError(f"unknown dedup mode {dedup!r}")
        self.design = design
        self.universe = universe
        self.dedup = dedup
        self.predictor = predictor
        self.degenerate_skips = 0
        self.emitted_count: int | None = None
        self._materialized: LevelBatch | None = None

    def _walk(self) -> Iterator[LevelBatch]:
        """The enumeration's level batches; the skip and emission counts are
        set once it is exhausted."""
        skips = 0
        emitted = 0
        for batch in _level_batches(self.design, self.universe, self.predictor):
            skips += batch.skips
            emitted += batch.predictors.size
            yield batch
        self.degenerate_skips = skips
        self.emitted_count = emitted

    def _materialize_dedup(self) -> LevelBatch:
        if self._materialized is None:
            whole = _joined(list(self._walk()), self.design.d)
            keys = _sign_canonical_keys(whole.vectors)
            _, first = np.unique(keys, axis=0, return_index=True)
            first.sort()
            kept = keys[first] * _DEDUP_GRID
            kept /= np.linalg.norm(kept, axis=1, keepdims=True)
            self._materialized = LevelBatch(whole.masks[first], whole.predictors[first],
                                            kept, whole.norms[first])
        return self._materialized

    def batches(self) -> Iterator[LevelBatch]:
        """The set as level batches (one batch when deduplicated)."""
        if self.dedup == "up_to_sign":
            return iter([self._materialize_dedup()])
        return self._walk()

    def __iter__(self) -> Iterator[Direction]:
        for batch in self.batches():
            for mask, j, vector, norm in zip(batch.masks.tolist(),
                                             batch.predictors.tolist(),
                                             batch.vectors, batch.norms.tolist()):
                yield Direction(vector, j, ModelId.from_mask(mask), norm)

    @property
    def count(self) -> int:
        """Number of directions this set yields (after dedup, if enabled)."""
        if self.dedup == "up_to_sign":
            return int(self._materialize_dedup().predictors.size)
        if self.emitted_count is None:
            for _ in self._walk():
                pass
        return int(self.emitted_count)

    def materialize(self) -> list[Direction]:
        return list(self)

    def whole(self) -> LevelBatch:
        """The whole set as one batch."""
        return _joined(list(self.batches()), self.design.d)

    def matrix(self) -> np.ndarray:
        """All direction vectors stacked as a (count, d) array."""
        return self.whole().vectors

    def chunks(self, size: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream (k, d) blocks of direction vectors, each with its rows'
        (model mask, predictor) keys as a (k, 2) array: blocks of ``size``
        rows, or the whole set as one block when size is None. Every block is
        a fresh array, so callers may keep them."""
        vectors: list[np.ndarray] = []
        keys: list[np.ndarray] = []
        held = 0
        for batch in self.batches():
            batch_keys = batch.keys()
            n = batch_keys.shape[0]
            start = 0
            while start < n:
                stop = n if size is None else min(n, start + size - held)
                vectors.append(batch.vectors[start:stop])
                keys.append(batch_keys[start:stop])
                held += stop - start
                start = stop
                if held == size:
                    yield np.concatenate(vectors), np.concatenate(keys)
                    vectors, keys, held = [], [], 0
        if held:
            yield np.concatenate(vectors), np.concatenate(keys)


def direction_stream(
    design: CanonicalDesign,
    universe: ModelUniverse | None = None,
    dedup: str | None = None,
) -> DirectionSet:
    """Directions of all admissible (predictor, model) pairs of the universe."""
    return DirectionSet(design, universe, dedup=dedup)
