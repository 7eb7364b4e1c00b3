"""Design matrices, canonical coordinates, model universes, and direction streams.

A design enters as an n x p matrix, is reduced to d x p canonical coordinates
(d = rank), and from there every submodel M and member predictor j yields an
adjusted predictor: the residual of column j regressed on the other columns of
M. The normalized adjusted predictors are the unit "directions" over which all
simultaneous max-|t| computations run. This module owns that pipeline and its
performance core: a depth-first traversal of the subset lattice with an
incrementally maintained orthonormal basis, so each direction costs one
orthogonalization instead of one least-squares solve per submodel.
"""

from __future__ import annotations

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

    # -- membership and traversal hooks ------------------------------------

    @property
    def forced_mask(self) -> int:
        m = 0
        for j in self.forced:
            m |= 1 << (j - 1)
        return m

    def contains(self, model: ModelId) -> bool:
        """Constraint membership; does not look at the design's rank."""
        return self._admits_model_mask(model.mask, model.size)

    def _admits_model_mask(self, mask: int, size: int) -> bool:
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

    def _may_descend(self, mask: int, size: int, max_index: int) -> bool:
        """Conservative prune: can any model in the universe still be reached
        from DFS node ``mask`` whose extensions use indices > max_index plus a
        single final emission index?"""
        if self.max_size is not None and size + 1 > self.max_size:
            return False
        missing = self.forced_mask & ~mask
        below = missing & ((1 << max_index) - 1)
        if below.bit_count() > 1:
            return False
        if self.nested and max_index - size > 1:
            return False
        if self.explicit_masks is not None:
            if not any(mask & ~m == 0 for m in self.explicit_masks):
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
    """

    values: np.ndarray
    basis: np.ndarray
    form: str
    column_names: tuple[str, ...]
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE

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
    """Residual of column j on the other columns of the submodel, plus its norm."""
    if j not in model:
        raise ValueError(f"predictor {j} is not a member of {model}")
    x = design.column(j).copy()
    others = [k for k in model.members if k != j]
    if not others:
        return x, float(np.linalg.norm(x))
    A = design.values[:, [k - 1 for k in others]]
    coef, _, rank, _ = np.linalg.lstsq(A, x, rcond=None)
    if rank < len(others):
        raise DataError(f"submodel {model} is rank deficient")
    r = x - A @ coef
    norm = float(np.linalg.norm(r))
    if norm <= design.rank_tolerance * float(np.linalg.norm(x)):
        raise DataError(
            f"adjusted predictor {j} in {model} is numerically degenerate"
        )
    return r, norm


def vif(design: CanonicalDesign, model: ModelId, j: int) -> float:
    """Variance inflation ||x_j||^2 / ||x_{j.M}||^2 (centering is the caller's job)."""
    x = design.column(j)
    _, norm = adjusted_predictor(design, model, j)
    return float(np.dot(x, x)) / (norm * norm)


# ---------------------------------------------------------------------------
# Subset-lattice DFS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Direction:
    """Unit-norm adjusted predictor with its (predictor, model) provenance."""

    vector: np.ndarray
    predictor: int
    model: ModelId
    raw_norm: float


def _dfs_rank_nodes(design: CanonicalDesign, universe: ModelUniverse):
    """Yield (j0, model_mask, residual, norm) emission records.

    The traversal visits each subset S at most once (extensions ascend), keeps
    an orthonormal basis of span(X_S), and realizes each admissible pair
    (j, M) as the single event "at node S = M \\ {j}, orthogonalize column j".
    Rank-deficient candidates are reported with norm = -1 so callers can count
    degenerate skips; they are never descended into.
    """
    X = design.values
    d, p = X.shape
    tau = design.rank_tolerance
    col_norms = np.linalg.norm(X, axis=0)

    def recurse(s_mask: int, size: int, max_idx: int, Q: np.ndarray):
        emit_idx = []
        descend_idx = []
        for j0 in range(p):
            if s_mask >> j0 & 1:
                continue
            new_mask = s_mask | (1 << j0)
            emit = universe._admits_model_mask(new_mask, size + 1)
            descend = (
                j0 + 1 > max_idx
                and size + 1 < d
                and universe._may_descend(new_mask, size + 1, j0 + 1)
            )
            if emit or descend:
                emit_idx.append(j0 if emit else -1)
                descend_idx.append(j0 if descend else -1)
        if not emit_idx:
            return
        cand = [max(e, dsc) for e, dsc in zip(emit_idx, descend_idx)]
        C = X[:, cand]
        if Q.shape[1]:
            R = C - Q @ (Q.T @ C)
            R -= Q @ (Q.T @ R)
        else:
            R = C.copy()
        norms = np.linalg.norm(R, axis=0)
        for k, j0 in enumerate(cand):
            ok = norms[k] > tau * col_norms[j0]
            if emit_idx[k] >= 0:
                if ok:
                    yield (j0, s_mask | (1 << j0), R[:, k], float(norms[k]))
                else:
                    yield (j0, s_mask | (1 << j0), None, -1.0)
            if ok and descend_idx[k] >= 0:
                q = R[:, k] / norms[k]
                yield from recurse(
                    s_mask | (1 << j0), size + 1, j0 + 1, np.hstack([Q, q[:, None]])
                )

    yield from recurse(0, 0, 0, np.empty((d, 0)))


def enumerate_models(
    design: CanonicalDesign, universe: ModelUniverse
) -> Iterator[ModelId]:
    """Yield every full-rank model admitted by the universe, exactly once.

    Rank-deficient candidate subsets are silently skipped. Raises
    InfeasibleError if nothing survives the filtering.
    """
    count = 0
    for j0, mask, _, norm in _dfs_rank_nodes(design, universe):
        # Each model is reported once: as the pair whose j is its largest member.
        if norm >= 0 and mask >> (j0 + 1) == 0:
            count += 1
            yield ModelId.from_mask(mask)
    if count == 0:
        raise InfeasibleError("model universe is empty after rank filtering")


def _sign_canonical_key(v: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Sign-flip a unit vector deterministically and quantize it to the grid."""
    vmax = float(np.max(np.abs(v)))
    flip = 1.0
    for x in v:
        if abs(x) >= 0.5 * vmax:
            flip = -1.0 if x < 0 else 1.0
            break
    w = v * flip
    key = np.round(w * (1 << _DEDUP_GRID_BITS)).astype(np.int64)
    return w, tuple(int(k) for k in key)


def _key_representative(key: tuple[int, ...]) -> np.ndarray:
    w = np.asarray(key, dtype=float) * _DEDUP_GRID
    return w / np.linalg.norm(w)


class DirectionSet:
    """Re-iterable set of adjusted-predictor directions for (design, universe).

    With ``dedup=None`` iteration streams directions straight out of the DFS,
    each pair (j, M) exactly once, duplicates included; the Monte Carlo fold
    consumes this stream in chunks and never holds the whole set. With
    ``dedup="up_to_sign"`` the set is materialized once and duplicate
    directions (equal up to sign on the 2^-20 hashing grid) are collapsed;
    retained vectors are canonicalized representatives on that grid, so two
    numerically-equal sets built along different arithmetic paths dedup to
    bitwise-identical vectors.
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
        self._materialized: list[Direction] | None = None

    def _raw_iter(self) -> Iterator[Direction]:
        skips = 0
        emitted = 0
        want = self.predictor
        for j0, mask, res, norm in _dfs_rank_nodes(self.design, self.universe):
            if want is not None and j0 + 1 != want:
                continue
            if norm < 0:
                skips += 1
                continue
            emitted += 1
            yield Direction(res / norm, j0 + 1, ModelId.from_mask(mask), norm)
        self.degenerate_skips = skips
        self.emitted_count = emitted

    def _materialize_dedup(self) -> list[Direction]:
        if self._materialized is None:
            seen: dict[tuple[int, ...], None] = {}
            kept: list[Direction] = []
            for direction in self._raw_iter():
                _, key = _sign_canonical_key(direction.vector)
                if key in seen:
                    continue
                seen[key] = None
                kept.append(
                    Direction(
                        _key_representative(key),
                        direction.predictor,
                        direction.model,
                        direction.raw_norm,
                    )
                )
            self._materialized = kept
        return self._materialized

    def __iter__(self) -> Iterator[Direction]:
        if self.dedup == "up_to_sign":
            return iter(self._materialize_dedup())
        return self._raw_iter()

    @property
    def count(self) -> int:
        """Number of directions this set yields (after dedup, if enabled)."""
        if self.dedup == "up_to_sign":
            return len(self._materialize_dedup())
        if self.emitted_count is None:
            for _ in self._raw_iter():
                pass
        return int(self.emitted_count)

    def materialize(self) -> list[Direction]:
        if self.dedup == "up_to_sign":
            return list(self._materialize_dedup())
        return list(self._raw_iter())

    def matrix(self) -> np.ndarray:
        """All direction vectors stacked as a (count, d) array."""
        dirs = self.materialize()
        if not dirs:
            return np.empty((0, self.design.d))
        return np.stack([direction.vector for direction in dirs])

    def chunks(self, size: int) -> Iterator[tuple[np.ndarray, list[tuple[int, int]]]]:
        """Stream (k, d) blocks of direction vectors without full materialization,
        each with the rows' (model mask, predictor) keys."""
        buf: list[np.ndarray] = []
        keys: list[tuple[int, int]] = []
        for direction in self:
            buf.append(direction.vector)
            keys.append((direction.model.mask, direction.predictor))
            if len(buf) == size:
                yield np.stack(buf), keys
                buf, keys = [], []
        if buf:
            yield np.stack(buf), keys


def direction_stream(
    design: CanonicalDesign,
    universe: ModelUniverse | None = None,
    dedup: str | None = None,
) -> DirectionSet:
    """Directions of all admissible (predictor, model) pairs of the universe."""
    return DirectionSet(design, universe, dedup=dedup)
