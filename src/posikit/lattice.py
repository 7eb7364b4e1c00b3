"""Model universes, the subset-lattice walk, and direction streams.

Every submodel M of a canonical design (see posikit.design) and member
predictor j yields an adjusted predictor: the residual of column j regressed
on the other columns of M. The normalized adjusted predictors are the unit
"directions" over which all simultaneous max-|t| computations run. This
module owns the universe grammar that picks the models and the performance
core that walks them: the subset lattice as a prefix tree, level by level.
Level k is made of the children of the rows kept at level k - 1, each a row
plus one member above its largest, in blocks of up to 4 096; a row is kept
while it can still grow into a model the universe admits, and emitted when
it is admitted. So every row's prefix is its parent, found by position, and
its factors Q and R^-1 come from the parent's by one Gram-Schmidt step with
one re-orthogonalization, vectorized over the block. The parent level's
factors and rows are held up to a byte cap; a parent block past it is
factored again by the same steps, and a level not held in full is grown
again from the root. Every member's direction is read off the dual design
X_M (X_M'X_M)^-1 = R^-1 Q. Fits, adjusted_predictor and vif factor their
models by the same steps, bit for bit. Pairs come out by model size, then
lexicographically by members, then by predictor.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .design import CanonicalDesign, _cells, _text_rows
from .errors import DataError, InfeasibleError

# Dedup hashing grid: power of two so scaling is lossless in binary floating
# point, coarse enough that numerically-equal directions computed along
# different orthogonalization paths land in the same bucket.
_DEDUP_GRID_BITS = 20
_DEDUP_GRID = 2.0 ** -_DEDUP_GRID_BITS


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
        ``forced=i,j,...``, ``nested``, ``file=PATH`` (one model per line)
        and ``models=i,j;k,...``. Every member list, a file line included,
        is read by _members: with p known, a member beyond p is an error.
        """
        universe = cls.all()
        for raw in text.split("&"):
            term = raw.strip()
            if not term or term == "all":
                continue
            if term == "nested":
                universe = universe & cls.nested_chain()
            elif term.startswith("forced="):
                forced = _members(_cells(term[len("forced="):]), p)
                universe = universe & cls.forcing(*forced)
            elif term.startswith("size"):
                universe = universe & _parse_size_term(term, p)
            elif term.startswith("file="):
                models = _read_model_list(term[len("file="):], p)
                universe = universe & cls.explicit(models, source=term)
            elif term.startswith("models="):
                # No groups is the empty set, which spec_string writes for two
                # disjoint explicit universes intersected.
                masks = frozenset(_members(_cells(g), p).mask
                                  for g in term[len("models="):].split(";") if g.strip())
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
    """An integer m, or p or p-K (K an integer) when p is known; anything
    else is a ValueError that names the bound."""
    text = text.strip()
    if text.startswith("p") and p is None:
        raise ValueError("size bound uses 'p' but no design dimension is known")
    rest = text[1:].strip() if text.startswith("p") else None
    try:
        if rest is None:
            return int(text)
        if not rest:
            return p
        if rest.startswith("-"):
            return p - int(rest[1:])
    except ValueError:
        pass
    raise ValueError(f"size bound must be an integer, p or p-K, got {text!r}")


def _members(cells: list[str], p: int | None = None) -> ModelId:
    """The model a member list names: the one grammar of --model, forced=,
    each models= group and each file= line. It needs at least one member,
    each an integer in 1..p, or >= 1 when p is not known; anything else is a
    ValueError."""
    try:
        model = ModelId(int(c) for c in cells)
    except ValueError:
        model = None
    if model is None or (p is not None and model.members[-1] > p):
        bound = f"in 1..{p}" if p is not None else ">= 1"
        raise ValueError(f"members must be integers {bound}, got {','.join(cells)!r}")
    return model


def _read_model_list(path: str, p: int | None = None) -> list[ModelId]:
    """The models of a file= term, one per line. A line that _members refuses
    is a DataError naming the file and line."""
    models = []
    for lineno, cells in _text_rows(path, "model list"):
        try:
            models.append(_members(cells, p))
        except ValueError as exc:
            raise DataError(f"model list {path!r}, line {lineno}: {exc}") from None
    if not models:
        raise DataError(f"model list {path!r} is empty")
    return models


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


def _model_sizes(universe: ModelUniverse, p: int, d: int) -> range:
    """The sizes of the universe's models among 1..p of at most d columns:
    from its minimum, its forced count and, for a nested universe, its
    largest forced member, up to its maximum capped at d and p. Empty when a
    forced member lies beyond p."""
    forced = universe.forced
    lo = max(universe.min_size or 1, len(forced), forced[-1] if universe.nested and forced else 1)
    hi = min(universe.max_size or p, d, p) if not forced or forced[-1] <= p else 0
    return range(lo, hi + 1)


def _listed(universe: ModelUniverse, p: int, sizes: range) -> set[int] | None:
    """The masks of the explicit universe's models among 1..p of these sizes
    that it admits, or None when it lists no models."""
    if universe.explicit_masks is None:
        return None
    return {m for m in universe.explicit_masks
            if m.bit_length() <= p and m.bit_count() in sizes and universe.admits(m)}


def _candidate_pair_count(design: CanonicalDesign, universe: ModelUniverse,
                         predictor: int | None = None) -> int:
    """Number of (j, M) pairs the enumeration considers before the rank rule
    (see _level_batches): every member of each model the walk admits for
    the design, or with a predictor (which the universe forces) one pair
    per model. On a design whose models of at most d columns are all full
    rank it is the count of directions plus degenerate skips. Counted, not
    walked."""
    sizes = _model_sizes(universe, design.p, design.d)
    p, forced, listed = design.p, len(universe.forced), _listed(universe, design.p, sizes)
    models = (collections.Counter(m.bit_count() for m in listed) if listed is not None else
              {k: 1 if universe.nested else math.comb(p - forced, k - forced) for k in sizes})
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
    """The blocks of one level in walk order, kept for the next level to grow
    from while they fit a byte budget: the factors, rows and masks of the
    first blocks. Block i is held iff i < len(blocks), and every block is
    iff the budget is not spent (>= 0)."""

    def __init__(self, k: int, budget: int):
        self.k = k
        self.budget = budget
        self.nbytes = 0
        self.blocks: list[_Factors] = []
        self.rows: list[tuple[np.ndarray, np.ndarray]] = []
        self._index = self._starts = None

    def keep(self, rows: np.ndarray, masks: np.ndarray, factors: _Factors):
        # The masks are held three times over: as kept, sorted and ordered.
        size = rows.nbytes + factors.Q.nbytes + factors.Rinv.nbytes + 3 * masks.nbytes
        if masks.dtype == object:
            size += sum(map(sys.getsizeof, masks.tolist()))
        if self.nbytes + size > self.budget:
            self.budget = -1  # no later block is held either
            return
        self.blocks.append(factors)
        self.rows.append((rows, masks))
        self.nbytes += size

    def find(self, masks: np.ndarray) -> np.ndarray:
        """Each model's index among the held ones (in walk order), or -1."""
        if self._index is None:
            held = np.concatenate([m for _, m in self.rows] or [np.empty(0, np.int64)])
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


def _factors(design: CanonicalDesign, rows: np.ndarray) -> _Factors:
    """_Factors of the models in rows (B, k), ascending 0-based members: each
    is its prefix's factors, found the same way, extended by its last member,
    so a model's factors are the same bits along every path."""
    return _extend(design, _prefix_factors(design, rows[:, :-1]), rows[:, -1])


# Byte budget for what the walk holds at once: the factors, rows and masks
# of the previous level's first blocks, which the current level's rows
# extend, and of the current level's, kept for the next. A model of k
# members takes (k d + k^2) 8 bytes, its row 8 k and its mask 24 (and its
# int past p = 62). A parent block whose factors are not held is factored
# again by the recurrence, and the rows of a level not held in full are
# grown again, block by block, from the root. The factors of the two
# largest adjacent levels of the full lattice take 0.7 MB at p = d = 11,
# 41 MB at p = d = 16 and 0.9 GB at p = d = 20.
_HELD_BYTES = 64 << 20


def _walk_factors(design: CanonicalDesign, universe: ModelUniverse):
    """The universe's models of at most d columns among 1..p, walked as a
    prefix tree, block by block: each block with its masks, its _Factors and
    the previous level's held factors.

    Level k is made of the children of the rows kept at level k - 1: each
    row S plus one member above max S, parent block by parent block in
    lexicographic order, at most _LEVEL_BLOCK rows a block. So a level comes
    out lexicographically, and each row's prefix is its parent, found by
    position. A row is kept while it can still grow into an admitted model:
    |S| is within the size cap; every forced member below max S is in S and
    those above it still fit; the members above max S can still bring S to
    the minimum size; S is {1..k} for a nested universe and the prefix of an
    admitted listed model for an explicit one. Nothing is walked when no
    model size is admitted (see _model_sizes). Kept rows are factored and
    held for the next level up to _HELD_BYTES (see _HeldLevel); those the
    universe admits are yielded."""
    p = design.p
    sizes = _model_sizes(universe, p, design.d)
    if not sizes:
        return
    forced = np.array(universe.forced, dtype=np.intp) - 1
    listed = _listed(universe, p, sizes)
    prefixes = None if listed is None else {
        m & ((2 << i) - 1) for m in listed for i in range(m.bit_length()) if m >> i & 1}

    def among(masks: np.ndarray, found: set[int]) -> np.ndarray:
        return np.fromiter(map(found.__contains__, masks.tolist()), bool, masks.size)

    def children(k: int, parents: np.ndarray, parent_masks: np.ndarray):
        """The kept children of a parent block at level k: each one's parent
        index, row and mask, and whether the universe admits it."""
        last = parents[:, -1] if k > 1 else np.array([-1])
        counts = p - 1 - last
        at = np.repeat(np.arange(counts.size), counts)
        # Parent i's children take the members last_i + 1, ..., p - 1 in turn.
        member = np.arange(at.size) - np.repeat(np.cumsum(counts) - counts - last - 1, counts)
        masks = parent_masks[at] | _row_masks(member[:, None], p)
        keep = k + p - 1 - member >= sizes.start
        admitted = np.full(member.size, k >= sizes.start)
        if forced.size:
            below = np.searchsorted(forced, member, side="right")  # forced members <= member
            keep &= ((np.searchsorted(forced, member)
                      == np.searchsorted(forced, last[at], side="right"))
                     & (k + forced.size - below <= sizes[-1]))
            admitted &= below == forced.size
        if universe.nested:
            keep &= member == k - 1
        if listed is not None:
            keep &= among(masks, prefixes)
        at, member, masks, admitted = at[keep], member[keep], masks[keep], admitted[keep]
        if listed is not None:
            admitted &= among(masks, listed)
        return at, np.column_stack([parents[at], member]), masks, admitted

    def grow(k: int, below):
        """Level k's blocks, grown from below(), level k - 1's blocks in
        order: each block's rows, masks, parent indices and admitted flags,
        and its parent block's index."""
        for i, (parents, parent_masks, *_) in enumerate(below()):
            at, rows, masks, admitted = children(k, parents, parent_masks)
            for start in range(0, at.size, _LEVEL_BLOCK):
                part = slice(start, start + _LEVEL_BLOCK)
                yield rows[part], masks[part], at[part], admitted[part], i

    root = np.empty((1, 0), dtype=np.intp)
    # below() gives the blocks of the level before: its held rows, or else
    # the chain that grows every level again from the root.
    below = chain = [(root, _row_masks(root, p))].__iter__
    held = _HeldLevel(0, 0)
    for k in range(1, sizes.stop):
        holding = _HeldLevel(k, _HELD_BYTES - held.nbytes)
        for rows, masks, at, admitted, i in grow(k, below):
            # A block whose parent block is not held is factored by the
            # recurrence, each distinct prefix once.
            factors = (_extend(design, held.blocks[i].take(at), rows[:, -1])
                       if i < len(held.blocks) else _factors(design, rows))
            if k < sizes[-1]:
                holding.keep(rows, masks, factors)
            if admitted.all():
                yield rows, masks, factors, held
            elif admitted.any():
                yield rows[admitted], masks[admitted], factors.take(admitted), held
        chain = functools.partial(grow, k, chain)
        below = chain if holding.budget < 0 else holding.rows.__iter__
        held = holding


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
    ``predictor``, which the universe must force (as DirectionSet's does),
    only that predictor's pairs are enumerated, and each direction is
    bitwise the one the full enumeration gives.

    The models come from the prefix tree of _walk_factors: each is the
    child of its lexicographic prefix of size k - 1, so its factors are one
    vectorized Gram-Schmidt step from its parent's (see _extend), found by
    position. The parent level's factors are held up to _HELD_BYTES, and a
    parent block past it is factored again by the same recurrence; the
    factors of M \\ {j} for a pair refactored past M's reach are looked up
    among the held ones by mask.
    """
    if predictor is not None and predictor not in universe.forced:
        raise ValueError(f"the universe must force predictor {predictor}")
    for rows, masks, factors, held in _walk_factors(design, universe):
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


def _dedup_up_to_sign(whole: LevelBatch) -> LevelBatch:
    """The batch's rows with duplicates up to sign on the 2^-20 grid collapsed
    to their first occurrence, each vector replaced by its grid
    representative, renormalized."""
    keys = _sign_canonical_keys(whole.vectors)
    _, first = np.unique(keys, axis=0, return_index=True)
    first.sort()
    kept = keys[first] * _DEDUP_GRID
    kept /= np.linalg.norm(kept, axis=1, keepdims=True)
    return LevelBatch(whole.masks[first], whole.predictors[first], kept, whole.norms[first])


class DirectionSet:
    """Re-iterable set of adjusted-predictor directions for (design, universe).

    With a 1-based ``predictor`` j the set holds only j's pairs (j, M), and
    its universe is the given one restricted to the models that contain j
    (the PoSI1 set); j must lie in 1..p.

    With ``dedup=None`` iteration streams directions straight out of the
    level-wise enumeration, each pair (j, M) exactly once, duplicates
    included; the Monte Carlo fold consumes this stream in chunks and holds
    at most a window of them (see constants._screened_draws). After
    ``_hold()`` the set is walked once, when first read, and kept as one
    block that every later read slices. With ``dedup="up_to_sign"`` the set is always held,
    and duplicate directions (equal up to sign on the 2^-20 hashing grid)
    are collapsed to their first occurrence; retained vectors are
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
        if predictor is not None:
            if not 1 <= predictor <= design.p:
                raise ValueError(f"predictor {predictor} out of range 1..{design.p}")
            universe = universe & ModelUniverse.forcing(predictor)
        self.design = design
        self.universe = universe
        self.dedup = dedup
        self.predictor = predictor
        self.degenerate_skips = 0
        self.emitted_count: int | None = None
        self._held = dedup == "up_to_sign"
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

    def _materialize(self) -> LevelBatch:
        if self._materialized is None:
            whole = _joined(list(self._walk()), self.design.d)
            self._materialized = _dedup_up_to_sign(whole) if self.dedup else whole
        return self._materialized

    def _hold(self) -> "DirectionSet":
        """Keep the set as one block once it is first walked, so that later
        reads (batches, chunks, count) slice it instead of walking again."""
        self._held = True
        return self

    def batches(self) -> Iterator[LevelBatch]:
        """The set as level batches (one batch when held)."""
        if self._held:
            return iter([self._materialize()])
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
        if self._held:
            return int(self._materialize().predictors.size)
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
