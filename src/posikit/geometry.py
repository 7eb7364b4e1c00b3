"""Geometric structure of the direction set: dual designs, orthogonality
census, and the polytope whose coverage defines the simultaneous constant.

For a full-column-rank design in canonical coordinates, the dual design
X* = X (X'X)^{-1} poses the identical simultaneous inference problem: its
direction set equals the original one, pair by pair, via the complement map
M* = (full \\ M) + {j}. ``verify_duality`` checks this numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import SYMMETRIC, UNSPECIFIED, CanonicalDesign
from .errors import DataError, InfeasibleError
from .lattice import Direction, DirectionSet, ModelId, direction_stream

# Rows of inner products the census forms at a time: a 128 x count float64
# block is 1 MiB at count = 1 024.
_CENSUS_BLOCK = 128


@dataclass(frozen=True)
class PolytopeSpec:
    """Slab intersection { z : |l' z| <= k for every direction l }."""

    directions: DirectionSet
    k: float

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("polytope half-width must be positive")


@dataclass(frozen=True)
class DualityReport:
    matched_pairs: int
    max_direction_mismatch: float
    max_norm_product_error: float


@dataclass(frozen=True)
class CensusReport:
    """Orthogonal-partner counts per direction, pairs counted with multiplicity."""

    partner_counts: np.ndarray
    histogram: dict[int, int]
    tolerance: float


def dual_design(design: CanonicalDesign) -> CanonicalDesign:
    """X (X'X)^{-1}: columns are the full-model coefficient vectors."""
    if design.d != design.p:
        raise InfeasibleError("dual design requires the classical case d = p")
    gram = design.gram()
    values = np.linalg.solve(gram, design.values.T).T
    sym = np.allclose(design.values, design.values.T, atol=1e-12)
    return CanonicalDesign(
        values=values,
        basis=design.basis,
        form=SYMMETRIC if sym and design.form == SYMMETRIC else UNSPECIFIED,
        column_names=design.column_names,
        rank_tolerance=design.rank_tolerance,
    )


def verify_duality(design: CanonicalDesign, tolerance: float = 1e-8) -> DualityReport:
    """Check every (j, M) against its dual partner (j, M* = complement + j).

    Verifies direction equality up to sign and the norm identity
    ||x_{j.M}|| * ||x*_{j.M*}|| = 1, reporting the worst deviations. Both
    direction sets come from the level-wise enumeration; a pair of the design
    whose partner the dual design does not emit is a DataError.
    """
    if design.d != design.p:
        raise InfeasibleError("duality verification requires d = p")
    p = design.p
    full_mask = (1 << p) - 1
    primal = direction_stream(design).whole()
    dual = direction_stream(dual_design(design)).whole()
    row_of = {key: i for i, key in enumerate(map(tuple, dual.keys().tolist()))}
    partner = []
    for mask, j in primal.keys().tolist():
        dual_mask = (full_mask & ~mask) | (1 << (j - 1))
        if (dual_mask, j) not in row_of:
            raise DataError(f"adjusted predictor {j} in {ModelId.from_mask(dual_mask)} "
                            "of the dual design is numerically degenerate")
        partner.append(row_of[dual_mask, j])
    vectors, norms = dual.vectors[partner], dual.norms[partner]
    dist = np.minimum(np.linalg.norm(vectors - primal.vectors, axis=1),
                      np.linalg.norm(vectors + primal.vectors, axis=1))
    norm_err = np.abs(primal.norms * norms - 1.0)
    matched = int(np.count_nonzero((dist <= tolerance) & (norm_err <= tolerance)))
    return DualityReport(matched, float(dist.max(initial=0.0)),
                         float(norm_err.max(initial=0.0)))


def directions_match_up_to_sign(
    first: DirectionSet | list[Direction],
    second: DirectionSet | list[Direction],
    tolerance: float = 1e-8,
) -> bool:
    """Set equality of two direction collections as sign classes."""
    a = first.matrix() if isinstance(first, DirectionSet) else np.stack(
        [d.vector for d in first]
    )
    b = second.matrix() if isinstance(second, DirectionSet) else np.stack(
        [d.vector for d in second]
    )
    if a.shape != b.shape:
        return False
    used = np.zeros(b.shape[0], dtype=bool)
    for v in a:
        dist = np.minimum(
            np.linalg.norm(b - v, axis=1), np.linalg.norm(b + v, axis=1)
        )
        dist[used] = np.inf
        i = int(np.argmin(dist))
        if dist[i] > tolerance:
            return False
        used[i] = True
    return bool(np.all(used))


def orthogonality_census(
    directions: DirectionSet | np.ndarray, tolerance: float = 1e-8
) -> CensusReport:
    """Count, per direction, how many other streamed directions it is
    orthogonal to (|<v, w>| < tolerance), duplicates included.

    ``directions`` is a DirectionSet or its (count, d) matrix of unit rows.
    The inner products are formed _CENSUS_BLOCK rows at a time into one
    reused (_CENSUS_BLOCK, count) buffer, so the work space grows linearly
    with the count, not with its square.
    """
    if isinstance(directions, DirectionSet):
        L = directions.matrix()
    else:
        L = np.asarray(directions, dtype=float)
    n = L.shape[0]
    counts = np.zeros(n, dtype=int)
    inner = np.empty((min(_CENSUS_BLOCK, n), n))
    hits = np.empty(inner.shape, dtype=bool)
    for lo in range(0, n, _CENSUS_BLOCK):
        rows = L[lo:lo + _CENSUS_BLOCK]
        block, block_hits = inner[:len(rows)], hits[:len(rows)]
        np.matmul(rows, L.T, out=block)
        np.abs(block, out=block)
        np.less(block, tolerance, out=block_hits)
        # A direction is never orthogonal to itself (unit norm), so the
        # diagonal contributes nothing; no correction needed.
        counts[lo:lo + len(rows)] = np.count_nonzero(block_hits, axis=1)
    values, freq = np.unique(counts, return_counts=True)
    histogram = {int(v): int(f) for v, f in zip(values, freq)}
    return CensusReport(partner_counts=counts, histogram=histogram, tolerance=tolerance)


def polytope_contains(polytope: PolytopeSpec, z: np.ndarray) -> bool:
    """True iff |l' z| <= k for every direction; short-circuits on violation."""
    z = np.asarray(z, dtype=float)
    for chunk, _ in polytope.directions.chunks(512):
        if np.abs(chunk @ z).max() > polytope.k:
            return False
    return True
