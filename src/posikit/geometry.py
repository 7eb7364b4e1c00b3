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

from .design import (
    SYMMETRIC,
    UNSPECIFIED,
    CanonicalDesign,
    Direction,
    DirectionSet,
    ModelId,
    ModelUniverse,
    adjusted_predictor,
    direction_stream,
)
from .errors import InfeasibleError


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
    ||x_{j.M}|| * ||x*_{j.M*}|| = 1, reporting the worst deviations.
    """
    if design.d != design.p:
        raise InfeasibleError("duality verification requires d = p")
    p = design.p
    dual = dual_design(design)
    full_mask = (1 << p) - 1
    max_mismatch = 0.0
    max_norm_err = 0.0
    matched = 0
    for direction in direction_stream(design, ModelUniverse.all()):
        j = direction.predictor
        dual_mask = (full_mask & ~direction.model.mask) | (1 << (j - 1))
        dual_model = ModelId.from_mask(dual_mask)
        vec, norm = adjusted_predictor(dual, dual_model, j)
        unit = vec / norm
        dist = min(
            float(np.linalg.norm(unit - direction.vector)),
            float(np.linalg.norm(unit + direction.vector)),
        )
        norm_err = abs(direction.raw_norm * norm - 1.0)
        max_mismatch = max(max_mismatch, dist)
        max_norm_err = max(max_norm_err, norm_err)
        if dist <= tolerance and norm_err <= tolerance:
            matched += 1
    return DualityReport(matched, max_mismatch, max_norm_err)


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
    directions: DirectionSet, tolerance: float = 1e-8
) -> CensusReport:
    """Count, per direction, how many other streamed directions it is
    orthogonal to (|<v, w>| < tolerance), duplicates included."""
    L = directions.matrix()
    n = L.shape[0]
    counts = np.zeros(n, dtype=int)
    block = 1024
    for lo in range(0, n, block):
        inner = np.abs(L[lo:lo + block] @ L.T)
        hits = inner < tolerance
        counts[lo:lo + block] = hits.sum(axis=1)
        # A direction is never orthogonal to itself (unit norm), so the
        # diagonal contributes nothing; no correction needed.
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
