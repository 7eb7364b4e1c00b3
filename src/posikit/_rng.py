"""Counter-based random number generation for reproducible Monte Carlo runs.

Draws are produced in fixed-size blocks. Block b of a given (seed, purpose)
pair comes from Philox generators whose 256-bit counter carries b in its
second word; the first word is incremented internally by the generator and
can never overflow into the block word. The third word selects the stream:
Gaussian rows come from stream 0 and sigma-hat variates from stream 1, so
neither sequence consumes the other's bits. Draw i therefore depends only on
(seed, purpose, i), however many draws are requested in total.
"""

from __future__ import annotations

import numpy as np

BLOCK = 8192

PURPOSE_MAX_T = 0x706F7369
PURPOSE_COVERAGE = 0x636F7665

_GAUSSIAN_STREAM = 0
_SIGMA_STREAM = 1


def block_generator(seed: int, purpose: int, block_index: int,
                    stream: int = _GAUSSIAN_STREAM) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(purpose)],
                   dtype=np.uint64)
    counter = np.array([0, block_index, stream, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def block_count(n: int) -> int:
    return (n + BLOCK - 1) // BLOCK


def block_slice(block_index: int, n: int) -> slice:
    start = block_index * BLOCK
    return slice(start, min(start + BLOCK, n))


def gaussian_block(seed: int, purpose: int, block_index: int, n: int, dim: int,
                   chi_df: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal rows and sigma-hat draws for one block.

    Returns (Z, sigma) with Z of shape (b, dim) and sigma of shape (b,),
    where b is the block's share of the n total draws. sigma is sqrt of a
    chi-square(df)/df variate, or all ones when df is infinite. Z and sigma
    come from separate streams, so row i of either is the same for every n
    that includes it, and Z does not depend on df.
    """
    sl = block_slice(block_index, n)
    b = sl.stop - sl.start
    z = block_generator(seed, purpose, block_index).standard_normal((b, dim))
    if np.isinf(chi_df):
        sigma = np.ones(b)
    else:
        rng = block_generator(seed, purpose, block_index, _SIGMA_STREAM)
        sigma = np.sqrt(rng.chisquare(chi_df, b) / chi_df)
    return z, sigma
