"""Seeded generators for ground-truth matrices and noise.

Each family produces a column-increasing matrix:

* ``sparse-rows``: first column ``(1, 2, ..., n) * sqrt(m)``, all other
  columns zero, so any two rows differ in a single coordinate. Defeats
  row-sum ordering at scale (the row-sum gaps match the noise level) while
  staying easy for score-based ordering.
* ``identical-columns``: every column equals ``(1, ..., n)/n``; row
  differences are constant vectors.
* ``triangular``: 0/1 lower-triangular, ``A[i, j] = 1`` iff ``i >= j``
  (0-based); with m = n its distinct-value count is ``2n - 1``.
* ``random-v-bounded``: each column an independently sorted sample of n
  i.i.d. U(0, 1), so every column variation is at most 1.
* ``random-k-blocks``: each column piecewise constant on ``blocks``
  contiguous blocks of near-equal size, block values a sorted i.i.d. U(0, 1)
  sample, so each column takes exactly ``blocks`` values (a.s.).
* ``custom``: loaded from a matrix CSV and validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Permutation, check_matrix, derive_rng, permute_rows, read_matrix_csv
from .shape import has_monotone_columns

FAMILIES = (
    "sparse-rows",
    "identical-columns",
    "triangular",
    "random-v-bounded",
    "random-k-blocks",
    "custom",
)

NOISE_KINDS = ("gaussian", "rademacher", "none")

# Sub-stream tags so one user-facing seed yields independent truth / noise /
# permutation draws.
_TRUTH_STREAM = 0
_NOISE_STREAM = 1
PERMUTATION_STREAM = 2


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int
    m: int
    seed: int = 0
    blocks: int = 5
    path: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if self.blocks < 1:
            raise ValueError("blocks must be >= 1")
        if self.family == "custom" and not self.path:
            raise ValueError("custom family requires a path")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "gaussian"
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


def draw_truth(family: str, n: int, m: int, rng: np.random.Generator,
               blocks: int = 5, path: str | None = None) -> np.ndarray:
    """Generator-level truth draw; `gen_truth` wraps this with seeding."""
    if family == "sparse-rows":
        a = np.zeros((n, m))
        a[:, 0] = np.arange(1, n + 1) * np.sqrt(m)
    elif family == "identical-columns":
        col = np.arange(1, n + 1, dtype=np.float64) / n
        a = np.tile(col[:, None], (1, m))
    elif family == "triangular":
        a = (np.arange(n)[:, None] >= np.arange(m)[None, :]).astype(np.float64)
    elif family == "random-v-bounded":
        a = np.sort(rng.uniform(size=(n, m)), axis=0)
    elif family == "random-k-blocks":
        if blocks > n:
            raise ValueError(f"blocks ({blocks}) must not exceed n ({n})")
        q, r = divmod(n, blocks)
        sizes = np.full(blocks, q, dtype=np.int64)
        sizes[:r] += 1  # remainder spread over the first blocks
        vals = np.sort(rng.uniform(size=(blocks, m)), axis=0)
        a = np.repeat(vals, sizes, axis=0)
    elif family == "custom":
        if not path:
            raise ValueError("custom family requires a path")
        a = read_matrix_csv(path)
        if a.shape != (n, m):
            raise ValueError(f"{path}: expected shape {(n, m)}, got {a.shape}")
    else:
        raise ValueError(f"unknown family {family!r}")
    a = check_matrix(a)
    if not has_monotone_columns(a, tol=0.0):
        raise ValueError(f"{family} produced non-increasing columns")
    return a


def gen_truth(spec: GeneratorSpec) -> np.ndarray:
    rng = derive_rng(spec.seed, _TRUTH_STREAM)
    return draw_truth(spec.family, spec.n, spec.m, rng,
                      blocks=spec.blocks, path=spec.path)


def draw_noise(kind: str, sigma: float, n: int, m: int,
               rng: np.random.Generator) -> np.ndarray:
    if kind == "gaussian":
        return rng.normal(0.0, sigma, size=(n, m)) if sigma > 0 else np.zeros((n, m))
    if kind == "rademacher":
        return sigma * (2.0 * rng.integers(0, 2, size=(n, m)) - 1.0)
    if kind == "none":
        return np.zeros((n, m))
    raise ValueError(f"unknown noise kind {kind!r}")


def gen_noise(spec: NoiseSpec, n: int, m: int) -> np.ndarray:
    rng = derive_rng(spec.seed, _NOISE_STREAM)
    return draw_noise(spec.kind, spec.sigma, n, m, rng)


def gen_observation(truth, p: Permutation, noise: NoiseSpec) -> np.ndarray:
    """Permute the truth rows and add noise: the observation model."""
    truth = check_matrix(truth, "truth")
    n, m = truth.shape
    return permute_rows(p, truth) + gen_noise(noise, n, m)
