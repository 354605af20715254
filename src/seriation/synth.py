"""Seeded generators for ground-truth matrices, noise and observations.

The observation model ``Y = permute_rows(p, A) + Z`` is stated once, in
:func:`_observe`, which adds the permuted truth into a noise matrix that
its caller does not keep: ``generate`` and the experiment harness call it
directly, and the public :func:`gen_observation` checks its arguments and
calls it on a copy of the noise.

Two seeding policies: the ``gen_*`` functions (``generate``) draw truth,
noise and permutation from one Philox stream each, derived from one seed;
the ``draw_*`` functions draw from the caller's generator, which
experiments derive per (seed, n, m, replication).

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

import numpy as np

from . import core
from .core import (
    Permutation,
    _check_choice,
    _check_instance,
    _check_integer,
    check_matrix,
    check_nonnegative,
    derive_rng,
    read_matrix_csv,
)
from .shape import _column_panels, has_monotone_columns

FAMILIES = (
    "sparse-rows",
    "identical-columns",
    "triangular",
    "random-v-bounded",
    "random-k-blocks",
    "custom",
)

NOISE_KINDS = ("gaussian", "rademacher", "none")

# Sub-stream tags of the gen_* draws: one seed yields independent truth,
# noise and permutation streams.
_TRUTH_STREAM = 0
_NOISE_STREAM = 1
_PERMUTATION_STREAM = 2


def draw_truth(family: str, n: int, m: int, rng: np.random.Generator,
               blocks: int = 5, path: str | None = None) -> np.ndarray:
    """Draw an n x m truth of ``family`` from ``rng``, checking every
    argument; `gen_truth` seeds it."""
    _check_choice(family, FAMILIES, "family")
    n, m = _check_integer(n, "n"), _check_integer(m, "m")
    blocks = _check_integer(blocks, "blocks")
    _check_instance(rng, np.random.Generator, "rng")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    if family == "sparse-rows":
        a = np.zeros((n, m))
        a[:, 0] = np.arange(1, n + 1) * np.sqrt(m)
    elif family == "identical-columns":
        col = np.arange(1, n + 1, dtype=np.float64) / n
        a = np.tile(col[:, None], (1, m))
    elif family == "triangular":
        a = (np.arange(n)[:, None] >= np.arange(m)[None, :]).astype(np.float64)
    elif family == "random-v-bounded":
        # random() draws the bytes of uniform(), a little faster
        a = rng.random(size=(n, m))
        # sorted in contiguous column panels: a strided a.sort(axis=0) takes
        # about twice as long, for the same bytes
        for cols, panel in _column_panels(a):
            panel.sort()
            a[:, cols] = panel.T
        del panel  # the panel buffer, before the checks below
    elif family == "random-k-blocks":
        if blocks > n:
            raise ValueError(f"blocks ({blocks}) must not exceed n ({n})")
        q, r = divmod(n, blocks)
        sizes = np.full(blocks, q, dtype=np.int64)
        sizes[:r] += 1  # remainder spread over the first blocks
        vals = rng.uniform(size=(blocks, m))
        vals.sort(axis=0)
        a = np.repeat(vals, sizes, axis=0)
    else:
        if not path:
            raise ValueError("custom family requires a path")
        a = read_matrix_csv(path)
        if a.shape != (n, m):
            raise ValueError(f"{path}: expected shape {(n, m)}, got {a.shape}")
    a = check_matrix(a)
    if not has_monotone_columns(a, tol=0.0):
        raise ValueError(f"{family} produced non-increasing columns")
    return a


def gen_truth(family: str, n: int, m: int, seed: int = 0, blocks: int = 5,
              path: str | None = None) -> np.ndarray:
    return draw_truth(family, n, m, derive_rng(seed, _TRUTH_STREAM), blocks=blocks, path=path)


def check_noise(kind: str, sigma: float) -> None:
    """Raise ``ValueError`` unless ``kind`` is a noise kind and ``sigma`` is
    a real number, finite and >= 0."""
    _check_choice(kind, NOISE_KINDS, "noise kind")
    check_nonnegative(sigma, "sigma")


def draw_noise(kind: str, sigma: float, n: int, m: int,
               rng: np.random.Generator) -> np.ndarray:
    """Draw n x m noise of ``kind`` and scale ``sigma`` from ``rng``."""
    check_noise(kind, sigma)
    n, m = _check_integer(n, "n"), _check_integer(m, "m")
    _check_instance(rng, np.random.Generator, "rng")
    if kind == "gaussian":
        return rng.normal(0.0, sigma, size=(n, m)) if sigma > 0 else np.zeros((n, m))
    if kind == "rademacher":
        return sigma * (2.0 * rng.integers(0, 2, size=(n, m)) - 1.0)
    return np.zeros((n, m))


def gen_noise(kind: str, sigma: float, n: int, m: int, seed: int = 0) -> np.ndarray:
    return draw_noise(kind, sigma, n, m, derive_rng(seed, _NOISE_STREAM))


def gen_permutation(n: int, seed: int = 0) -> Permutation:
    return Permutation.random(n, derive_rng(seed, _PERMUTATION_STREAM))


def gen_observation(truth, p: Permutation, noise) -> np.ndarray:
    """The observation model: the rows of ``truth`` moved by ``p``, plus
    ``noise``, a finite matrix of the same shape. ``noise`` is not
    written to."""
    truth = core._check_rows(p, truth)
    noise = check_matrix(noise, "noise")
    if noise.shape != truth.shape:
        raise ValueError(f"noise shape {noise.shape} does not match truth shape {truth.shape}")
    return _observe(truth, p, noise.copy())


def _observe(truth: np.ndarray, p: Permutation, noise: np.ndarray) -> np.ndarray:
    """Add ``permute_rows(p, truth)`` into ``noise`` and return it, for a
    validated truth, a permutation of its rows and a C-ordered float64
    noise matrix of its shape. IEEE addition commutes, so the bytes are
    those of ``permute_rows(p, truth) + noise``. A row block of noise that
    is not finite raises ``ValueError``, as a huge sigma can draw one."""
    src = core._inverse_mapping(p)  # row r of the observation is row src[r] of truth
    step = core._block_rows(truth.shape[1])
    for s in range(0, truth.shape[0], step):
        block = noise[s:s + step]
        if not np.all(np.isfinite(block)):
            raise ValueError("noise contains non-finite entries")
        block += truth[src[s:s + step]]
    return noise
