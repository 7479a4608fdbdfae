"""Feature alignment onto a unified width, plus column standardization.

Every graph arrives with its own feature dimensionality. Alignment maps each
feature matrix onto a fixed width so one model can read them all:

  * d_in > width: PCA down to width.
  * d_in <= width: PCA to full rank, then zero-pad up to width.

The model picks the width from its config: d in "pad" mode, or a fixed
intermediate width in "learnable-projection" mode, where a dense trainable
map (owned by the model) lifts it to d.

PCA picks its route from the matrix's shape. A tall matrix (d_in <= n)
streams: the centred d_in x d_in covariance is accumulated block by block,
then one eigensolve returns its exact top-q eigenpairs, so fitting never
needs a centred copy of the whole matrix. A wide matrix (d_in > n) takes one
thin SVD, which costs O(n^2 d_in) where the covariance would cost O(d_in^3).

Each aligned column is a PCA score divided by its own standard deviation,
read from the fit's eigenvalue. A direction whose eigenvalue is at rounding
level (at most 1e-10 of the largest, or the variance that rounding the column
means can leave) has no variance: its column is all zeros and the fit is
flagged degenerate. Both floors scale with the data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

BLOCK_ROWS = 512  # rows per centred block: 10 MB at 2600 features

# Rounding in forming and solving the covariance leaves a null direction
# with an eigenvalue near eps * lambda_max times a factor that grows with the
# matrix size, so it scales with the data (~1e-16 of lambda_max on small
# rank-deficient inputs). An eigenvalue below 1e-10 of the largest is such
# rounding, with a wide margin. Constant features, whose largest eigenvalue
# is itself rounding, are caught by the mean-shift floor in fit_pca.
RELATIVE_FLOOR = 1e-10


@dataclass(frozen=True)
class PCAModel:
    mean: np.ndarray                # [d_in]
    components: np.ndarray          # [q x d_in], orthonormal rows
    explained_variance: np.ndarray  # [q], descending; 0 for a null direction
    degenerate: bool                # some requested direction has zero variance


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # deterministic orientation: largest-magnitude entry of each row positive
    idx = np.argmax(np.abs(components), axis=1)
    signs = np.sign(components[np.arange(len(components)), idx])
    signs[signs == 0] = 1.0
    return components * signs[:, None]


def _fit_exact(x: np.ndarray, q: int):
    """(mean, top-q axes, their sample variances) from one thin SVD."""
    mean = x.mean(axis=0)
    _, s, vt = np.linalg.svd(x - mean, full_matrices=False)
    return mean, vt[:q], s[:q] ** 2 / max(x.shape[0] - 1, 1)


def _fit_incremental(x: np.ndarray, q: int):
    """(mean, top-q axes, their sample variances) from the streamed covariance."""
    n, d = x.shape
    mean = x.mean(axis=0)
    # centre each block before it enters the scatter: subtracting n * mean^2
    # afterwards cancels catastrophically when features share a large offset
    cov = np.zeros((d, d))
    for start in range(0, n, BLOCK_ROWS):
        block = x[start:start + BLOCK_ROWS] - mean
        cov += block.T @ block
    cov /= max(n - 1, 1)
    evals, evecs = scipy.linalg.eigh(cov, subset_by_index=[d - q, d - 1])
    return mean, evecs[:, ::-1].T, evals[::-1]


def fit_pca(x, n_components: int) -> PCAModel:
    """Fit PCA with n_components <= min(n, d_in).

    A tall input (d_in <= n) takes the exact top eigenpairs of its centred
    covariance, accumulated over BLOCK_ROWS-row blocks; a wide one takes a
    thin SVD. Eigenvalues at or below RELATIVE_FLOOR * largest, or at or
    below (n * eps)^2 * ||mean||^2, are reported as 0 and set `degenerate`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"PCA input must be 2-D, got shape {x.shape}")
    n, d = x.shape
    q = int(n_components)
    if not 1 <= q <= min(n, d):
        raise ValueError(f"n_components={q} outside [1, min(n={n}, d={d})]")
    fit = _fit_incremental if d <= n else _fit_exact
    mean, components, explained = fit(x, q)
    # the column means add n rows in turn, so each can be off by ~n ulps of
    # itself; centring turns that shift into variance up to its squared norm
    shift = (n * np.finfo(np.float64).eps) ** 2 * float(mean @ mean)
    null = explained <= max(shift, RELATIVE_FLOOR * explained[0])
    explained = np.where(null, 0.0, explained)
    return PCAModel(
        mean=mean,
        components=_fix_signs(components),
        explained_variance=explained,
        degenerate=bool(null.any()),
    )


def pca_transform(model: PCAModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return (x - model.mean) @ model.components.T


def align_features(features, width: int) -> np.ndarray:
    """Standardized PCA scores of `features`, [n x width]: min(n, d_in, width)
    score columns, each divided by its own standard deviation (0 where it has
    none), then zero columns up to `width`."""
    x = np.asarray(features, dtype=np.float64)
    n, d_in = x.shape
    q = min(d_in, n, width)
    pca = fit_pca(x, q)
    # a score column has zero mean and population variance lambda * (n-1)/n
    sd = np.sqrt(pca.explained_variance * (n - 1) / n)
    scores = pca_transform(pca, x)
    scaled = np.divide(scores, sd, out=np.zeros_like(scores), where=sd > 0)
    if q < width:
        scaled = np.concatenate([scaled, np.zeros((n, width - q))], axis=1)
    return scaled
