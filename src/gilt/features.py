"""Feature alignment onto a unified width, plus column standardization.

Every graph arrives with its own feature dimensionality. Alignment maps each
feature matrix onto a fixed width d so one model can read them all:

  * d_in > d: PCA down to d.
  * d_in <= d, "pad" mode: PCA to full rank, then zero-pad up to d.
  * "learnable-projection" mode: PCA to a fixed intermediate width; a dense
    trainable map (owned by the model) lifts that to d.

PCA runs exactly (one SVD) when the matrix is small. Once the entry count
crosses the incremental threshold it streams instead: the centred d_in x d_in
covariance is accumulated block by block, then one eigensolve returns its
exact top-q eigenpairs, so fitting never needs a centred copy of the whole
matrix. Columns of the aligned output are standardized to zero mean / unit
variance; a constant column becomes all zeros rather than dividing by zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

INCREMENTAL_THRESHOLD = 10 ** 7


@dataclass(frozen=True)
class PCAModel:
    mean: np.ndarray                # [d_in]
    components: np.ndarray          # [q x d_in], orthonormal rows
    explained_variance: np.ndarray  # [q], descending
    method: str                     # "exact" | "incremental"
    degenerate: bool                # some requested direction has ~zero variance


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # deterministic orientation: largest-magnitude entry of each row positive
    idx = np.argmax(np.abs(components), axis=1)
    signs = np.sign(components[np.arange(len(components)), idx])
    signs[signs == 0] = 1.0
    return components * signs[:, None]


def _fit_exact(x: np.ndarray, q: int) -> PCAModel:
    n = x.shape[0]
    mean = x.mean(axis=0)
    _, s, vt = np.linalg.svd(x - mean, full_matrices=False)
    explained = (s[:q] ** 2) / max(n - 1, 1)
    return PCAModel(
        mean=mean,
        components=_fix_signs(vt[:q].copy()),
        explained_variance=explained,
        method="exact",
        degenerate=bool(np.any(explained < 1e-12)),
    )


def _fit_incremental(x, q: int, batch_size: int) -> PCAModel:
    n, d = x.shape
    mean = x.mean(axis=0)
    # centre each block before it enters the scatter: subtracting n * mean^2
    # afterwards cancels catastrophically when features share a large offset
    cov = np.zeros((d, d))
    for start in range(0, n, batch_size):
        block = x[start:start + batch_size] - mean
        cov += block.T @ block
    cov /= max(n - 1, 1)
    evals, evecs = scipy.linalg.eigh(cov, subset_by_index=[d - q, d - 1])
    explained = np.maximum(evals[::-1], 0.0)
    return PCAModel(
        mean=mean,
        components=_fix_signs(evecs[:, ::-1].T),
        explained_variance=explained,
        method="incremental",
        degenerate=bool(np.any(explained < 1e-12)),
    )


def fit_pca(x, n_components: int, method: str = "auto",
            incremental_threshold: int = INCREMENTAL_THRESHOLD,
            batch_size: int = 512) -> PCAModel:
    """Fit PCA with n_components <= min(n, d_in).

    method "auto" picks the streaming fit once n*d_in crosses the
    incremental threshold; "exact"/"incremental" force a route. The
    streaming fit accumulates the centred covariance over batch_size-row
    blocks and takes its exact top n_components eigenvectors.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"PCA input must be 2-D, got shape {x.shape}")
    n, d = x.shape
    q = int(n_components)
    if not 1 <= q <= min(n, d):
        raise ValueError(f"n_components={q} outside [1, min(n={n}, d={d})]")
    if method == "auto":
        method = "incremental" if x.size > incremental_threshold else "exact"
    if method == "exact":
        return _fit_exact(x, q)
    if method == "incremental":
        return _fit_incremental(x, q, batch_size)
    raise ValueError(f"unknown PCA method {method!r}")


def pca_transform(model: PCAModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return (x - model.mean) @ model.components.T


def scale_columns(x: np.ndarray):
    """Standardize columns; returns (scaled, mean, sd) with sd=0 columns zeroed."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    safe = np.where(sd == 0.0, 1.0, sd)
    scaled = np.where(sd == 0.0, 0.0, (x - mean) / safe)
    return scaled, mean, sd


@dataclass(frozen=True)
class AlignSpec:
    unified_dim: int
    mode: str = "pad"               # "pad" | "learnable-projection"
    intermediate_dim: int = 64

    def __post_init__(self):
        if self.mode not in ("pad", "learnable-projection"):
            raise ValueError(f"unknown alignment mode {self.mode!r}")
        if self.unified_dim < 1 or self.intermediate_dim < 1:
            raise ValueError("alignment dims must be >= 1")


@dataclass(frozen=True)
class AlignedFeatures:
    """Standardized, width-aligned features for one graph.

    When needs_projection is set, x has intermediate width and the model's
    trainable projection produces the final d columns; otherwise x is the
    encoder input as-is.
    """

    x: np.ndarray
    pca: PCAModel
    needs_projection: bool


def align_features(features, spec: AlignSpec) -> AlignedFeatures:
    x = np.asarray(features, dtype=np.float64)
    n, d_in = x.shape
    target = spec.intermediate_dim if spec.mode == "learnable-projection" else spec.unified_dim
    q = min(d_in, n, target)
    pca = fit_pca(x, q)
    scaled, _, _ = scale_columns(pca_transform(pca, x))
    if q < target:
        scaled = np.concatenate([scaled, np.zeros((n, target - q))], axis=1)
    return AlignedFeatures(
        x=scaled,
        pca=pca,
        needs_projection=spec.mode == "learnable-projection",
    )
