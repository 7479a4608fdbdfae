"""Feature alignment onto a unified width, plus column standardization.

Every graph arrives with its own feature dimensionality. Alignment maps each
feature matrix onto a fixed width d so one model can read them all:

  * d_in > d: PCA down to d.
  * d_in <= d, "pad" mode: PCA to full rank, then zero-pad up to d.
  * "learnable-projection" mode: PCA to a fixed intermediate width; a dense
    trainable map (owned by the model) lifts that to d.

PCA runs exactly (one SVD) when the matrix is small, and as a single-pass
streaming fit (mean/scatter accumulation + orthogonal iteration) when the
entry count crosses the incremental threshold, so fitting never needs the
whole matrix materialized twice. Columns of the aligned output are
standardized to zero mean / unit variance; a constant column becomes all
zeros rather than dividing by zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _fit_incremental(x, q: int, batch_size: int, seed: int,
                     max_iter: int, tol: float) -> PCAModel:
    n, d = x.shape
    total = np.zeros(d)
    scatter = np.zeros((d, d))
    for start in range(0, n, batch_size):
        block = np.asarray(x[start:start + batch_size], dtype=np.float64)
        total += block.sum(axis=0)
        scatter += block.T @ block
    mean = total / n
    cov = (scatter - n * np.outer(mean, mean)) / max(n - 1, 1)

    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, q)))
    for _ in range(max_iter):
        refreshed, _ = np.linalg.qr(cov @ basis)
        drift = np.linalg.norm(refreshed @ (refreshed.T @ basis) - basis)
        basis = refreshed
        if drift < tol:
            break
    # Rayleigh-Ritz inside the converged subspace recovers the directions
    small = basis.T @ cov @ basis
    evals, evecs = np.linalg.eigh(small)
    order = np.argsort(evals)[::-1]
    components = (basis @ evecs[:, order]).T
    explained = np.maximum(evals[order], 0.0)
    return PCAModel(
        mean=mean,
        components=_fix_signs(components),
        explained_variance=explained,
        method="incremental",
        degenerate=bool(np.any(explained < 1e-12)),
    )


def fit_pca(x, n_components: int, method: str = "auto",
            incremental_threshold: int = INCREMENTAL_THRESHOLD,
            batch_size: int = 4096, seed: int = 0,
            max_iter: int = 200, tol: float = 1e-10) -> PCAModel:
    """Fit PCA with n_components <= min(n, d_in).

    method "auto" picks the streaming fit once n*d_in crosses the
    incremental threshold; "exact"/"incremental" force a route.
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
        return _fit_incremental(x, q, batch_size, seed, max_iter, tol)
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
