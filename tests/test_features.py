import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gilt.features import (
    AlignSpec,
    align_features,
    fit_pca,
    pca_transform,
    scale_columns,
)


def spectrum_data(n=500, d=50, seed=0):
    # independent columns with a decaying spread, so principal directions
    # are near the coordinate axes and well separated
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) * np.linspace(10.0, 0.5, d)


class TestExactPCA:
    def test_line_in_the_plane(self):
        # points on the line through (1, 2): one direction carries all variance
        t = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        x = t[:, None] * np.array([1.0, 2.0])
        m = fit_pca(x, 1)
        assert np.allclose(m.components[0], np.array([1.0, 2.0]) / np.sqrt(5.0))
        # projections have sample variance |(1,2)|^2 * var(t) = 5 * 2.5
        assert np.isclose(m.explained_variance[0], 12.5)
        assert m.degenerate is False

    def test_matches_eigendecomposition(self):
        x = spectrum_data(200, 12, seed=1)
        m = fit_pca(x, 5)
        cov = np.cov(x, rowvar=False)
        evals, evecs = np.linalg.eigh(cov)
        top = evecs[:, np.argsort(evals)[::-1][:5]].T
        proj_a = m.components.T @ m.components
        proj_b = top.T @ top
        assert np.max(np.abs(proj_a - proj_b)) < 1e-8
        assert np.allclose(m.explained_variance, np.sort(evals)[::-1][:5])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_components_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 7))
        m = fit_pca(x, 4)
        assert np.allclose(m.components @ m.components.T, np.eye(4), atol=1e-10)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 6))
        m = fit_pca(x, 6)
        back = pca_transform(m, x) @ m.components + m.mean
        assert np.max(np.abs(back - x)) < 1e-10

    def test_mean_maps_to_origin(self):
        x = spectrum_data(50, 5, seed=2)
        m = fit_pca(x, 3)
        assert np.allclose(pca_transform(m, m.mean[None, :]), 0.0)

    def test_sign_convention(self):
        x = spectrum_data(100, 6, seed=4)
        for q in (1, 3, 6):
            m = fit_pca(x, q)
            idx = np.argmax(np.abs(m.components), axis=1)
            assert np.all(m.components[np.arange(q), idx] > 0)

    def test_variance_descending(self):
        m = fit_pca(spectrum_data(), 10)
        assert np.all(np.diff(m.explained_variance) <= 1e-12)

    def test_degenerate_flagged(self):
        x = np.zeros((10, 3))
        x[:, 0] = np.arange(10)
        m = fit_pca(x, 3)
        assert m.degenerate is True

    def test_component_count_validated(self):
        x = np.zeros((4, 6))
        with pytest.raises(ValueError, match="n_components"):
            fit_pca(x, 5)  # capped by n
        with pytest.raises(ValueError):
            fit_pca(x, 0)


class TestIncrementalPCA:
    def test_agrees_with_exact_on_reference_shape(self):
        x = spectrum_data(500, 50, seed=7)
        exact = fit_pca(x, 8, method="exact")
        inc = fit_pca(x, 8, method="incremental", batch_size=64)
        proj_e = exact.components.T @ exact.components
        proj_i = inc.components.T @ inc.components
        assert np.max(np.abs(proj_e - proj_i)) < 1e-2
        assert np.allclose(inc.mean, exact.mean, atol=1e-10)
        assert np.allclose(inc.explained_variance, exact.explained_variance, rtol=1e-3)

    def test_components_orthonormal(self):
        m = fit_pca(spectrum_data(300, 20, seed=9), 6, method="incremental")
        assert np.allclose(m.components @ m.components.T, np.eye(6), atol=1e-8)

    def test_batch_size_does_not_change_statistics(self):
        x = spectrum_data(200, 10, seed=5)
        a = fit_pca(x, 4, method="incremental", batch_size=17)
        b = fit_pca(x, 4, method="incremental", batch_size=200)
        assert np.allclose(a.mean, b.mean, atol=1e-10)
        assert np.allclose(a.explained_variance, b.explained_variance, rtol=1e-8)

    def test_large_shared_offset_does_not_cancel(self):
        # subtracting n * mean^2 from an uncentred scatter loses the spread
        # when every feature sits near 1e6
        x = spectrum_data(500, 50) + 1e6
        exact = fit_pca(x, 8, method="exact")
        inc = fit_pca(x, 8, method="incremental", batch_size=64)
        proj_e = exact.components.T @ exact.components
        proj_i = inc.components.T @ inc.components
        assert np.max(np.abs(proj_e - proj_i)) < 1e-8

    def test_exact_on_near_degenerate_spectrum(self):
        # white noise: neighbouring eigenvalues around the cut are close, so
        # an iterative solver stalls, while the eigensolve stays exact
        rng = np.random.default_rng(0)
        x = rng.standard_normal((600, 200))
        m = fit_pca(x, 8, method="incremental")
        evals, evecs = np.linalg.eigh(np.cov(x, rowvar=False))
        top = evecs[:, np.argsort(evals)[::-1][:8]].T
        proj_m = m.components.T @ m.components
        assert np.max(np.abs(proj_m - top.T @ top)) < 1e-8
        np.testing.assert_allclose(m.explained_variance,
                                   np.sort(evals)[::-1][:8], rtol=1e-10)
        assert np.allclose(m.components @ m.components.T, np.eye(8), atol=1e-12)

    def test_auto_routing_by_entry_count(self):
        x = spectrum_data(100, 10, seed=6)
        assert fit_pca(x, 3, incremental_threshold=10 ** 7).method == "exact"
        assert fit_pca(x, 3, incremental_threshold=500).method == "incremental"


class TestColumnScaling:
    def test_hand_values(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        scaled, mean, sd = scale_columns(x)
        assert np.allclose(mean, [2.0, 5.0])
        assert np.isclose(sd[0], np.sqrt(2.0 / 3.0))
        assert np.allclose(scaled[:, 0] * sd[0] + mean[0], x[:, 0], atol=1e-12)
        # constant column is zeroed, not divided by zero
        assert np.all(scaled[:, 1] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_unit_variance_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((50, 4)) * 7.0 + 3.0
        scaled, _, _ = scale_columns(x)
        assert np.max(np.abs(scaled.mean(axis=0))) < 1e-10
        assert np.max(np.abs(scaled.var(axis=0) - 1.0)) < 1e-6


class TestAlignment:
    def test_reduce_when_wide(self):
        x = spectrum_data(60, 20, seed=1)
        out = align_features(x, AlignSpec(unified_dim=8))
        assert out.x.shape == (60, 8)
        assert out.needs_projection is False
        assert np.max(np.abs(out.x.var(axis=0) - 1.0)) < 1e-6

    def test_pad_when_narrow(self):
        x = spectrum_data(60, 3, seed=2)
        out = align_features(x, AlignSpec(unified_dim=8))
        assert out.x.shape == (60, 8)
        assert np.all(out.x[:, 3:] == 0.0)
        assert np.max(np.abs(out.x[:, :3].var(axis=0) - 1.0)) < 1e-6

    def test_rank_capped_by_node_count(self):
        x = spectrum_data(4, 10, seed=3)
        out = align_features(x, AlignSpec(unified_dim=8))
        assert out.x.shape == (4, 8)
        # only min(n, d_in, d) = 4 informative columns
        assert np.all(out.x[:, 4:] == 0.0)

    def test_learnable_projection_mode(self):
        x = spectrum_data(30, 5, seed=4)
        spec = AlignSpec(unified_dim=32, mode="learnable-projection", intermediate_dim=16)
        out = align_features(x, spec)
        assert out.needs_projection is True
        assert out.x.shape == (30, 16)
        assert np.all(out.x[:, 5:] == 0.0)

    def test_constant_features_become_zero(self):
        x = np.full((10, 4), 3.5)
        out = align_features(x, AlignSpec(unified_dim=6))
        assert np.all(out.x == 0.0)
        assert out.pca.degenerate is True

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="alignment mode"):
            AlignSpec(unified_dim=8, mode="resample")
