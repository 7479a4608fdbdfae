import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gilt import features
from gilt.features import align_features, fit_pca, pca_transform


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


def centred_svd(x, q):
    """Reference top-q axes and sample variances from an SVD of the centred
    matrix, computed independently of gilt."""
    _, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    return vt[:q], s[:q] ** 2 / (x.shape[0] - 1)


def projector(components):
    return components.T @ components


class TestIncrementalPCA:
    def test_agrees_with_exact_on_reference_shape(self):
        x = spectrum_data(500, 50, seed=7)
        m = fit_pca(x, 8)
        axes, variances = centred_svd(x, 8)
        assert np.max(np.abs(projector(m.components) - projector(axes))) < 1e-2
        assert np.allclose(m.mean, x.mean(axis=0), atol=1e-10)
        assert np.allclose(m.explained_variance, variances, rtol=1e-3)

    def test_components_orthonormal(self):
        m = fit_pca(spectrum_data(300, 20, seed=9), 6)
        assert np.allclose(m.components @ m.components.T, np.eye(6), atol=1e-8)

    def test_batch_size_does_not_change_statistics(self, monkeypatch):
        # 17-row blocks split the 200 rows unevenly; 200 takes them in one
        x = spectrum_data(200, 10, seed=5)
        monkeypatch.setattr(features, "BLOCK_ROWS", 17)
        a = fit_pca(x, 4)
        monkeypatch.setattr(features, "BLOCK_ROWS", 200)
        b = fit_pca(x, 4)
        assert np.allclose(a.mean, b.mean, atol=1e-10)
        assert np.allclose(a.explained_variance, b.explained_variance, rtol=1e-8)

    def test_large_shared_offset_does_not_cancel(self):
        # subtracting n * mean^2 from an uncentred scatter loses the spread
        # when every feature sits near 1e6
        x = spectrum_data(500, 50) + 1e6
        m = fit_pca(x, 8)
        axes, _ = centred_svd(x, 8)
        assert np.max(np.abs(projector(m.components) - projector(axes))) < 1e-8

    def test_exact_on_near_degenerate_spectrum(self):
        # white noise: neighbouring eigenvalues around the cut are close, so
        # an iterative solver stalls, while the eigensolve stays exact
        rng = np.random.default_rng(0)
        x = rng.standard_normal((600, 200))
        m = fit_pca(x, 8)
        evals, evecs = np.linalg.eigh(np.cov(x, rowvar=False))
        top = evecs[:, np.argsort(evals)[::-1][:8]].T
        assert np.max(np.abs(projector(m.components) - projector(top))) < 1e-8
        np.testing.assert_allclose(m.explained_variance,
                                   np.sort(evals)[::-1][:8], rtol=1e-10)
        assert np.allclose(m.components @ m.components.T, np.eye(8), atol=1e-12)

    def test_routing_by_shape(self, monkeypatch):
        calls = []
        streamed = features._fit_incremental

        def record(x, q):
            calls.append(x.shape)
            return streamed(x, q)

        monkeypatch.setattr(features, "_fit_incremental", record)
        fit_pca(spectrum_data(100, 10, seed=6), 3)
        fit_pca(spectrum_data(40, 40, seed=6), 3)
        assert calls == [(100, 10), (40, 40)]

        def refuse(x, q):
            raise AssertionError("a wide input must not form the covariance")

        monkeypatch.setattr(features, "_fit_incremental", refuse)
        wide = spectrum_data(50, 3000, seed=6)
        m = fit_pca(wide, 5)
        axes, _ = centred_svd(wide, 5)
        assert np.max(np.abs(projector(m.components) - projector(axes))) < 1e-8


def aligned(x, width):
    """align_features' columns, plus the PCA fit they are read from."""
    return align_features(x, width), fit_pca(x, min(*np.shape(x), width))


class TestZeroVariance:
    def test_null_direction_column_is_zero(self):
        # 20 nodes, 32 features: the centred rank is 19, so the 20th of the
        # q = 20 directions carries no variance and must not be rescaled
        # into unit-variance rounding noise
        out, pca = aligned(spectrum_data(20, 32, seed=8), 32)
        assert pca.degenerate is True
        assert pca.explained_variance[19] == 0.0
        assert np.all(out[:, 19:] == 0.0)
        assert np.max(np.abs(out[:, :19].var(axis=0) - 1.0)) < 1e-6

    @pytest.mark.parametrize("scale", [100.0, 1000.0])
    @pytest.mark.parametrize("n, d_in", [(50, 10), (4, 10)], ids=["tall", "wide"])
    def test_rank_deficient_input_is_degenerate(self, scale, n, d_in):
        # rank 3 before centring; covariance rounding grows with the scale,
        # so only a floor relative to the largest eigenvalue catches it
        rng = np.random.default_rng(11)
        x = scale * rng.standard_normal((n, 3)) @ rng.standard_normal((3, d_in))
        out, pca = aligned(x, d_in)
        rank = min(3, n - 1)
        assert pca.degenerate is True
        assert np.all(pca.explained_variance[rank:] == 0.0)
        assert np.all(pca.explained_variance[:rank] > 0.0)
        assert np.all(out[:, rank:] == 0.0)
        assert np.max(np.abs(out[:, :rank].var(axis=0) - 1.0)) < 1e-6

    @pytest.mark.parametrize("s", [1e-8, 1.0, 1e8])
    def test_scale_changes_nothing(self, s):
        # standardized columns carry no unit, so neither they nor the
        # zero-variance verdict may depend on the features' magnitude
        rng = np.random.default_rng(12)
        full = rng.standard_normal((50, 4))
        deficient = rng.standard_normal((50, 2)) @ rng.standard_normal((2, 6)) + 3.0
        for x in (full, deficient):
            base, base_pca = aligned(x, x.shape[1])
            out, pca = aligned(s * x, x.shape[1])
            assert pca.degenerate is base_pca.degenerate
            assert np.max(np.abs(out - base)) < 1e-10
        assert not aligned(s * full, 4)[1].degenerate

    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e6])
    def test_constant_features_are_degenerate(self, offset):
        x = np.tile(offset + np.array([0.1, -0.7, 0.3]), (40, 1))
        out, pca = aligned(x, 3)
        assert pca.degenerate is True
        assert np.all(pca.explained_variance == 0.0)
        assert np.all(out == 0.0)


class TestColumnScaling:
    def test_hand_values(self):
        # one varying column with population sd sqrt(2/3), one constant
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        out, pca = aligned(x, 2)
        assert np.allclose(out[:, 0], np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0),
                           atol=1e-12)
        # the constant direction is zeroed, not divided by zero
        assert np.all(out[:, 1] == 0.0)
        assert pca.degenerate is True

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_unit_variance_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((50, 4)) * 7.0 + 3.0
        out = align_features(x, 4)
        assert np.max(np.abs(out.mean(axis=0))) < 1e-10
        assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-6


class TestAlignment:
    def test_reduce_when_wide(self):
        x = spectrum_data(60, 20, seed=1)
        out = align_features(x, 8)
        assert out.shape == (60, 8)
        assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-6

    def test_pad_when_narrow(self):
        x = spectrum_data(60, 3, seed=2)
        out = align_features(x, 8)
        assert out.shape == (60, 8)
        assert np.all(out[:, 3:] == 0.0)
        assert np.max(np.abs(out[:, :3].var(axis=0) - 1.0)) < 1e-6

    def test_rank_capped_by_node_count(self):
        x = spectrum_data(4, 10, seed=3)
        out = align_features(x, 8)
        assert out.shape == (4, 8)
        # only min(n, d_in, d) = 4 informative columns
        assert np.all(out[:, 4:] == 0.0)

    def test_learnable_projection_mode(self):
        # the model aligns to its intermediate width in this mode
        x = spectrum_data(30, 5, seed=4)
        out = align_features(x, 16)
        assert out.shape == (30, 16)
        assert np.all(out[:, 5:] == 0.0)

    def test_constant_features_become_zero(self):
        x = np.full((10, 4), 3.5)
        out, pca = aligned(x, 6)
        assert np.all(out == 0.0)
        assert pca.degenerate is True
