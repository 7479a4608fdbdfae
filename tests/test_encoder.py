import numpy as np
import pytest
import scipy.sparse as sp

from gilt import autodiff as ad
from gilt import encoder
from gilt.encoder import encode, encoder_init, normalize_adjacency
from gilt.graphs import SyntheticSpec, make_synthetic


def dense_reference(node_count, edges):
    # independent dense construction of D^{-1/2} (A + I) D^{-1/2}
    a = np.eye(node_count)
    for s, d in edges:
        a[s, d] = 1.0
        a[d, s] = 1.0
    deg = a.sum(axis=1)
    dinv = np.diag(1.0 / np.sqrt(deg))
    return dinv @ a @ dinv


class TestNormalizedAdjacency:
    def test_path_graph_hand_values(self):
        # path 0-1-2; degrees with self-loops are [2, 3, 2]
        adj = normalize_adjacency(3, np.array([[0, 1], [1, 2]])).toarray()
        off = 1.0 / np.sqrt(6.0)
        expect = np.array([
            [0.5, off, 0.0],
            [off, 1.0 / 3.0, off],
            [0.0, off, 0.5],
        ])
        assert np.max(np.abs(adj - expect)) < 1e-12

    def test_isolated_node_keeps_unit_self_loop(self):
        adj = normalize_adjacency(3, np.array([[0, 1]])).toarray()
        assert adj[2, 2] == 1.0
        assert np.all(adj[2, :2] == 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_sparse_matches_dense(self, seed):
        g = make_synthetic(SyntheticSpec(2, 15, 0.3, 0.1, 4, 1.0, 0.2, seed=seed))
        assert g.node_count <= 50
        sparse = normalize_adjacency(g.node_count, g.edges).toarray()
        assert np.max(np.abs(sparse - dense_reference(g.node_count, g.edges))) < 1e-12

    def test_symmetric(self):
        g = make_synthetic(SyntheticSpec(3, 10, 0.4, 0.1, 4, 1.0, 0.2, seed=3))
        adj = normalize_adjacency(g.node_count, g.edges).toarray()
        assert np.max(np.abs(adj - adj.T)) < 1e-15

    def test_returns_csr(self):
        adj = normalize_adjacency(4, np.array([[0, 1], [2, 3]]))
        assert sp.issparse(adj) and adj.format == "csr"


def diags_reference(node_count, edges):
    # the COO -> CSR -> D @ A @ D construction the edge-list build replaced
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = np.arange(node_count, dtype=np.int64)
    rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
    cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
    a = sp.coo_matrix(
        (np.ones(rows.shape[0]), (rows, cols)),
        shape=(node_count, node_count),
    ).tocsr()
    deg = np.asarray(a.sum(axis=1)).ravel()
    d_inv_sqrt = sp.diags(1.0 / np.sqrt(deg))
    return (d_inv_sqrt @ a @ d_inv_sqrt).tocsr()


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


def _dropped(edges, rate, seed):
    keep = np.random.default_rng(seed).random(edges.shape[0]) >= rate
    return edges[keep]


def _cases():
    cases = []
    for seed in range(6):
        g = make_synthetic(SyntheticSpec(4, 20, 0.4, 0.05, 8, 1.0, 0.2, seed=seed))
        cases.append(pytest.param(g.node_count, g.edges, id=f"graph{seed}"))
        cases.append(pytest.param(g.node_count, _dropped(g.edges, 0.1, seed),
                                  id=f"graph{seed}-dropped"))
    g = make_synthetic(SyntheticSpec(3, 300, 0.04, 0.004, 4, 1.0, 0.2, seed=9))
    cases.append(pytest.param(g.node_count, g.edges, id="900-nodes"))
    cases.append(pytest.param(g.node_count, _dropped(g.edges, 0.1, 9),
                              id="900-nodes-dropped"))
    return cases + [
        pytest.param(5, [[0, 1], [1, 0], [0, 1], [2, 3], [3, 4], [4, 3]],
                     id="duplicate-edges"),
        pytest.param(4, [[0, 0], [1, 1], [1, 1], [0, 1], [2, 3]], id="self-loops"),
        pytest.param(6, [[1, 2], [2, 4]], id="isolated-nodes"),
        pytest.param(4, np.empty((0, 2), dtype=np.int64), id="no-edges"),
        pytest.param(5, [[4, 0], [3, 1], [0, 2], [2, 1]], id="unsorted-rows"),
    ]


CASES = _cases()


class TestEdgeListBuildMatchesDiagsReference:
    @pytest.mark.parametrize("n,edges", CASES)
    def test_same_csr_bytes(self, n, edges):
        assert_same_csr(normalize_adjacency(n, edges), diags_reference(n, edges))

    @pytest.mark.parametrize("n,edges", CASES)
    def test_exactly_symmetric(self, n, edges):
        adj = normalize_adjacency(n, edges)
        assert_same_csr(adj.T.tocsr(), adj)
        assert adj.has_sorted_indices

    def test_edge_listed_three_times_is_symmetric_where_the_product_was_not(self):
        # (d_i * 3) * d_j and (d_j * 3) * d_i can round apart, so D @ A @ D
        # was not exactly symmetric here; the edge-list build computes both
        # mirror entries as the one with row <= col, which is the old value
        edges = [[0, 1]] * 3 + [[1, 2]] * 3 + [[0, 2]]
        adj = normalize_adjacency(3, edges).toarray()
        ref = diags_reference(3, edges).toarray()
        assert not np.array_equal(ref, ref.T)
        assert np.array_equal(adj, adj.T)
        upper = np.triu_indices(3)
        assert np.array_equal(adj[upper], ref[upper])
        assert np.max(np.abs(adj - ref)) <= 2 * np.finfo(np.float64).eps


def tensor_params(arrays):
    return {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}


class TestEncode:
    def setup_method(self):
        self.g = make_synthetic(SyntheticSpec(2, 10, 0.4, 0.1, 6, 1.0, 0.3, seed=1))
        self.adj = normalize_adjacency(self.g.node_count, self.g.edges)
        self.x = self.g.features

    def test_zero_layers_is_identity(self):
        h = encode(self.adj, self.x, {}, n_layers=0)
        assert np.array_equal(h.values, self.x)

    def test_rows_standardized_at_default_affine(self):
        params = tensor_params(encoder_init(6, 3))
        h = encode(self.adj, self.x, params, n_layers=3).values
        assert np.max(np.abs(h.mean(axis=1))) < 1e-10
        assert np.max(np.abs(h.var(axis=1) - 1.0)) < 1e-6

    def test_matches_numpy_reference(self):
        params = tensor_params(encoder_init(6, 2))
        h = encode(self.adj, self.x, params, n_layers=2).values

        ref = self.x.copy()
        dense = self.adj.toarray()
        for _ in range(2):
            ref = dense @ ref
            mu = ref.mean(axis=1, keepdims=True)
            var = ref.var(axis=1, keepdims=True)
            ref = (ref - mu) / np.sqrt(np.maximum(var, ad.LAYERNORM_EPS))
        assert np.max(np.abs(h - ref)) < 1e-10

    def test_affine_applied(self):
        arrays = encoder_init(6, 1)
        arrays["enc_ln0_gamma"] = np.full(6, 2.0)
        arrays["enc_ln0_beta"] = np.full(6, -1.0)
        base = encode(self.adj, self.x, tensor_params(encoder_init(6, 1)), 1).values
        scaled = encode(self.adj, self.x, tensor_params(arrays), 1).values
        assert np.max(np.abs(scaled - (2.0 * base - 1.0))) < 1e-12

    def test_gradients_reach_affines(self):
        # a plain sum of squares is blind to the trailing LayerNorm, so
        # weight the entries to give every affine a real gradient
        params = tensor_params(encoder_init(4, 2))
        adj = normalize_adjacency(5, np.array([[0, 1], [1, 2], [3, 4]]))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 4))
        w = rng.standard_normal((5, 4))

        def loss():
            h = encode(adj, x, params, n_layers=2)
            return ad.sum_(ad.mul(ad.mul(h, h), w))

        report = ad.grad_check(loss, params, tol=1e-4)
        assert report.passed, report

    def test_nonlinear_variant_gradients(self):
        params = tensor_params(encoder_init(4, 1, variant="nonlinear"))
        # shift inputs positive so ReLU is locally smooth for the check
        adj = normalize_adjacency(4, np.array([[0, 1], [2, 3]]))
        rng = np.random.default_rng(1)
        x = np.abs(rng.standard_normal((4, 4))) + 0.5
        w = rng.standard_normal((4, 4))

        def loss():
            h = encode(adj, x, params, n_layers=1, variant="nonlinear")
            return ad.sum_(ad.mul(ad.mul(h, h), w))

        report = ad.grad_check(loss, params, tol=1e-4)
        assert report.passed, report

    def test_nonlinear_init_has_identity_weight(self):
        arrays = encoder_init(5, 2, variant="nonlinear")
        assert np.array_equal(arrays["enc_w0"], np.eye(5))
        assert "enc_w1" in arrays

    def test_edgeless_graph_encodes(self):
        adj = normalize_adjacency(4, np.empty((0, 2), dtype=np.int64))
        x = np.random.default_rng(2).standard_normal((4, 6))
        params = tensor_params(encoder_init(6, 2))
        h = encode(adj, x, params, n_layers=2).values
        assert h.shape == (4, 6)
        assert np.all(np.isfinite(h))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            encoder_init(4, 1, variant="residual")
        with pytest.raises(ValueError, match="variant"):
            encode(self.adj, self.x, {}, 1, variant="gat")

    def test_deterministic(self):
        params = tensor_params(encoder_init(6, 2))
        a = encode(self.adj, self.x, params, 2).values
        b = encode(self.adj, self.x, params, 2).values
        assert a.tobytes() == b.tobytes()


def encode_via_transpose(adj, x, params, n_layers, variant):
    # the propagation stack with a backward that multiplies by adj.T
    h = x
    for i in range(n_layers):
        h = ad.const_matmul(adj, h, mat_t=adj.T)
        if variant == "nonlinear":
            h = ad.relu(ad.matmul(h, params[f"enc_w{i}"]))
        h = ad.layernorm(h, params[f"enc_ln{i}_gamma"], params[f"enc_ln{i}_beta"])
    return h


class TestSymmetricBackward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", ["linear", "nonlinear"])
    def test_bitwise_equal_to_transpose_backward(self, variant, dtype):
        g = make_synthetic(SyntheticSpec(4, 30, 0.3, 0.03, 8, 1.0, 0.2, seed=5))
        adj = normalize_adjacency(g.node_count, g.edges).astype(dtype)
        rng = np.random.default_rng(0)
        w = rng.standard_normal((g.node_count, 8)).astype(dtype)
        arrays = encoder_init(8, 3, variant=variant, dtype=dtype)
        for k in arrays:
            arrays[k] = (arrays[k] + 0.1 * rng.standard_normal(arrays[k].shape)).astype(dtype)
        x0 = g.features.astype(dtype)

        def run(fn):
            params = tensor_params(arrays)
            x = ad.Tensor(x0, requires_grad=True)
            h = fn(adj, x, params, 3, variant)
            ad.sum_(ad.mul(ad.mul(h, h), w)).backward()
            return h.values, x.grad, {k: p.grad for k, p in params.items()}

        h, gx, grads = run(encode)
        h_ref, gx_ref, grads_ref = run(encode_via_transpose)
        assert h.dtype == dtype and h.tobytes() == h_ref.tobytes()
        assert gx.dtype == dtype and gx.tobytes() == gx_ref.tobytes()
        for k in grads_ref:
            assert grads[k].tobytes() == grads_ref[k].tobytes(), k


def encode_unrestricted(adj, x, params, n_layers, variant="linear"):
    # `encode` before row restriction: every hop runs over every row
    h = x if isinstance(x, ad.Tensor) else ad.Tensor(np.asarray(x))
    for i in range(n_layers):
        h = ad.const_matmul(adj, h, mat_t=adj)
        if variant == "nonlinear":
            h = ad.relu(ad.matmul(h, params[f"enc_w{i}"]))
        h = ad.layernorm(h, params[f"enc_ln{i}_gamma"], params[f"enc_ln{i}_beta"])
    return h


class TestRestrictedRows:
    """`encode(..., rows=...)` against the unrestricted stack: the rows read
    and every gradient agree, on a sparse graph where the later hops run on
    row slices of the adjacency."""

    TOL = {np.float64: 1e-12, np.float32: 1e-5}

    @pytest.fixture(scope="class")
    def graph(self):
        # 400 nodes, mean degree about 3
        g = make_synthetic(SyntheticSpec(4, 100, 0.024, 0.002, 6, 1.0, 0.5, seed=11))
        rows = np.sort(np.random.default_rng(0).choice(g.node_count, 12, replace=False))
        return g, rows

    @staticmethod
    def arrays(width, n_layers, variant, dtype):
        rng = np.random.default_rng(3)
        arrays = encoder_init(width, n_layers, variant=variant, dtype=dtype)
        return {k: (v + 0.1 * rng.standard_normal(v.shape)).astype(dtype)
                for k, v in arrays.items()}

    def run(self, fn, adj, x0, arrays, w, n_layers, variant, proj=None):
        params = tensor_params(arrays)
        x = ad.Tensor(x0, requires_grad=True)
        proj_w = None if proj is None else ad.Tensor(proj, requires_grad=True)
        h = fn(adj, x, params, n_layers, variant, proj_w)
        ad.sum_(ad.mul(ad.mul(h, h), w)).backward()
        grads = {k: p.grad for k, p in params.items()}
        grads["x"] = x.grad
        if proj_w is not None:
            grads["proj_w"] = proj_w.grad
        return h.values, grads

    def check(self, adj, x0, rows, n_layers, variant, dtype, proj=None):
        arrays = self.arrays(x0.shape[1] if proj is None else proj.shape[1],
                             n_layers, variant, dtype)
        w = np.random.default_rng(4).standard_normal(
            (adj.shape[0], arrays["enc_ln0_beta"].shape[0] if n_layers
             else x0.shape[1])).astype(dtype)

        def restricted(adj, x, params, n_layers, variant, proj_w):
            return encode(adj, x, params, n_layers, variant, rows=rows, proj_w=proj_w)

        def oracle(adj, x, params, n_layers, variant, proj_w):
            if proj_w is not None:
                x = ad.matmul(x, proj_w)
            return ad.take_rows(encode_unrestricted(adj, x, params, n_layers, variant),
                                rows)

        h, grads = self.run(restricted, adj, x0, arrays, w[rows], n_layers, variant, proj)
        h_ref, grads_ref = self.run(oracle, adj, x0, arrays, w[rows], n_layers,
                                    variant, proj)
        tol = self.TOL[dtype]
        assert h.dtype == h_ref.dtype == dtype and h.shape == (len(rows), w.shape[1])
        assert np.max(np.abs(h - h_ref)) <= tol * np.max(np.abs(h_ref))
        assert grads.keys() == grads_ref.keys()
        for k, want in grads_ref.items():
            assert grads[k].dtype == dtype, k
            assert np.max(np.abs(grads[k] - want)) <= tol * np.max(np.abs(want)), k

    def test_later_hops_run_on_row_slices(self, graph):
        g, rows = graph
        adj = normalize_adjacency(g.node_count, g.edges)
        hops, x_rows = encoder._hops(adj, rows, 4)
        assert [mat.shape for mat, _ in hops] == [(400, 400), (122, 400), (44, 122),
                                                 (12, 44)]
        assert hops[0][0] is adj and x_rows is None
        hops, x_rows = encoder._hops(adj, rows, 2)
        assert [mat.shape for mat, _ in hops] == [(44, 122), (12, 44)]
        assert len(x_rows) == 122

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_layers", [4, 2, 0])
    @pytest.mark.parametrize("variant", ["linear", "nonlinear"])
    def test_matches_unrestricted(self, graph, variant, n_layers, dtype):
        g, rows = graph
        adj = normalize_adjacency(g.node_count, g.edges).astype(dtype)
        self.check(adj, g.features.astype(dtype), rows, n_layers, variant, dtype)

    @pytest.mark.parametrize("n_layers", [4, 2])
    def test_projection_runs_on_the_rows_read(self, graph, n_layers):
        g, rows = graph
        adj = normalize_adjacency(g.node_count, g.edges)
        proj = np.random.default_rng(5).standard_normal((g.features.shape[1], 4))
        self.check(adj, g.features, rows, n_layers, "linear", np.float64, proj)

    def test_rows_over_half_the_graph_run_unrestricted(self):
        g = make_synthetic(SyntheticSpec(4, 30, 0.3, 0.03, 8, 1.0, 0.2, seed=5))
        adj = normalize_adjacency(g.node_count, g.edges)
        params = tensor_params(encoder_init(8, 3))
        # one row over half: every hop, the last included, keeps every row
        rows = np.arange(g.node_count // 2 + 1)
        h = encode(adj, g.features, params, 3, rows=rows).values
        want = encode_unrestricted(adj, g.features, params, 3).values
        assert h.shape == want.shape and h.tobytes() == want.tobytes()
