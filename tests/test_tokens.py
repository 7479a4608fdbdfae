import numpy as np
import pytest

from gilt import autodiff as ad
from gilt.tokens import (
    TokenSet,
    build_tokens,
    class_prototypes,
    item_repr,
    mean_pool,
    read_tokens,
    write_tokens,
)


def t(values):
    return ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestItemRepr:
    def test_node_rows(self):
        h = t(np.arange(12.0).reshape(4, 3))
        out = item_repr(h, "node", np.array([2, 0]))
        assert np.array_equal(out.values, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])

    def test_link_elementwise_product(self):
        h = t([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = item_repr(h, "link", np.array([[0, 2], [1, 1]]))
        assert np.array_equal(out.values, [[5.0, 12.0], [9.0, 16.0]])

    def test_graph_mean_pool(self):
        h = t([[1.0, 2.0], [3.0, 6.0]])
        out = mean_pool(h, [2])
        assert out.values.shape == (1, 2)
        assert np.array_equal(out.values, [[2.0, 4.0]])

    def test_mean_pool_segments(self):
        # three stacked graphs of 2, 1 and 3 rows: one mean row each
        rows = np.random.default_rng(0).standard_normal((6, 3))
        sizes = [2, 1, 3]
        want = np.stack([rows[:2].mean(axis=0), rows[2], rows[3:].mean(axis=0)])
        out = mean_pool(t(rows), sizes)
        assert out.values.shape == (3, 3)
        assert np.max(np.abs(out.values - want)) < 1e-15

    def test_mean_pool_gradient_and_dtype(self):
        x = t(np.random.default_rng(1).standard_normal((5, 2)))
        weights = ad.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
        report = ad.grad_check(
            lambda: ad.sum_(ad.mul(mean_pool(x, [4, 1]), weights)), {"x": x})
        assert report.passed, report
        h32 = ad.Tensor(np.ones((3, 2), dtype=np.float32))
        assert mean_pool(h32, [1, 2]).values.dtype == np.float32

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="node/link/graph"):
            item_repr(t([[1.0]]), "edge", np.array([0]))

    def test_batched_refs_gather_per_episode(self):
        # refs with a leading batch axis gather a [B x k x d] block; graph
        # items are rows of the pooled matrix
        h = t(np.arange(12.0).reshape(6, 2))
        out = item_repr(h, "graph", np.array([[0, 2], [5, 5]]))
        assert np.array_equal(out.values, [[[0.0, 1.0], [4.0, 5.0]],
                                           [[10.0, 11.0], [10.0, 11.0]]])
        links = item_repr(h, "link", np.array([[[0, 1]], [[2, 3]]]))
        assert np.array_equal(links.values, [[[0.0, 3.0]], [[24.0, 35.0]]])


class TestPrototypes:
    def test_hand_oracle(self):
        reprs = t([[2.0, 0.0], [0.0, 2.0], [0.0, 4.0], [0.0, 2.0]])
        labels = np.array([0, 0, 1, 1])
        p = class_prototypes(reprs, labels, 2).values
        # class 0 mean (1, 1) normalizes to (1/sqrt2, 1/sqrt2); class 1 mean (0, 3) to (0, 1)
        assert np.max(np.abs(p[0] - 1.0 / np.sqrt(2.0))) < 1e-12
        assert np.max(np.abs(p[1] - [0.0, 1.0])) < 1e-12
        assert np.allclose(np.linalg.norm(p, axis=1), 1.0)

    def test_zero_mean_class_stays_zero(self):
        reprs = t([[1.0, -1.0], [-1.0, 1.0], [3.0, 0.0]])
        labels = np.array([0, 0, 1])
        p = class_prototypes(reprs, labels, 2).values
        assert np.array_equal(p[0], [0.0, 0.0])

    def test_support_order_invariant(self):
        rng = np.random.default_rng(0)
        reprs = rng.standard_normal((8, 5))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        perm = rng.permutation(8)
        a = class_prototypes(t(reprs), labels, 2).values
        b = class_prototypes(t(reprs[perm]), labels[perm], 2).values
        assert np.max(np.abs(a - b)) < 1e-12

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="no support rows"):
            class_prototypes(t([[1.0, 2.0]]), np.array([0]), 2)


class TestBuildTokens:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.sup = rng.standard_normal((6, 4))
        self.lab = np.array([0, 1, 2, 0, 1, 2])
        self.qry = rng.standard_normal((5, 4))

    def test_widths(self):
        ts, tq = build_tokens(t(self.sup), self.lab, t(self.qry), 3)
        assert ts.values.shape == (6, 8)
        assert tq.values.shape == (5, 8)

    def test_query_label_slice_bitwise_zero(self):
        _, tq = build_tokens(t(self.sup), self.lab, t(self.qry), 3)
        assert tq.values[:, 4:].tobytes() == np.zeros((5, 4)).tobytes()

    def test_support_carries_own_class_prototype(self):
        ts, _ = build_tokens(t(self.sup), self.lab, t(self.qry), 3)
        protos = class_prototypes(t(self.sup), self.lab, 3).values
        for i, c in enumerate(self.lab):
            assert np.array_equal(ts.values[i, 4:], protos[c])
            assert np.array_equal(ts.values[i, :4], self.sup[i])

    def test_gradients_flow(self):
        params = {"sup": t(self.sup), "qry": t(self.qry)}
        w_s = np.random.default_rng(2).standard_normal((6, 8))
        w_q = np.random.default_rng(3).standard_normal((5, 8))

        def loss():
            ts, tq = build_tokens(params["sup"], self.lab, params["qry"], 3)
            return ad.add(ad.sum_(ad.mul(ts, w_s)), ad.sum_(ad.mul(tq, w_q)))

        report = ad.grad_check(loss, params, tol=1e-4)
        assert report.passed, report


class TestTokenSetIO:
    def make_set(self, seed=0):
        rng = np.random.default_rng(seed)
        return TokenSet(
            support=rng.standard_normal((6, 8)).astype(np.float32),
            query=rng.standard_normal((4, 8)).astype(np.float32),
            support_labels=np.array([0, 0, 1, 1, 2, 2], dtype=np.int64),
            query_labels=np.array([2, 1, 0, 1], dtype=np.int64),
            class_ids=np.array([7, 3, 9], dtype=np.int64),
            n_way=3, k_shot=2, d=4,
        )

    def test_round_trip_bit_exact(self, tmp_path):
        ts = self.make_set()
        back = read_tokens(write_tokens(ts, tmp_path / "ep.tok"))
        assert back.support.tobytes() == ts.support.tobytes()
        assert back.query.tobytes() == ts.query.tobytes()
        assert np.array_equal(back.support_labels, ts.support_labels)
        assert np.array_equal(back.query_labels, ts.query_labels)
        assert np.array_equal(back.class_ids, ts.class_ids)
        assert (back.n_way, back.k_shot, back.d) == (3, 2, 4)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.tok"
        p.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError, match="magic"):
            read_tokens(p)

    def test_truncated(self, tmp_path):
        p = write_tokens(self.make_set(), tmp_path / "short.tok")
        data = p.read_bytes()
        p.write_bytes(data[:-7])
        with pytest.raises(ValueError, match="expected"):
            read_tokens(p)

    def test_width_validated(self):
        with pytest.raises(ValueError, match="2\\*d"):
            TokenSet(
                support=np.zeros((2, 6), dtype=np.float32),
                query=np.zeros((1, 6), dtype=np.float32),
                support_labels=np.zeros(2, dtype=np.int64),
                query_labels=np.zeros(1, dtype=np.int64),
                class_ids=np.array([0, 1]), n_way=2, k_shot=1, d=4,
            )

    def test_write_casts_to_storage_dtypes(self, tmp_path):
        # float64 tokens and int32 labels, as a forward and a sampler may
        # hand them over, are stored as float32 and int64
        rng = np.random.default_rng(9)
        sup, qry = rng.standard_normal((4, 6)), rng.standard_normal((2, 6))
        ts = TokenSet(sup, qry, np.array([0, 0, 1, 1], np.int32), np.array([1, 0], np.int32),
                      np.array([5, 8], np.int32), 2, 2, 3)
        back = read_tokens(write_tokens(ts, tmp_path / "f.tok"))
        assert back.support.dtype == back.query.dtype == np.float32
        assert np.array_equal(back.support, sup.astype(np.float32))
        assert np.array_equal(back.query, qry.astype(np.float32))
        for name in ("support_labels", "query_labels", "class_ids"):
            got = getattr(back, name)
            assert got.dtype == np.int64 and np.array_equal(got, getattr(ts, name)), name
