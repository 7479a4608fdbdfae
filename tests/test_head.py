import numpy as np
import pytest

from gilt import autodiff as ad
from gilt import head
from gilt.head import class_space, episode_loss, predict, query_weights


def t(values, grad=False):
    return ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


def softmax_np(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TestClassSpace:
    def test_trailing_slice(self):
        tok = t(np.arange(8.0).reshape(2, 4))
        out = class_space(tok, d=2)
        assert np.array_equal(out.values, [[2.0, 3.0], [6.0, 7.0]])

    def test_full_token_ablation(self):
        tok = t(np.arange(8.0).reshape(2, 4))
        assert class_space(tok, d=2, full_token=True) is tok


class TestPredict:
    def test_hand_oracle(self):
        # class spaces chosen so prototypes are the coordinate axes
        d = 2
        s_out = t([
            [9.0, 9.0, 2.0, 0.0],
            [9.0, 9.0, 4.0, 0.0],
            [9.0, 9.0, 0.0, 1.0],
            [9.0, 9.0, 0.0, 3.0],
        ])
        q_out = t([[5.0, 5.0, 1.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        logp = predict(s_out, q_out, labels, n_way=2, d=d)
        # cosine of (1,1) with both axes is 1/sqrt(2); equal scores, so uniform
        assert np.max(np.abs(np.exp(logp.values) - 0.5)) < 1e-12

        q_out = t([[5.0, 5.0, 2.0, 0.5]])
        logp = predict(s_out, q_out, labels, n_way=2, d=d)
        qv = np.array([2.0, 0.5])
        cos = qv / np.linalg.norm(qv)
        expect = softmax_np(10.0 * cos[None, :])
        assert np.max(np.abs(logp.values - np.log(expect))) < 1e-12

    def test_leading_columns_ignored(self):
        rng = np.random.default_rng(0)
        cls = rng.standard_normal((6, 3))
        qcls = rng.standard_normal((2, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        a = predict(t(np.concatenate([rng.standard_normal((6, 3)), cls], axis=1)),
                    t(np.concatenate([rng.standard_normal((2, 3)), qcls], axis=1)),
                    labels, 3, 3)
        b = predict(t(np.concatenate([rng.standard_normal((6, 3)), cls], axis=1)),
                    t(np.concatenate([rng.standard_normal((2, 3)), qcls], axis=1)),
                    labels, 3, 3)
        assert np.array_equal(a.values, b.values)

    def test_full_token_mode_uses_leading_columns(self):
        rng = np.random.default_rng(1)
        s_out = rng.standard_normal((4, 4))
        q_out = rng.standard_normal((2, 4))
        labels = np.array([0, 0, 1, 1])
        half = predict(t(s_out), t(q_out), labels, 2, 2)
        full = predict(t(s_out), t(q_out), labels, 2, 2, full_token=True)
        assert not np.array_equal(half.values, full.values)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        logp = predict(t(rng.standard_normal((9, 6))), t(rng.standard_normal((4, 6))),
                       np.array([0, 0, 0, 1, 1, 1, 2, 2, 2]), 3, 3)
        assert np.max(np.abs(np.exp(logp.values).sum(axis=1) - 1.0)) < 1e-12

    def test_temperature_sharpens(self, monkeypatch):
        rng = np.random.default_rng(3)
        s_out = t(rng.standard_normal((4, 4)))
        q_out = t(rng.standard_normal((1, 4)))
        labels = np.array([0, 0, 1, 1])
        monkeypatch.setattr(head, "TEMPERATURE", 1.0)
        soft = predict(s_out, q_out, labels, 2, 2).values
        monkeypatch.setattr(head, "TEMPERATURE", 10.0)
        sharp = predict(s_out, q_out, labels, 2, 2).values
        assert sharp.max() > soft.max()

    def test_zero_query_row_is_uniform(self):
        # a query whose class space is zero has cosine 0 with every
        # prototype, so every class gets log(1/n_way)
        rng = np.random.default_rng(5)
        s_out = t(rng.standard_normal((6, 6)))
        q_out = t(np.concatenate([rng.standard_normal((2, 3)), np.zeros((2, 3))], axis=1))
        logp = predict(s_out, q_out, np.array([0, 0, 1, 1, 2, 2]), 3, 3).values
        assert np.array_equal(logp, np.full((2, 3), np.log(1.0 / 3.0)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_class_means_cosine_path(self, dtype):
        # the readout before it shared tokens.class_prototypes: class means,
        # then a cosine of floored unit rows; same ops, same bytes
        def cosine_path(s_out, q_out, labels, n_way, d):
            protos = ad.class_means(class_space(s_out, d), labels, n_way)
            scores = ad.matmul(ad.normalize_rows(class_space(q_out, d), 1e-12),
                               ad.normalize_rows(protos, 1e-12), transpose_b=True)
            return ad.log_softmax(ad.mul(scores, 10.0))

        rng = np.random.default_rng(6)
        s_out = ad.Tensor(rng.standard_normal((3, 8, 8)).astype(dtype), requires_grad=True)
        q_out = ad.Tensor(rng.standard_normal((3, 5, 8)).astype(dtype), requires_grad=True)
        labels = np.array([[0, 1, 2, 3] * 2, [3, 3, 2, 2, 1, 1, 0, 0], [0, 1, 1, 2, 3, 0, 2, 3]])
        seed = rng.standard_normal((3, 5, 4)).astype(dtype)
        results = []
        for forward in (predict, cosine_path):
            out = forward(s_out, q_out, labels, 4, 4)
            out.backward(seed)
            results.append((out.values, s_out.grad, q_out.grad))
            s_out.zero_grad()
            q_out.zero_grad()
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="no support rows"):
            predict(t(np.ones((2, 4))), t(np.ones((1, 4))), np.array([0, 0]), 2, 2)


class TestEpisodeLoss:
    # the head takes batches [B x Qmax x n_way] with one label array per episode
    def test_uniform_probs_give_log_n(self):
        logp = t(np.log(np.full((1, 6, 4), 0.25)))
        loss = episode_loss(logp, [np.array([0, 1, 2, 3, 0, 1])])
        assert np.isclose(loss.values.item(), np.log(4.0))

    def test_hand_value(self):
        logp = t(np.log([[[0.7, 0.3], [0.2, 0.8]]]))
        loss = episode_loss(logp, [np.array([0, 1])])
        expect = -(np.log(0.7) + np.log(0.8)) / 2.0
        assert np.isclose(loss.values.item(), expect, atol=1e-12)

    def test_batch_mean_of_episode_means_ignores_pad_rows(self):
        # episode 0 has 2 queries, episode 1 has 1 and a pad row
        logp = t(np.log([[[0.7, 0.3], [0.2, 0.8]], [[0.4, 0.6], [1e-3, 1.0 - 1e-3]]]))
        labels = [np.array([0, 1]), np.array([1])]
        assert np.array_equal(query_weights(logp.shape, labels),
                              [[[-0.5, 0.0], [0.0, -0.5]], [[0.0, -1.0], [0.0, 0.0]]])
        loss = episode_loss(logp, labels)
        expect = (-(np.log(0.7) + np.log(0.8)) / 2.0 - np.log(0.6)) / 2.0
        assert np.isclose(loss.values.item(), expect, atol=1e-12)

    def test_large_gap_keeps_loss_finite(self):
        # the true class sits 1000 nats below: its probability underflows
        # to 0, its log-probability does not
        logits = t([[[0.0, -1000.0]]], grad=True)
        loss = episode_loss(ad.log_softmax(logits), [np.array([1])])
        assert np.isclose(loss.values.item(), 1000.0)
        loss.backward()
        assert np.allclose(logits.grad, [[[1.0, -1.0]]])

    def test_gradients_through_head(self):
        rng = np.random.default_rng(4)
        params = {
            "s": t(rng.standard_normal((1, 6, 6)), grad=True),
            "q": t(rng.standard_normal((1, 3, 6)), grad=True),
        }
        labels = np.array([[0, 0, 1, 1, 2, 2]])
        q_labels = [np.array([2, 0, 1])]

        def loss():
            return episode_loss(predict(params["s"], params["q"], labels, 3, 3),
                                q_labels)

        report = ad.grad_check(loss, params, tol=1e-4)
        assert report.passed, report

    def test_perfect_alignment_low_loss(self):
        # queries exactly on their class prototypes, high temperature
        d = 2
        s_out = t([[[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]])
        q_out = t([[[0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 5.0]]])
        logp = predict(s_out, q_out, np.array([[0, 1]]), 2, d)
        loss = episode_loss(logp, [np.array([0, 1])])
        assert loss.values.item() < 0.01
