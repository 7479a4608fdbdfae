import numpy as np
import pytest

from gilt import autodiff as ad
from gilt.head import class_space, episode_loss, predict


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
        logp = predict(s_out, q_out, labels, n_way=2, d=d, temperature=10.0)
        # cosine of (1,1) with both axes is 1/sqrt(2); equal scores, so uniform
        assert np.max(np.abs(np.exp(logp.values) - 0.5)) < 1e-12

        q_out = t([[5.0, 5.0, 2.0, 0.5]])
        logp = predict(s_out, q_out, labels, n_way=2, d=d, temperature=10.0)
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

    def test_temperature_sharpens(self):
        rng = np.random.default_rng(3)
        s_out = t(rng.standard_normal((4, 4)))
        q_out = t(rng.standard_normal((1, 4)))
        labels = np.array([0, 0, 1, 1])
        soft = predict(s_out, q_out, labels, 2, 2, temperature=1.0).values
        sharp = predict(s_out, q_out, labels, 2, 2, temperature=10.0).values
        assert sharp.max() > soft.max()

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="no support rows"):
            predict(t(np.ones((2, 4))), t(np.ones((1, 4))), np.array([0, 0]), 2, 2)


class TestEpisodeLoss:
    def test_uniform_probs_give_log_n(self):
        logp = t(np.log(np.full((6, 4), 0.25)))
        loss = episode_loss(logp, np.array([0, 1, 2, 3, 0, 1]))
        assert np.isclose(loss.values.item(), np.log(4.0))

    def test_hand_value(self):
        logp = t(np.log([[0.7, 0.3], [0.2, 0.8]]))
        loss = episode_loss(logp, np.array([0, 1]))
        expect = -(np.log(0.7) + np.log(0.8)) / 2.0
        assert np.isclose(loss.values.item(), expect, atol=1e-12)

    def test_large_gap_keeps_loss_finite(self):
        # the true class sits 1000 nats below: its probability underflows
        # to 0, its log-probability does not
        logits = t([[0.0, -1000.0]], grad=True)
        loss = episode_loss(ad.log_softmax(logits), np.array([1]))
        assert np.isclose(loss.values.item(), 1000.0)
        loss.backward()
        assert np.allclose(logits.grad, [[1.0, -1.0]])

    def test_gradients_through_head(self):
        rng = np.random.default_rng(4)
        params = {
            "s": t(rng.standard_normal((6, 6)), grad=True),
            "q": t(rng.standard_normal((3, 6)), grad=True),
        }
        labels = np.array([0, 0, 1, 1, 2, 2])
        q_labels = np.array([2, 0, 1])

        def loss():
            return episode_loss(predict(params["s"], params["q"], labels, 3, 3),
                                q_labels)

        report = ad.grad_check(loss, params, tol=1e-4)
        assert report.passed, report

    def test_perfect_alignment_low_loss(self):
        # queries exactly on their class prototypes, high temperature
        d = 2
        s_out = t([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        q_out = t([[0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 5.0]])
        logp = predict(s_out, q_out, np.array([0, 1]), 2, d, temperature=10.0)
        loss = episode_loss(logp, np.array([0, 1]))
        assert loss.values.item() < 0.01
