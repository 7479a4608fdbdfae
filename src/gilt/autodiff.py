"""Reverse-mode automatic differentiation on dense numpy arrays.

A small tape of differentiable nodes only: every op records, as its parents,
just the inputs that take a gradient, each with its vector-Jacobian closure.
A constant is a numpy operand or a ``Tensor`` with ``requires_grad=False``;
it never enters the tape, and an op whose inputs are all constants makes
another. There is no global mode: what an op records depends on its inputs
alone. ``Tensor.backward`` replays the tape in reverse topological order.
Values inherit the dtype of their inputs (tests and reproducible runs use
64-bit, training may use 32-bit). Reductions go through numpy's pairwise
summation, so single-threaded runs are bit-stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "add",
    "mul",
    "matmul",
    "const_matmul",
    "concat",
    "slice_cols",
    "take_rows",
    "class_means",
    "sum_",
    "relu",
    "log_softmax",
    "layernorm",
    "attention",
    "normalize_rows",
    "grad_check",
    "GradCheckReport",
]

# Floor-form LayerNorm stabilizer: rows with variance above this are
# standardized exactly; near-constant rows divide by sqrt(eps) instead.
LAYERNORM_EPS = 1e-5


class Tensor:
    """A dense array plus a gradient slot and a link into the tape."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this output into the `.grad` of every leaf.

        The tape holds only differentiable parents, so every recorded VJP
        runs and constants get no gradient. A node with parents drops its
        `.grad` as soon as it has passed it on, so peak memory holds only the
        gradients still in flight; leaves keep theirs, summed over every use.
        """
        if seed is None:
            if self.values.size != 1:
                raise ValueError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.values)
        order = _topo_order(self)
        self.grad = np.asarray(seed, dtype=self.values.dtype)
        for node in reversed(order):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                pg = vjp(g)
                if parent.grad is None:
                    parent.grad = pg
                else:
                    parent.grad = parent.grad + pg
            if node._parents:
                # served: only leaves keep a gradient once backward returns
                node.grad = None


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS; tapes for deep models overflow the recursion limit.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _wrap(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.values.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(values: np.ndarray, inputs: Sequence[Tensor], vjps: Sequence[Callable]) -> Tensor:
    live = [(t, v) for t, v in zip(inputs, vjps) if t.requires_grad]
    out = Tensor(values, requires_grad=bool(live))
    if live:
        out._parents, out._vjps = map(tuple, zip(*live))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over the axes numpy broadcast to reach its shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _wrap(a, b if isinstance(b, Tensor) else None)
    b = _wrap(b, a)
    out = a.values + b.values
    return _make(out, (a, b), (
        lambda g: _unbroadcast(g, a.values.shape),
        lambda g: _unbroadcast(g, b.values.shape),
    ))


def mul(a, b) -> Tensor:
    """a * b, broadcast. A float or array operand, such as a keep mask, is a
    constant in the other operand's dtype, so float32 stays float32."""
    a = _wrap(a, b if isinstance(b, Tensor) else None)
    b = _wrap(b, a)
    out = a.values * b.values
    return _make(out, (a, b), (
        lambda g: _unbroadcast(g * b.values, a.values.shape),
        lambda g: _unbroadcast(g * a.values, b.values.shape),
    ))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _t(v: np.ndarray) -> np.ndarray:
    return v.swapaxes(-1, -2)


def _rows(v: np.ndarray) -> np.ndarray:
    """[... x m] -> [rows x m]: every row of every leading index."""
    return v.reshape(-1, v.shape[-1])


def matmul(a, b, transpose_b: bool = False) -> Tensor:
    """a @ b (or a @ b^T), batched over any leading axes numpy broadcasts.

    The gradient of a matrix b shared by a batched a (a weight) is one GEMM
    over all of a's rows."""
    a = _wrap(a)
    b = _wrap(b)
    bv = _t(b.values) if transpose_b else b.values
    out = a.values @ bv

    def grad_a(g):
        return _unbroadcast(g @ _t(bv), a.values.shape)

    def grad_b(g):
        if bv.ndim == 2:
            ra, rg = _rows(a.values), _rows(g)
            return rg.T @ ra if transpose_b else ra.T @ rg
        gb = _t(g) @ a.values if transpose_b else _t(a.values) @ g
        return _unbroadcast(gb, b.values.shape)

    return _make(out, (a, b), (grad_a, grad_b))


def const_matmul(mat, x, mat_t) -> Tensor:
    """Left-multiply by a constant (possibly sparse) matrix: mat @ x.

    The caller passes mat's transpose as `mat_t` (`mat` itself when
    `mat.T @ g == mat @ g` bit for bit), which the backward multiplies by,
    so no op builds `mat.T`.
    """
    x = _wrap(x)
    # x.values and g are ndarrays, so the products are too, sparse mat or not
    return _make(mat @ x.values, (x,), (lambda g: mat_t @ g,))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def concat(parts: Iterable[Tensor], axis: int = 1) -> Tensor:
    parts = [_wrap(p) for p in parts]
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.values.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return _make(out, tuple(parts), tuple(make_vjp(i) for i in range(len(parts))))


def slice_cols(x, start: int, stop: int) -> Tensor:
    x = _wrap(x)
    out = x.values[..., start:stop]

    def vjp(g):
        full = np.zeros_like(x.values)
        full[..., start:stop] = g
        return full

    return _make(np.ascontiguousarray(out), (x,), (vjp,))


def take_rows(x, idx) -> Tensor:
    """Rows of x along axis -2: a slice (a view), or an index array with
    repeats allowed. A matrix x [n x m] gives [*idx.shape x m]; a batch
    x [B x n x m] takes idx [B x k] and gives each batch element rows of its
    own matrix, [B x k x m]."""
    x = _wrap(x)
    if isinstance(idx, slice):
        key = (..., idx, slice(None))
    else:
        idx = np.asarray(idx, dtype=np.intp)
        key = idx if x.values.ndim == 2 else (np.arange(idx.shape[0])[:, None], idx)
    out = x.values[key]

    def vjp(g):
        full = np.zeros_like(x.values)
        if isinstance(idx, slice):
            full[key] = g
        else:
            np.add.at(full, key, g)
        return full

    return _make(out, (x,), (vjp,))


def class_means(x, labels, n_way: int) -> Tensor:
    """[... x n_way x d] mean of the rows of x [... x S x d] carrying each
    label 0..n_way-1, for labels [... x S] (one row of labels per batch
    element)."""
    labels = np.asarray(labels, dtype=np.int64)
    onehot = labels[..., None, :] == np.arange(n_way)[:, None]
    counts = onehot.sum(axis=-1, keepdims=True)
    if not counts.all():
        raise ValueError(f"class {np.argwhere(counts[..., 0] == 0)[0][-1]} has no support rows")
    x = _wrap(x)
    mean = (onehot / counts).astype(x.values.dtype, copy=False)
    return const_matmul(mean, x, mat_t=_t(mean))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _wrap(x)
    out = x.values.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.values.shape).copy()

    return _make(out, (x,), (vjp,))


# ---------------------------------------------------------------------------
# nonlinearities and normalizers
# ---------------------------------------------------------------------------

def relu(x) -> Tensor:
    x = _wrap(x)
    out = np.maximum(x.values, 0)
    return _make(out, (x,), (lambda g: g * (x.values > 0),))


def log_softmax(x) -> Tensor:
    """Row log-softmax over the last axis; finite for any logit gap."""
    x = _wrap(x)
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def vjp(g):
        return g - np.exp(out) * g.sum(axis=-1, keepdims=True)

    return _make(out, (x,), (vjp,))


def layernorm(x, gamma, beta, eps: float = LAYERNORM_EPS) -> Tensor:
    """Row LayerNorm over the last axis (width m) with its affine.

    Forward: xhat = (x - mean) * inv with inv = 1 / sqrt(max(var, eps)), and
    out = xhat * gamma + beta, for gamma and beta of shape (m,). Rows with
    variance above eps are standardized exactly (mean 0, variance 1);
    near-constant rows divide by sqrt(eps) and stay finite.

    VJP, with gg = g * gamma: dx = inv * (gg - mean(gg) - xhat * keep *
    sum(gg * xhat)), where the per-row factor keep is 1/m on rows above the
    floor and 0 on clipped rows, whose denominator is a constant.
    dgamma = sum over rows of g * xhat, dbeta = sum over rows of g.

    One pass per quantity: row means are a BLAS matvec with the vector of
    1/m, row dots are einsums. Every temporary, output and gradient keeps
    x's dtype.
    """
    x = _wrap(x)
    gamma = _wrap(gamma, x)
    beta = _wrap(beta, x)
    m = x.values.shape[-1]
    avg = np.full(m, 1.0 / m, dtype=x.values.dtype)
    xhat = x.values - (x.values @ avg)[..., None]
    var = np.einsum("...i,...i->...", xhat, xhat) * avg[0]
    inv = (1.0 / np.sqrt(np.maximum(var, eps)))[..., None]
    # avg[0] is a scalar of x's dtype; a Python 1/m would promote to float64
    keep = ((var > eps) * avg[0])[..., None]
    xhat *= inv
    out = xhat * gamma.values
    out += beta.values

    def grad_x(g):
        g = g * gamma.values
        dot = np.einsum("...i,...i->...", g, xhat)[..., None] * keep
        g -= (g @ avg)[..., None]
        g -= xhat * dot
        g *= inv
        return g

    return _make(out, (x, gamma, beta), (
        grad_x,
        lambda g: np.einsum("ij,ij->j", _rows(g), _rows(xhat)),
        lambda g: _rows(g).sum(axis=0),
    ))


def attention(a, b, wq, wk, wv, wo, n_heads: int, mask=None) -> Tensor:
    """Multi-head softmax attention of the rows of `a` over the rows of `b`.

    Head i owns columns i*w:(i+1)*w of each projection, w = width / n_heads.
    `a` [... x n x m] and `b` [... x s x m] may carry leading (batch) axes;
    each leading index attends within its own rows. A `mask` of shape
    (..., n_heads, n, s), such as an inverted-dropout keep mask, multiplies
    the attention weights. One tape node; the backward is the
    softmax-attention VJP, computed once for all six inputs, each weight
    gradient one GEMM over all rows, and `a` may be `b`.

    The weights are held keys-major, [... x h x s x n] = k @ q^T, so the
    softmax and its VJP reduce over axis -2: each step is one pass over a
    contiguous buffer whose inner runs are n queries long, not s keys (s is
    a support set of 10-40 tokens, n may be thousands of queries). The
    context is then weights^T @ v. The mask keeps its (..., h, n, s) shape
    and is read transposed, so callers draw it in the same shape and order.
    """
    a, b, wq, wk, wv, wo = (_wrap(t) for t in (a, b, wq, wk, wv, wo))

    def split(x):  # [... x n x m] -> [... x h x n x m/h]
        return x.reshape(x.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)

    def merge(x):  # [... x h x n x m/h] -> [... x n x m]
        x = x.swapaxes(-2, -3)
        return x.reshape(x.shape[:-2] + (-1,))

    q, k, v = split(a.values @ wq.values), split(b.values @ wk.values), split(b.values @ wv.values)
    c = 1.0 / math.sqrt(q.shape[-1])  # a Python float keeps float32 float32
    probs = k @ _t(q)  # [... x h x s x n]; softmax over the keys, axis -2
    probs *= c
    probs -= probs.max(axis=-2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-2, keepdims=True)
    dropped = probs if mask is None else probs * _t(mask)
    merged = merge(_t(dropped) @ v)

    def grads(g):
        g_ctx = split(g @ _t(wo.values))
        g_scores = v @ _t(g_ctx)  # d loss / d dropped, keys-major
        if mask is not None:
            g_scores *= _t(mask)
        g_scores -= (g_scores * probs).sum(axis=-2, keepdims=True)
        g_scores *= probs
        g_scores *= c
        gq, gk, gv = merge(_t(g_scores) @ k), merge(g_scores @ q), merge(dropped @ g_ctx)
        ra, rb = _rows(a.values).T, _rows(b.values).T
        return (gq @ _t(wq.values), gk @ _t(wk.values) + gv @ _t(wv.values),
                ra @ _rows(gq), rb @ _rows(gk), rb @ _rows(gv), _rows(merged).T @ _rows(g))

    memo: list = [None, None]  # (g, grads(g)): the tape calls once per parent

    def part(i):
        def vjp(g):
            if memo[0] is not g:
                memo[:] = g, grads(g)
            return memo[1][i]
        return vjp

    return _make(merged @ wo.values, (a, b, wq, wk, wv, wo), [part(i) for i in range(6)])


def normalize_rows(x, floor: float) -> Tensor:
    """x / max(||row||, floor): unit rows, short rows scaled by 1/floor.

    A zero row stays a zero row.
    """
    x = _wrap(x)
    norm = np.sqrt((x.values * x.values).sum(axis=-1, keepdims=True))
    denom = np.maximum(norm, floor)
    out = x.values / denom
    active = norm > floor

    def vjp(g):
        # Unit rows lose the radial component; floored rows scale linearly.
        radial = out * (g * out).sum(axis=-1, keepdims=True)
        return np.where(active, g - radial, g) / denom

    return _make(out, (x,), (vjp,))


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    per_param: dict[str, float] = field(default_factory=dict)
    worst_param: str = ""
    coords_checked: int = 0

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    h: float = 1e-5,
    tol: float = 1e-4,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of scalar f() against central differences.

    Coordinates are exhaustive unless `max_coords_per_param` caps them
    (sampled with `rng`). Parameters must be 64-bit for the differences to
    resolve at the default step.
    """
    for name, p in params.items():
        if p.values.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 params; {name} is {p.values.dtype}")
        p.zero_grad()

    loss = f()
    if loss.values.size != 1:
        raise ValueError("grad_check target must be scalar")
    if not np.isfinite(loss.values):
        raise FloatingPointError("non-finite loss in grad_check")
    loss.backward()
    analytic = {
        name: (np.zeros_like(p.values) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }

    report = GradCheckReport(max_rel_err=0.0, tol=tol)
    for name, p in params.items():
        flat = p.values.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f().values)
            flat[i] = orig - h
            f_minus = float(f().values)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
            report.coords_checked += 1
        report.per_param[name] = worst
        if worst > report.max_rel_err:
            report.max_rel_err = worst
            report.worst_param = name
    return report


def global_grad_norm(params: Iterable[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return math.sqrt(total)
