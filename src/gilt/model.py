"""End-to-end forward pass: a batch of episodes in, class log-probabilities out.

This module wires the stages together: aligned features (optionally through
a trainable projection), structural encoding, item representations, token
assembly, the two-stage transformer, and the prototype readout. Every step
runs on the same autodiff tape, so one backward call reaches all
parameters, projection and encoder affines included. Every entry point
reads its config from the `GraphBank` it takes, so training and evaluation
cannot encode under two different configs.

One forward serves a batch of B episodes of one level that share n_way and
support size S (a training step's batch, or a pack of an evaluation run).
Each episode encodes on its own; from the item representations on, the
batch runs once, on a leading batch axis: support tokens [B x S x 2d] and
query tokens [B x Qmax x 2d]. An episode with Q_b < Qmax queries is padded
with zero query rows, whose masks are 1 and whose loss weight is 0. No query
reads another query, and the FFN and LayerNorm are row-wise, so in exact
arithmetic pad rows change no real row. LayerNorm is row-local in floating
point too, but a GEMM (the head's cosine, a layer's weight product) can
round a row differently when the row count changes, so pad rows can move a
real row's last bits (see `evaluate.pack_episodes`); runs stay
deterministic.

Training-time stochasticity is a pure function of each episode, drawn here
and nowhere else: `batch_forward` reseeds one rng per episode from its
aug_seed on every call and draws from it, in order, each of the episode's
graphs' feature and edge-keep masks, then per transformer layer the
stage-one (heads, S, S), stage-two (heads, Q_b, S) and FFN
(S+Q_b, ffn_hidden) masks. The batch's masks are these, padded and stacked.
Ops only apply the masks handed in, so replays are exact.

One function encodes: a training episode's graphs run in one call, as one
block-diagonal graph (the disjoint union of its support and query graphs),
and a graph episode pools them with one segment mean. A training node or
link episode passes the nodes its items read, so each hop computes only the
rows later hops need (see `encoder`), and its refs are renumbered into the
rows returned. Evaluation encodes each graph alone through it, whole and
without dropout, once per model, and caches the rows as constants, so an
evaluation forward records a tape only from the item representations on,
and only for parameters that take a gradient.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .encoder import VARIANTS, encode, encoder_init, normalize_adjacency
from .episodes import Episode
from .features import align_features
from .graphs import Corpus
from .head import episode_loss, predict, query_weights
from .tokens import build_tokens, item_repr, mean_pool
from .transformer import transformer_forward, transformer_init


@dataclass(frozen=True)
class ModelConfig:
    d: int = 32
    encoder_layers: int = 4
    transformer_layers: int = 2
    n_heads: int = 4
    ffn_hidden: int = 128
    dropout: float = 0.1
    align_mode: str = "pad"            # "pad" | "learnable-projection"
    intermediate_dim: int = 64
    encoder_variant: str = "linear"    # "linear" | "nonlinear"
    unshared_attention: bool = False
    full_token_prediction: bool = False
    dtype: str = "float64"             # "float32" | "float64"
    seed: int = 0

    def __post_init__(self):
        for name, allowed in (("align_mode", ("pad", "learnable-projection")),
                              ("dtype", ("float32", "float64")),
                              ("encoder_variant", VARIANTS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        for name in ("d", "intermediate_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_heads < 1 or (2 * self.d) % self.n_heads:
            raise ValueError(f"n_heads={self.n_heads} must divide 2d={2 * self.d}")
        # 0 layers is an ablation
        for name in ("encoder_layers", "transformer_layers", "ffn_hidden", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout={self.dropout} outside [0, 1)")

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def init_params(cfg: ModelConfig) -> dict[str, np.ndarray]:
    dtype = cfg.np_dtype()
    params = encoder_init(cfg.d, cfg.encoder_layers, cfg.encoder_variant, dtype=dtype)
    params.update(transformer_init(
        cfg.d, cfg.transformer_layers, cfg.n_heads, cfg.ffn_hidden,
        unshared=cfg.unshared_attention, seed=cfg.seed, dtype=dtype,
    ))
    if cfg.align_mode == "learnable-projection":
        rng = np.random.default_rng(cfg.seed + 7919)
        bound = 1.0 / np.sqrt(cfg.intermediate_dim)
        params["proj_w"] = rng.uniform(-bound, bound,
                                       size=(cfg.intermediate_dim, cfg.d)).astype(dtype)
    return params


def params_to_tensors(arrays: dict[str, np.ndarray],
                      requires_grad: bool = True) -> dict[str, ad.Tensor]:
    return {k: ad.Tensor(v, requires_grad=requires_grad) for k, v in arrays.items()}


@dataclass
class GraphBank:
    """A forward's corpus and config, and its caches of aligned features
    and (eval-only) encoder outputs.

    `cfg` is the only config a forward reads, and the caches, keyed by graph
    index only, are built with it. `use_model` ties the encodings to one
    parameter set. The encodings are constants: no gradient reaches the
    encoder through them.
    """

    corpus: Corpus
    cfg: ModelConfig
    _prepared: dict = field(default_factory=dict)
    _encoded: dict = field(default_factory=dict)
    _encoded_for: str | None = None

    def prepared(self, gi: int) -> np.ndarray:
        """Graph gi's aligned features: intermediate_dim wide when a learnable
        projection lifts them to d, else d wide."""
        if gi not in self._prepared:
            learnable = self.cfg.align_mode == "learnable-projection"
            width = self.cfg.intermediate_dim if learnable else self.cfg.d
            self._prepared[gi] = align_features(self.corpus.graphs[gi].features, width)
        return self._prepared[gi]

    def use_model(self, digest: str) -> None:
        """Tie cached encodings to one parameter set: a different digest
        empties the cache before it can serve another model's rows."""
        if digest != self._encoded_for:
            self._encoded.clear()
            self._encoded_for = digest

    def encoded(self, gi: int, params: dict[str, ad.Tensor]) -> ad.Tensor:
        """Deterministic eval-time encoder output, computed once per graph
        from constant views of `params`, so the cached rows carry no tape."""
        if gi not in self._encoded:
            frozen = {k: ad.Tensor(p.values) for k, p in params.items()}
            self._encoded[gi], _ = _encode_union(self, [gi], frozen, None, 0.0, 0.0)
        return self._encoded[gi]


def _keep_mask(rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
    """Inverted-dropout mask: each entry is 0 with probability p, else 1/(1-p)."""
    return (rng.random(shape) >= p).astype(dtype) * (1.0 / (1.0 - p))


def _transformer_masks(rng: np.random.Generator, cfg: ModelConfig, s: int, q: int):
    """Per layer, its stage-one, stage-two and FFN keep masks, drawn in turn."""
    shapes = ((cfg.n_heads, s, s), (cfg.n_heads, q, s), (s + q, cfg.ffn_hidden))
    return [tuple(_keep_mask(rng, shape, cfg.dropout, cfg.np_dtype()) for shape in shapes)
            for _ in range(cfg.transformer_layers)]


def _batch_masks(rngs, cfg: ModelConfig, s: int, q_sizes):
    """Per layer, the batch's stage-one [B x h x S x S], stage-two
    [B x h x Qmax x S] and FFN [B x (S+Qmax) x ffn] keep masks: each
    episode's own draw, with 1 on its pad rows (the last rows of the
    stage-two and FFN masks)."""
    q_max = max(q_sizes)

    def padded(mask, q):
        if q == q_max:
            return mask
        return np.pad(mask, [(0, 0)] * (mask.ndim - 2) + [(0, q_max - q), (0, 0)],
                      constant_values=1)

    drawn = [[(m1, padded(m2, q), padded(m3, q))
              for m1, m2, m3 in _transformer_masks(rng, cfg, s, q)]
             for rng, q in zip(rngs, q_sizes)]
    return [tuple(map(np.stack, zip(*layer))) for layer in zip(*drawn)]


def _encode_union(bank: GraphBank, refs, params: dict[str, ad.Tensor], rng,
                  feat_drop: float, edge_drop: float,
                  rows=None) -> tuple[ad.Tensor, list[int]]:
    """Encoder rows of the graphs `refs`, stacked in order, plus each graph's
    row count. `rows`, if given, is passed to `encode`, which may then
    return just those rows.

    The graphs run as one disjoint union: their features stacked, their kept
    edges offset into one edge list. The symmetric normalization of a
    disjoint union is the block diagonal of the per-graph ones, so each
    graph's rows are what encoding it alone gives. For each graph in turn
    the rng draws its feature-dropout mask, then its edge-keep mask; with
    both rates 0 it is never read.
    """
    dtype = bank.cfg.np_dtype()
    xs, edges, sizes, offset = [], [], [], 0
    for gi in refs:
        g = bank.corpus.graphs[int(gi)]
        x = bank.prepared(int(gi)).astype(dtype, copy=False)
        if feat_drop > 0.0:
            x = x * _keep_mask(rng, x.shape, feat_drop, dtype)
        kept = g.edges
        if edge_drop > 0.0:
            kept = kept[rng.random(kept.shape[0]) >= edge_drop]
        xs.append(x)
        edges.append(kept + offset)
        sizes.append(g.node_count)
        offset += g.node_count
    adj = normalize_adjacency(offset, np.concatenate(edges)).astype(dtype, copy=False)
    # init_params makes proj_w in learnable-projection mode only
    return encode(adj, np.concatenate(xs), params, bank.cfg.encoder_layers,
                  bank.cfg.encoder_variant, rows, params.get("proj_w")), sizes


def _item_rows(bank: GraphBank, episode: Episode, params, rng):
    """One episode's item source rows and its support and query refs into
    them: its graph's encoder rows (node, link), or one pooled row per graph,
    supports first (graph). With an augmentation rng, a training node or link
    episode encodes only the rows its items read, its refs renumbered."""
    graph_level = episode.level == "graph"
    sup, qry = episode.support_refs, episode.query_refs
    # a graph episode names its graphs, supports first; others name one graph
    refs = np.concatenate([sup, qry]) if graph_level else [episode.graph_index]
    # mean_pool reads every row of a graph episode's graphs
    rows = np.union1d(sup, qry) if rng is not None and not graph_level else None
    if rng is not None:
        h, sizes = _encode_union(bank, refs, params, rng,
                                 episode.feat_drop, episode.edge_drop, rows)
    else:
        hs = [bank.encoded(int(gi), params) for gi in refs]
        h = hs[0] if len(hs) == 1 else ad.concat(hs, axis=0)
        sizes = [x.shape[0] for x in hs]
    if graph_level:
        return mean_pool(h, sizes), np.arange(len(sup)), np.arange(len(sup), len(refs))
    if rows is not None and h.shape[0] == len(rows):  # the encoder kept just these
        sup, qry = np.searchsorted(rows, sup), np.searchsorted(rows, qry)
    return h, sup, qry


def _batch_items(bank: GraphBank, episodes, params, rngs):
    """Support items [B x S x d] and query items [B x Qmax x d] of a batch.

    The episodes' item source rows are concatenated (a batch of one uses
    its own) and each episode's refs are offset into them. The refs of an
    episode's pad query rows name one appended zero row, so its pad items
    are zero rows.
    """
    rows, sup, qry, offset = [], [], [], 0
    for episode, rng in zip(episodes, rngs or [None] * len(episodes)):
        h, s, q = _item_rows(bank, episode, params, rng)
        rows.append(h)
        sup.append(np.asarray(s, dtype=np.int64) + offset)
        qry.append(np.asarray(q, dtype=np.int64) + offset)
        offset += h.shape[0]
    q_max = max(len(q) for q in qry)
    if any(len(q) < q_max for q in qry):
        rows.append(ad.Tensor(np.zeros((1, rows[0].shape[1]), dtype=rows[0].dtype)))
        qry = [np.concatenate([q, np.full((q_max - len(q),) + q.shape[1:], offset)])
               for q in qry]
    h = rows[0] if len(rows) == 1 else ad.concat(rows, axis=0)
    level = episodes[0].level
    return item_repr(h, level, np.array(sup)), item_repr(h, level, np.array(qry))


def batch_tokens(bank: GraphBank, episodes, params: dict[str, ad.Tensor], *,
                 rngs=None):
    """Support [B x S x 2d] and query [B x Qmax x 2d] tokens of a batch of
    episodes, pre-transformer. With `rngs`, one augmentation rng per
    episode, the episodes encode as in training."""
    if len({(ep.level, ep.n_way, ep.support_size) for ep in episodes}) != 1:
        raise ValueError("a batch's episodes must share level, n_way and support size")
    sup, qry = _batch_items(bank, episodes, params, rngs)
    labels = np.array([ep.support_labels for ep in episodes])
    return build_tokens(sup, labels, qry, episodes[0].n_way)


def batch_forward(bank: GraphBank, episodes, params: dict[str, ad.Tensor], *,
                  train: bool = False) -> ad.Tensor:
    """Class log-probabilities [B x Qmax x n_way] for a batch of episodes of
    one level; rows past an episode's own query count are padding."""
    cfg = bank.cfg
    rngs = [np.random.default_rng(ep.aug_seed) for ep in episodes] if train else None
    t_sup, t_qry = batch_tokens(bank, episodes, params, rngs=rngs)
    masks = (_batch_masks(rngs, cfg, t_sup.shape[-2], [ep.query_size for ep in episodes])
             if train and cfg.dropout > 0.0 else None)
    s_out, q_out = transformer_forward(t_sup, t_qry, params, cfg.transformer_layers,
                                       cfg.n_heads, masks, cfg.unshared_attention)
    labels = np.array([ep.support_labels for ep in episodes])
    return predict(s_out, q_out, labels, episodes[0].n_way,
                   cfg.d, full_token=cfg.full_token_prediction)


def batch_probs_and_loss(bank: GraphBank, episodes, params: dict[str, ad.Tensor], *,
                         train: bool = False):
    """The batch's log-probabilities, its loss (the mean of the episodes'
    losses) and each episode's loss as a float array."""
    logp = batch_forward(bank, episodes, params, train=train)
    labels = [ep.query_labels for ep in episodes]
    per_episode = (logp.values * query_weights(logp.values.shape, labels)).sum(axis=(1, 2))
    return logp, episode_loss(logp, labels), per_episode


def episode_probs_and_loss(bank: GraphBank, episode: Episode,
                           params: dict[str, ad.Tensor], *, train: bool = False):
    """One episode's log-probabilities [Q x n_way] and its loss, both from
    one batch forward of a batch of one, its batch axis summed away."""
    logp, loss, _ = batch_probs_and_loss(bank, [episode], params, train=train)
    return ad.sum_(logp, axis=0), loss
