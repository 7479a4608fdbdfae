"""End-to-end episode forward pass: graph in, class log-probabilities out.

This module wires the stages together: aligned features (optionally through
a trainable projection), structural encoding, item representations, token
assembly, the two-stage transformer, and the prototype readout. Every step
runs on the same autodiff tape, so one backward call reaches all
parameters, projection and encoder affines included.

Training-time stochasticity is a pure function of the episode, drawn here and
nowhere else: `episode_forward` reseeds one rng from episode.aug_seed on every
call and draws, in order, each graph's feature and edge-keep masks, then per
transformer layer the stage-one (heads, S, S), stage-two (heads, Q, S) and FFN
(S+Q, ffn_hidden) masks. Ops only apply the masks handed in, so replays are exact.

One function encodes: a training episode's graphs run in one call, as one
block-diagonal graph (the disjoint union of its support and query graphs),
and a graph episode pools them with one segment mean. Evaluation encodes each
graph alone through it, without dropout, once per model, and caches the rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .encoder import VARIANTS, encode, encoder_init, normalize_adjacency
from .episodes import Episode
from .features import AlignedFeatures, AlignSpec, align_features
from .graphs import Corpus
from .head import episode_loss, predict
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
        self.align_spec()  # rejects an unknown align mode and a width below 1
        for name, allowed in (("dtype", ("float32", "float64")),
                              ("encoder_variant", VARIANTS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
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

    def align_spec(self) -> AlignSpec:
        return AlignSpec(unified_dim=self.d, mode=self.align_mode,
                         intermediate_dim=self.intermediate_dim)


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
    """Per-corpus cache of aligned features and (eval-only) encoder outputs.

    A bank is bound to one corpus and one cfg: its caches are keyed by graph
    index only and built with its own cfg, so `evaluate` ignores a passed
    bank unless `bank.corpus is corpus and bank.cfg == cfg`. `use_model`
    ties the encodings to one parameter set.
    """

    corpus: Corpus
    cfg: ModelConfig
    _prepared: dict = field(default_factory=dict)
    _encoded: dict = field(default_factory=dict)
    _encoded_for: str | None = None

    def prepared(self, gi: int) -> AlignedFeatures:
        if gi not in self._prepared:
            self._prepared[gi] = align_features(self.corpus.graphs[gi].features,
                                                self.cfg.align_spec())
        return self._prepared[gi]

    def use_model(self, digest: str) -> None:
        """Tie cached encodings to one parameter set: a different digest
        empties the cache before it can serve another model's rows."""
        if digest != self._encoded_for:
            self._encoded.clear()
            self._encoded_for = digest

    def encoded(self, gi: int, params: dict[str, ad.Tensor]) -> ad.Tensor:
        """Deterministic eval-time encoder output, computed once per graph."""
        if gi not in self._encoded:
            with ad.no_grad():
                self._encoded[gi], _ = _encode_union(self, [gi], params, self.cfg,
                                                     None, 0.0, 0.0)
        return self._encoded[gi]


def _keep_mask(rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
    """Inverted-dropout mask: each entry is 0 with probability p, else 1/(1-p)."""
    return (rng.random(shape) >= p).astype(dtype) * (1.0 / (1.0 - p))


def _transformer_masks(rng: np.random.Generator, cfg: ModelConfig, s: int, q: int):
    """Per layer, its stage-one, stage-two and FFN keep masks, drawn in turn."""
    shapes = ((cfg.n_heads, s, s), (cfg.n_heads, q, s), (s + q, cfg.ffn_hidden))
    return [tuple(_keep_mask(rng, shape, cfg.dropout, cfg.np_dtype()) for shape in shapes)
            for _ in range(cfg.transformer_layers)]


def _encode_union(bank: GraphBank, refs, params: dict[str, ad.Tensor],
                  cfg: ModelConfig, rng, feat_drop: float,
                  edge_drop: float) -> tuple[ad.Tensor, list[int]]:
    """Encoder rows of the graphs `refs`, stacked in order, plus each graph's
    row count.

    The graphs run as one disjoint union: their features stacked, their kept
    edges offset into one edge list. The symmetric normalization of a
    disjoint union is the block diagonal of the per-graph ones, so each
    graph's rows are what encoding it alone gives. For each graph in turn
    the rng draws its feature-dropout mask, then its edge-keep mask; with
    both rates 0 it is never read.
    """
    dtype = cfg.np_dtype()
    xs, edges, sizes, offset = [], [], [], 0
    for gi in refs:
        aligned, g = bank.prepared(int(gi)), bank.corpus.graphs[int(gi)]
        x = aligned.x.astype(dtype, copy=False)
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
    x = ad.Tensor(np.concatenate(xs))
    if aligned.needs_projection:  # set by the align mode, so by every graph alike
        x = ad.matmul(x, params["proj_w"])
    return encode(adj, x, params, cfg.encoder_layers, cfg.encoder_variant), sizes


def _item_reprs(bank: GraphBank, episode: Episode, params, cfg, train, rng):
    graph_level = episode.level == "graph"
    # a graph episode names its graphs, supports first; others name one graph
    refs = (np.concatenate([episode.support_refs, episode.query_refs])
            if graph_level else [episode.graph_index])
    if train:
        h, sizes = _encode_union(bank, refs, params, cfg, rng,
                                 episode.feat_drop, episode.edge_drop)
    else:
        hs = [bank.encoded(int(gi), params) for gi in refs]
        h = hs[0] if len(hs) == 1 else ad.concat(hs, axis=0)
        sizes = [x.shape[0] for x in hs]
    if not graph_level:
        return (item_repr(h, episode.level, episode.support_refs),
                item_repr(h, episode.level, episode.query_refs))
    pooled = mean_pool(h, sizes)
    n_sup = len(episode.support_refs)
    return (ad.take_rows(pooled, slice(0, n_sup)),
            ad.take_rows(pooled, slice(n_sup, len(refs))))


def episode_tokens(bank: GraphBank, episode: Episode,
                   params: dict[str, ad.Tensor], cfg: ModelConfig,
                   train: bool = False, rng: np.random.Generator | None = None):
    """Support and query token matrices for one episode, pre-transformer."""
    sup, qry = _item_reprs(bank, episode, params, cfg, train, rng)
    return build_tokens(sup, episode.support_labels, qry, episode.n_way)


def episode_forward(bank: GraphBank, episode: Episode,
                    params: dict[str, ad.Tensor], cfg: ModelConfig,
                    train: bool = False) -> ad.Tensor:
    """Class log-probabilities [Q x n_way] for one episode."""
    rng = np.random.default_rng(episode.aug_seed) if train else None
    t_sup, t_qry = episode_tokens(bank, episode, params, cfg, train, rng)
    masks = (_transformer_masks(rng, cfg, t_sup.shape[0], t_qry.shape[0])
             if train and cfg.dropout > 0.0 else None)
    s_out, q_out = transformer_forward(t_sup, t_qry, params, cfg.transformer_layers,
                                       cfg.n_heads, masks, cfg.unshared_attention)
    return predict(s_out, q_out, episode.support_labels, episode.n_way,
                   cfg.d, full_token=cfg.full_token_prediction)


def episode_probs_and_loss(bank: GraphBank, episode: Episode,
                           params: dict[str, ad.Tensor], cfg: ModelConfig,
                           train: bool = False):
    logp = episode_forward(bank, episode, params, cfg, train=train)
    return logp, episode_loss(logp, episode.query_labels)
