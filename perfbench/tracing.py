"""Spans around the calls into each gilt layer, recorded from outside.

`Tracer.installed()` rebinds the names the callers look up (for example
`gilt.model.encode`, `gilt.graphs.Graph.edge_set`,
`gilt.autodiff.Tensor.backward`) to wrappers that record a span, and puts
the originals back on exit. Nothing under `src/` changes, and a wrapper
returns exactly what the wrapped function returned, so traced and untraced
runs compute the same numbers.

A span is (name, phase, parent, start, end). Spans stay in memory until the
run ends; self time is a span's duration minus its direct children's. The
run sets `phase` at its own boundaries (train set-up, timed epochs, eval
set-up, eval episodes), so per-layer figures can be split the same way.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import gilt.autodiff
import gilt.episodes
import gilt.evaluate
import gilt.features
import gilt.graphs
import gilt.model
import gilt.train


def tape_nodes(root) -> int:
    """Tensors reachable from `root` through the tape's parent links."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, phase, parent, start, end]
        self.phase = "idle"
        self.counts: Counter = Counter()            # (phase, key) -> count
        self.tape: dict[tuple[str, str], list[int]] = defaultdict(list)
        self._stack: list[int] = []

    # -- recording ----------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.phase, parent, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[4] = time.perf_counter()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return wrapper

    def _sample(self, fn):
        def wrapper(sampler, *args, **kwargs):
            return self._span(f"episodes.sample.{sampler.level}", fn,
                              (sampler,) + args, kwargs)
        return wrapper

    def _bank_lookup(self, fn, name: str, cache: str):
        def wrapper(bank, gi, *args, **kwargs):
            hit = gi in getattr(bank, cache)
            self.counts[(self.phase, f"{name}.{'hit' if hit else 'miss'}")] += 1
            if hit:
                return fn(bank, gi, *args, **kwargs)
            return self._span(name, fn, (bank, gi) + args, kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _tape_counted(self, fn):
        def wrapper(bank, episode, *args, **kwargs):
            probs, loss = fn(bank, episode, *args, **kwargs)
            self.tape[(self.phase, episode.level)].append(tape_nodes(loss))
            return probs, loss
        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self):
        m, ev, tr = gilt.model, gilt.evaluate, gilt.train
        span = self._spanned
        return [
            (m, "encode", lambda f: span("encoder.encode", f)),
            (m, "normalize_adjacency", lambda f: span("encoder.normalize_adjacency", f)),
            (m, "align_features", lambda f: span("features.align", f)),
            (gilt.features, "_fit_incremental",
             lambda f: self._counted("features.align_incremental", f)),
            (m, "build_tokens", lambda f: span("tokens.build_tokens", f)),
            (m, "mean_pool", lambda f: self._counted("tokens.mean_pool", f)),
            (m, "transformer_forward", lambda f: span("transformer.forward", f)),
            (m, "predict", lambda f: span("head.predict", f)),
            (m, "episode_loss", lambda f: span("head.episode_loss", f)),
            (m.GraphBank, "prepared",
             lambda f: self._bank_lookup(f, "model.prepared", "_prepared")),
            (m.GraphBank, "encoded",
             lambda f: self._bank_lookup(f, "model.encoded", "_encoded")),
            (gilt.episodes.EpisodeSampler, "sample", self._sample),
            (gilt.graphs.Graph, "edge_set", lambda f: span("graphs.edge_set", f)),
            (ev, "assert_no_leakage", lambda f: span("evaluate.assert_no_leakage", f)),
            (ev, "roc_auc", lambda f: span("evaluate.metrics", f)),
            (ev, "hits_at_k", lambda f: span("evaluate.metrics", f)),
            (tr, "clip_gradients", lambda f: span("train.clip_gradients", f)),
            (tr, "adamw_step", lambda f: span("train.adamw_step", f)),
            (tr, "save_checkpoint", lambda f: span("train.save_checkpoint", f)),
            (tr, "episode_probs_and_loss", self._tape_counted),
            (gilt.autodiff.Tensor, "backward", lambda f: span("autodiff.backward", f)),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, make in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------

    def self_seconds(self) -> dict[tuple[str, str], float]:
        """(phase, name) -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, phase, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, phase, parent, start, end) in enumerate(self.spans):
            out[(phase, name)] += (end - start) - child[i]
        return out

    def span_counts(self) -> Counter:
        """(phase, name) -> number of spans."""
        return Counter((phase, name) for name, phase, *_ in self.spans)
