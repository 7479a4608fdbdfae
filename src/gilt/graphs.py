"""Graph data model, file ingestion, split management, synthetic corpora.

Graphs are undirected and stored once per edge as sorted (lo, hi) pairs;
directed inputs are symmetrized on load. Features are kept dense in float64
during ingestion and cast to the compute precision downstream. Graph and
Corpus are immutable after construction (arrays are frozen), so they are
safe to share across concurrent readers.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

TRAIN, VALID, TEST = 0, 1, 2


class DataError(ValueError):
    """Malformed, inconsistent, or non-finite graph data."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _integers(values, what: str, dtype=np.int64) -> np.ndarray:
    """`values` as `dtype`. An integral float such as 2.0 is accepted; a
    boolean, fractional, non-finite, out-of-range or non-numeric entry is
    rejected rather than read as 0 or 1, truncated or wrapped."""
    try:
        raw = np.asarray(values)
        arr = raw.astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"non-numeric {what}: {exc}") from exc
    if raw.dtype == bool:
        raise DataError(f"{what} must hold integers, got booleans")
    with np.errstate(invalid="ignore"):
        out = arr.astype(dtype)
    bad = out != arr
    if bad.any():
        raise DataError(f"{what} must hold integers that fit {np.dtype(dtype).name}, "
                        f"got {float(arr[bad][0])!r}")
    return out


def _checked_tags(values, what: str) -> np.ndarray:
    """`values` as int8 split tags, each TRAIN, VALID or TEST."""
    tags = _integers(values, what, np.int8)
    bad = (tags < TRAIN) | (tags > TEST)
    if bad.any():
        raise DataError(f"{what} must hold split tags {TRAIN}, {VALID} or {TEST}, "
                        f"got {int(tags[bad][0])}")
    return tags


def _class_ids(values, what: str) -> np.ndarray:
    """`values` as int64 labels, each a non-negative class id."""
    ids = _integers(values, what)
    if (ids < 0).any():
        raise DataError(f"{what} must hold non-negative class ids, got {int(ids.min())}")
    return ids


def _canonical_edges(edges: np.ndarray, node_count: int) -> np.ndarray:
    """Symmetrize, drop self-loops, deduplicate; rows sorted (lo, hi)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= node_count:
            raise DataError(
                f"edge endpoint out of range for node_count={node_count}: "
                f"max index {edges.max() if edges.size else '-'}"
            )
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    pairs = np.stack([lo[keep], hi[keep]], axis=1)
    if pairs.size:
        pairs = np.unique(pairs, axis=0)
    return pairs.reshape(-1, 2)


@dataclass(frozen=True)
class Graph:
    """An undirected graph with dense node features.

    node_split / edge_split are per-item tags in {TRAIN, VALID, TEST};
    graph_split_tag is the whole-graph tag used by graph-level tasks.

    Edge membership goes through one per-graph key index, `edge_keys`, built
    on first use and cached on the instance. `dataclasses.replace` makes a
    new instance with an empty cache, so the index always describes the
    instance's own `edges`, and the rows `edge_rows` returns index its own
    `edge_split`.
    """

    node_count: int
    edges: np.ndarray
    features: np.ndarray
    node_labels: np.ndarray | None = None
    graph_label: int | None = None
    node_split: np.ndarray | None = None
    edge_split: np.ndarray | None = None
    graph_split_tag: int | None = None
    name: str = ""

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def task_levels(self) -> tuple[str, ...]:
        levels = []
        if self.node_labels is not None:
            levels.append("node")
        if self.edge_count > 0:
            levels.append("link")
        if self.graph_label is not None:
            levels.append("graph")
        return tuple(levels)

    def edge_set(self) -> set[tuple[int, int]]:
        """Every edge as a (lo, hi) tuple. The package looks edges up through
        `edge_rows`; `perfbench/tracing.py` still wraps this method by name."""
        return {(int(a), int(b)) for a, b in self.edges}

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """Read-only int64 key lo * node_count + hi of each edge row.

        Strictly increasing, because `edges` rows are unique and sorted
        lexicographically, so a key's position is its edge row.
        """
        return _frozen(self.edges[:, 0] * self.node_count + self.edges[:, 1])

    def edge_rows(self, pairs) -> np.ndarray:
        """Edge row of each node pair (either order), or -1 for a non-edge."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = lo * self.node_count + hi
        rows = np.searchsorted(self.edge_keys, keys)
        # out-of-range endpoints could alias another pair's key
        found = (lo >= 0) & (hi < self.node_count) & (rows < self.edge_count)
        found[found] = self.edge_keys[rows[found]] == keys[found]
        return np.where(found, rows, -1)


def make_graph(
    node_count: int,
    edges,
    features,
    node_labels=None,
    graph_label: int | None = None,
    node_split=None,
    edge_split=None,
    graph_split_tag: int | None = None,
    name: str = "",
) -> Graph:
    """Validate and freeze a Graph; the only constructor the package uses."""
    node_count = int(_integers(node_count, "node_count"))
    if node_count < 1:
        raise DataError("node_count must be >= 1")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != node_count or features.shape[1] < 1:
        raise DataError(f"feature matrix must be [node_count x d] with d >= 1; "
                        f"got {features.shape} for {node_count} nodes")
    if not np.all(np.isfinite(features)):
        raise DataError("features contain NaN or Inf")
    edges = _canonical_edges(_integers(edges, "edge endpoints"), node_count)
    if node_labels is not None:
        node_labels = _class_ids(node_labels, "node_labels")
        if node_labels.shape != (node_count,):
            raise DataError(
                f"node_labels length {node_labels.shape} does not match node_count {node_count}"
            )
        node_labels = _frozen(node_labels)
    if node_split is not None:
        node_split = _checked_tags(node_split, "node_split")
        if node_split.shape != (node_count,):
            raise DataError("node_split length mismatch")
        node_split = _frozen(node_split)
    if edge_split is not None:
        edge_split = _checked_tags(edge_split, "edge_split")
        if edge_split.shape != (edges.shape[0],):
            raise DataError("edge_split length mismatch")
        edge_split = _frozen(edge_split)
    return Graph(
        node_count=node_count,
        edges=_frozen(edges),
        features=_frozen(features),
        node_labels=node_labels,
        graph_label=None if graph_label is None else int(_class_ids(graph_label, "graph_label")),
        node_split=node_split,
        edge_split=edge_split,
        graph_split_tag=(None if graph_split_tag is None
                         else int(_checked_tags(graph_split_tag, "graph_split_tag"))),
        name=name,
    )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_graph(path, format: str = "json", name: str | None = None) -> Graph:
    """Load a graph from disk.

    format "json": single file {"nodes": n, "edges": [[s,d],...],
    "features": [[...]], "labels": [...]} with optional keys
    "graph_label" (one integer), "node_split" / "edge_split" (one split tag
    per node / edge) and "graph_split_tag" (the whole graph's split tag,
    for graph-level tasks). Split tags are 0 (train), 1 (valid) or 2 (test).
    format "edge-list": a directory holding edges.tsv (src<TAB>dst per
    line), features.csv (one row per node), and optionally labels.csv.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such dataset path: {path}")
    if format == "json":
        return _load_json(path, name or path.stem)
    if format == "edge-list":
        return _load_edge_list(path, name or path.name)
    raise DataError(f"unknown graph format: {format!r}")


def _load_json(path: Path, name: str) -> Graph:
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"JSON graph {path} is not an object")
    for key in ("nodes", "edges", "features"):
        if key not in payload:
            raise DataError(f"JSON graph missing required key {key!r}")
    nodes = _json_ints(payload["nodes"], "nodes", path)
    edges = _json_ints(payload["edges"], "edges", path)
    extra = {key: None if payload.get(key) is None else _json_ints(payload[key], key, path)
             for key in ("labels", "graph_label", "node_split", "edge_split",
                         "graph_split_tag")}
    for key, value in (("nodes", nodes), ("graph_label", extra["graph_label"]),
                       ("graph_split_tag", extra["graph_split_tag"])):
        if value is not None and value.ndim != 0:
            raise DataError(f"{key!r} in {path} must be a single integer")
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise DataError(f"'edges' in {path} must be [[src, dst], ...], "
                        f"got shape {edges.shape}")
    try:
        features = np.asarray(payload["features"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"'features' in {path} is not a numeric matrix: {exc}") from exc
    return make_graph(
        node_count=nodes,
        edges=edges,
        features=features,
        node_labels=extra["labels"],
        graph_label=extra["graph_label"],
        node_split=extra["node_split"],
        edge_split=extra["edge_split"],
        graph_split_tag=extra["graph_split_tag"],
        name=name,
    )


def _json_ints(value, key: str, path: Path) -> np.ndarray:
    """A JSON integer or nested integer list as int64; a fractional, boolean
    or non-numeric value is rejected rather than truncated."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise DataError(f"{key!r} in {path} is ragged: {exc}") from exc
    if arr.size and arr.dtype.kind not in "iu":
        raise DataError(f"{key!r} in {path} must hold integers")
    return arr.astype(np.int64)


def _load_edge_list(path: Path, name: str) -> Graph:
    edges_file = path / "edges.tsv"
    features_file = path / "features.csv"
    if not edges_file.exists() or not features_file.exists():
        raise DataError(f"edge-list dataset {path} needs edges.tsv and features.csv")
    try:
        rows = []
        for line_no, line in enumerate(edges_file.read_text().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{edges_file}:{line_no}: expected 'src<TAB>dst', got {line!r}")
            rows.append((int(parts[0]), int(parts[1])))
    except ValueError as exc:
        raise DataError(f"non-integer edge endpoint in {edges_file}: {exc}") from exc
    features = _read_float_csv(features_file)
    labels = None
    labels_file = path / "labels.csv"
    if labels_file.exists():
        labels = _integers([v[0] for v in _read_csv_rows(labels_file)],
                           f"label in {labels_file}")
        if len(labels) != features.shape[0]:
            raise DataError(
                f"labels.csv has {len(labels)} rows but features.csv has {features.shape[0]}"
            )
    return make_graph(
        node_count=features.shape[0],
        edges=np.asarray(rows, dtype=np.int64).reshape(-1, 2),
        features=features,
        node_labels=labels,
        name=name,
    )


def _read_csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def _read_float_csv(path: Path) -> np.ndarray:
    rows = _read_csv_rows(path)
    if not rows:
        raise DataError(f"empty feature file {path}")
    try:
        mat = np.asarray([[float(v) for v in row] for row in rows], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"non-numeric feature entry in {path}: {exc}") from exc
    return mat


def write_graph(g: Graph, path) -> Path:
    """Write the single-file JSON format; round-trips bit-exact."""
    path = Path(path)
    payload: dict = {
        "nodes": g.node_count,
        "edges": [[int(a), int(b)] for a, b in g.edges],
        "features": [[float(v) for v in row] for row in g.features],
    }
    if g.node_labels is not None:
        payload["labels"] = [int(v) for v in g.node_labels]
    if g.graph_label is not None:
        payload["graph_label"] = int(g.graph_label)
    if g.node_split is not None:
        payload["node_split"] = [int(v) for v in g.node_split]
    if g.edge_split is not None:
        payload["edge_split"] = [int(v) for v in g.edge_split]
    if g.graph_split_tag is not None:
        payload["graph_split_tag"] = int(g.graph_split_tag)
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Stochastic block model with Gaussian class-conditional features."""

    n_classes: int
    nodes_per_class: int
    intra_p: float
    inter_p: float
    feature_dim: int
    class_mean_separation: float
    noise_sd: float
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 1 or self.nodes_per_class < 1 or self.feature_dim < 1:
            raise DataError("synthetic counts must be >= 1")
        for p in (self.intra_p, self.inter_p):
            if not 0.0 <= p <= 1.0:
                raise DataError(f"edge probability {p} outside [0, 1]")
        if self.noise_sd < 0:
            raise DataError("noise_sd must be >= 0")


def make_synthetic(spec: SyntheticSpec, name: str = "") -> Graph:
    """Sample an SBM graph; deterministic for a fixed spec (seed included)."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_classes * spec.nodes_per_class
    labels = np.repeat(np.arange(spec.n_classes), spec.nodes_per_class)

    # class means sit on scaled coordinate axes
    means = np.zeros((spec.n_classes, spec.feature_dim))
    for c in range(spec.n_classes):
        means[c, c % spec.feature_dim] = spec.class_mean_separation
    features = means[labels] + spec.noise_sd * rng.standard_normal((n, spec.feature_dim))

    prob = np.where(labels[:, None] == labels[None, :], spec.intra_p, spec.inter_p)
    draw = rng.random((n, n))
    upper = np.triu(draw < prob, k=1)
    src, dst = np.nonzero(upper)
    edges = np.stack([src, dst], axis=1)
    return make_graph(n, edges, features, node_labels=labels, name=name or f"sbm-{spec.seed}")


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def _partition_sizes(n: int, fractions: tuple[float, float, float]) -> list[int]:
    # largest-remainder assignment so {0.6, 0.2, 0.2} over 100 is exactly 60/20/20
    raw = [f * n for f in fractions]
    base = [int(np.floor(r)) for r in raw]
    leftover = n - sum(base)
    order = sorted(range(3), key=lambda i: raw[i] - base[i], reverse=True)
    for i in order[:leftover]:
        base[i] += 1
    return base


def _split_tags(n: int, fractions, seed: int) -> np.ndarray:
    fractions = tuple(float(f) for f in fractions)
    if (len(fractions) != 3 or not all(0.0 <= f <= 1.0 for f in fractions)
            or abs(sum(fractions) - 1.0) > 1e-9):
        raise DataError(f"split fractions must be three values in [0, 1] that "
                        f"sum to 1, got {fractions}")
    if seed < 0:
        raise DataError(f"split seed must be >= 0, got {seed}")
    sizes = _partition_sizes(n, fractions)
    perm = np.random.default_rng(seed).permutation(n)
    tags = np.empty(n, dtype=np.int8)
    start = 0
    for tag, size in zip((TRAIN, VALID, TEST), sizes):
        tags[perm[start:start + size]] = tag
        start += size
    return tags


def assign_split(g: Graph, fractions, level: str, seed: int = 0) -> Graph:
    """Partition nodes or edges of one graph into train/valid/test.

    The partition is disjoint and exhaustive. Edge-level splits cover the
    stored undirected pair, so the reverse direction is quarantined with it.
    Graph-level splitting operates on a Corpus: see assign_graph_splits.
    """
    if level == "node":
        if g.node_labels is None:
            raise DataError("node split requested but graph has no node labels")
        return replace(g, node_split=_frozen(_split_tags(g.node_count, fractions, seed)))
    if level == "link":
        if g.edge_count == 0:
            raise DataError("link split requested but graph has no edges")
        return replace(g, edge_split=_frozen(_split_tags(g.edge_count, fractions, seed)))
    if level == "graph":
        raise DataError("graph-level splits are corpus-wide; use assign_graph_splits")
    raise DataError(f"unknown task level {level!r}")


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corpus:
    """A non-empty collection of graphs with per-graph task annotations."""

    graphs: tuple[Graph, ...]

    def __post_init__(self):
        if not self.graphs:
            raise DataError("corpus must contain at least one graph")
        for i, g in enumerate(self.graphs):
            if not g.task_levels():
                raise DataError(f"graph {i} supports no task level")

    def supporting(self, level: str) -> list[int]:
        return [i for i, g in enumerate(self.graphs) if level in g.task_levels()]


def assign_graph_splits(corpus: Corpus, fractions, seed: int = 0) -> Corpus:
    """Tag whole graphs train/valid/test for graph-level tasks."""
    tags = _split_tags(len(corpus.graphs), fractions, seed)
    graphs = tuple(
        replace(g, graph_split_tag=int(t)) for g, t in zip(corpus.graphs, tags)
    )
    return Corpus(graphs=graphs)


# ---------------------------------------------------------------------------
# dataset registry
# ---------------------------------------------------------------------------

def load_registry(path) -> dict[str, dict]:
    """Registry file: JSON mapping dataset name -> {"path": ..., "format": ...}."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no registry file at {path}")
    try:
        reg = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"malformed registry {path}: {exc}") from exc
    if not isinstance(reg, dict):
        raise DataError("registry must be a JSON object")
    return reg


def load_corpus(dataset: str, registry=None) -> Corpus:
    """Load a dataset as a Corpus.

    With a registry, `dataset` names an entry whose path resolves relative to
    the registry file; a corpus entry (or directory) re-derives corpus-wide
    graph tags from the entry's recorded seed, so the assignment replays
    exactly. Without one, `dataset` is a graph file or a directory of them.
    A corpus directory holds one graph per *.json file.
    """
    entry: dict = {}
    if registry is not None:
        reg = load_registry(registry)
        if dataset not in reg:
            raise DataError(f"dataset {dataset!r} not in registry {registry}")
        entry = reg[dataset]
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise DataError(f"registry entry {dataset!r} must be an object "
                            f"with a \"path\" string")
        target = Path(registry).parent / entry["path"]
    else:
        target = Path(dataset)
        if not target.exists():
            raise DataError(f"no dataset at {target}")

    fmt = entry.get("format", "json")
    if fmt == "corpus" or (fmt == "json" and target.is_dir()):
        files = sorted(f for f in target.glob("*.json")
                       if f.name not in ("registry.json", "manifest.json"))
        if not files:
            raise DataError(f"corpus directory {target} holds no graph files")
        corpus = Corpus(graphs=tuple(load_graph(f, name=f.stem) for f in files))
        if registry is not None and any(g.graph_label is not None for g in corpus.graphs):
            try:
                fractions = tuple(float(f) for f in
                                  entry.get("graph_split_fractions", (0.6, 0.2, 0.2)))
                seed = int(entry.get("graph_split_seed", 0))
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"registry entry {dataset!r} has a bad graph split: "
                                f"{exc}") from exc
            corpus = assign_graph_splits(corpus, fractions, seed=seed)
        return corpus
    name = target.stem if registry is None else dataset
    return Corpus(graphs=(load_graph(target, format=fmt, name=name),))
