import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gilt.graphs import (
    TEST,
    TRAIN,
    VALID,
    Corpus,
    DataError,
    SyntheticSpec,
    assign_graph_splits,
    assign_split,
    load_corpus,
    load_graph,
    load_registry,
    make_graph,
    make_synthetic,
    write_graph,
)


def path_graph(n=3, d=2):
    edges = [[i, i + 1] for i in range(n - 1)]
    feats = np.arange(n * d, dtype=np.float64).reshape(n, d)
    return make_graph(n, edges, feats, node_labels=np.zeros(n, dtype=int))


class TestValidation:
    def test_edges_canonicalized(self):
        # duplicates, reversed duplicates, and self-loops all collapse
        g = make_graph(3, [[1, 0], [0, 1], [1, 1], [2, 1], [1, 2]], np.zeros((3, 2)))
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(DataError, match="out of range"):
            make_graph(3, [[0, 3]], np.zeros((3, 2)))

    def test_negative_edge_rejected(self):
        with pytest.raises(DataError):
            make_graph(3, [[-1, 0]], np.zeros((3, 2)))

    def test_nan_features_rejected(self):
        feats = np.zeros((3, 2))
        feats[1, 0] = np.nan
        with pytest.raises(DataError, match="NaN"):
            make_graph(3, [[0, 1]], feats)

    def test_inf_features_rejected(self):
        feats = np.zeros((3, 2))
        feats[2, 1] = np.inf
        with pytest.raises(DataError):
            make_graph(3, [[0, 1]], feats)

    def test_label_length_mismatch(self):
        with pytest.raises(DataError):
            make_graph(3, [[0, 1]], np.zeros((3, 2)), node_labels=[0, 1])

    def test_feature_row_mismatch(self):
        with pytest.raises(DataError):
            make_graph(3, [[0, 1]], np.zeros((2, 2)))

    @pytest.mark.parametrize("field, value", [
        ("edges", [[0, 1.7]]),
        ("node_labels", [0.9, 1.2, 2.0]),
        ("node_labels", [0.0, np.nan, 1.0]),
        ("graph_label", 1.5),
        ("node_split", [0.5, 1, 2]),
        ("node_split", [0, 300, 2]),
        ("edge_split", [0.5]),
        ("edge_split", [np.inf]),
        ("graph_split_tag", 1.5),
        ("node_count", 2.7),
        ("node_count", True),
        ("node_labels", [True, False, True]),
        ("node_labels", [True, 2, 0]),
        ("node_labels", np.array([2, False, 0], dtype=object)),
        ("edges", [[0, True]]),
        ("graph_label", np.True_),
        ("node_count", [2, 3]),
        ("graph_label", [1, 2]),
        ("graph_split_tag", [[0]]),
    ])
    def test_non_integral_value_rejected_not_truncated(self, field, value):
        kwargs = {"node_count": 3, "edges": [[0, 1]], field: value}
        with pytest.raises(DataError, match="must hold integers|must be a single integer"):
            make_graph(features=np.zeros((3, 1)), **kwargs)

    @pytest.mark.parametrize("field, value", [
        ("node_split", [0, 1, 7]),
        ("node_split", [-1, 0, 1]),
        ("edge_split", [3]),
        ("graph_split_tag", 9),
        ("graph_split_tag", -1),
    ])
    def test_unknown_split_tag_rejected(self, field, value):
        # such an item would match none of TRAIN, VALID and TEST
        with pytest.raises(DataError, match=f"{field} must hold split tags 0, 1 or 2"):
            make_graph(3, [[0, 1]], np.zeros((3, 1)), **{field: value})

    def test_integral_floats_accepted(self):
        g = make_graph(3, np.array([[0.0, 1.0], [1.0, 2.0]]), np.zeros((3, 1)),
                       node_labels=[0.0, 1.0, 2.0], graph_label=2.0,
                       node_split=np.array([0.0, 1.0, 2.0]), edge_split=[2.0, 0.0],
                       graph_split_tag=1.0)
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.node_labels.tolist() == [0, 1, 2]
        assert g.graph_label == 2 and type(g.graph_label) is int
        assert g.node_split.tolist() == [0, 1, 2]
        assert g.edge_split.tolist() == [2, 0]
        assert g.graph_split_tag == 1 and type(g.graph_split_tag) is int

    def test_arrays_frozen(self):
        g = path_graph()
        with pytest.raises(ValueError):
            g.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2

    def test_task_levels_derived(self):
        g = path_graph()
        assert g.task_levels() == ("node", "link")
        iso = make_graph(2, [], np.zeros((2, 2)), graph_label=1)
        assert iso.task_levels() == ("graph",)


class TestFileFormats:
    def test_json_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        g = make_graph(
            5,
            [[0, 1], [1, 2], [3, 4]],
            rng.standard_normal((5, 3)),
            node_labels=[0, 1, 0, 1, 1],
        )
        g2 = load_graph(write_graph(g, tmp_path / "g.json"))
        assert g2.features.tobytes() == g.features.tobytes()
        assert np.array_equal(g2.edges, g.edges)
        assert np.array_equal(g2.node_labels, g.node_labels)

    @pytest.mark.parametrize("tag", [0, 1, 2, None])
    def test_json_round_trip_keeps_graph_split_tag(self, tmp_path, tag):
        g = make_graph(3, [[0, 1]], np.zeros((3, 1)), graph_label=1, graph_split_tag=tag)
        g2 = load_graph(write_graph(g, tmp_path / "g.json"))
        assert g2.graph_split_tag == tag
        assert g2.graph_label == 1

    @pytest.mark.parametrize("tag", [3, -1, 1.5, [1], True, "2"])
    def test_json_bad_graph_split_tag(self, tmp_path, tag):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"nodes": 2, "edges": [], "features": [[0.0], [1.0]],
                                 "graph_split_tag": tag}))
        with pytest.raises(DataError, match="graph_split_tag"):
            load_graph(p)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=12345))
    def test_json_round_trip_property(self, tmp_path_factory, n, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(n, 2))
        g = make_graph(n, edges, rng.standard_normal((n, 2)) * 1e3)
        out = tmp_path_factory.mktemp("rt") / "g.json"
        g2 = load_graph(write_graph(g, out))
        assert g2.features.tobytes() == g.features.tobytes()
        assert np.array_equal(g2.edges, g.edges)

    def test_json_missing_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"nodes": 2, "edges": []}))
        with pytest.raises(DataError, match="features"):
            load_graph(p)

    def test_json_malformed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(DataError, match="malformed"):
            load_graph(p)

    def test_edge_list_dir(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\t1\n1\t2\n")
        (tmp_path / "features.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        (tmp_path / "labels.csv").write_text("0\n1\n0\n")
        g = load_graph(tmp_path, format="edge-list")
        assert g.node_count == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.features[2, 1] == 6.0
        assert g.node_labels.tolist() == [0, 1, 0]

    def test_edge_list_bad_endpoint(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\tx\n")
        (tmp_path / "features.csv").write_text("1.0\n2.0\n")
        with pytest.raises(DataError, match="non-integer"):
            load_graph(tmp_path, format="edge-list")

    @pytest.mark.parametrize("label", ["1.5", "nan", "inf"])
    def test_edge_list_fractional_label_rejected(self, tmp_path, label):
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / "features.csv").write_text("1.0\n2.0\n")
        (tmp_path / "labels.csv").write_text(f"0\n{label}\n")
        with pytest.raises(DataError, match="label in .*labels.csv must hold integers"):
            load_graph(tmp_path, format="edge-list")

    def test_edge_list_integral_float_label_accepted(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / "features.csv").write_text("1.0\n2.0\n")
        (tmp_path / "labels.csv").write_text("0.0\n1.0\n")
        assert load_graph(tmp_path, format="edge-list").node_labels.tolist() == [0, 1]

    def test_edge_list_bad_label(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / "features.csv").write_text("1.0\n2.0\n")
        (tmp_path / "labels.csv").write_text("0\nb\n")
        with pytest.raises(DataError, match="non-numeric label"):
            load_graph(tmp_path, format="edge-list")

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataError, match="no such"):
            load_graph(tmp_path / "absent.json")

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text("{}")
        with pytest.raises(DataError, match="unknown graph format"):
            load_graph(p, format="parquet")


class TestSynthetic:
    def test_deterministic_for_seed(self):
        spec = SyntheticSpec(3, 10, 0.4, 0.05, 6, 1.0, 0.3, seed=11)
        a, b = make_synthetic(spec), make_synthetic(spec)
        assert np.array_equal(a.edges, b.edges)
        assert a.features.tobytes() == b.features.tobytes()

    def test_seed_changes_graph(self):
        base = SyntheticSpec(3, 10, 0.4, 0.05, 6, 1.0, 0.3, seed=11)
        other = SyntheticSpec(3, 10, 0.4, 0.05, 6, 1.0, 0.3, seed=12)
        assert not np.array_equal(make_synthetic(base).edges, make_synthetic(other).edges)

    def test_degenerate_block_model(self):
        # no inter-class probability and no feature noise: every edge stays
        # inside a block and features sit exactly on the class means
        spec = SyntheticSpec(2, 8, 0.5, 0.0, 4, 2.0, 0.0, seed=3)
        g = make_synthetic(spec)
        lab = g.node_labels
        assert all(lab[a] == lab[b] for a, b in g.edges)
        for v in range(g.node_count):
            expect = np.zeros(4)
            expect[lab[v]] = 2.0
            assert np.array_equal(g.features[v], expect)

    def test_intra_density_matches_probability(self):
        # mean intra-block density over many seeds should land within
        # 3 sigma of intra_p (binomial count over all intra pairs)
        spec_base = dict(
            n_classes=2, nodes_per_class=12, intra_p=0.3, inter_p=0.0,
            feature_dim=3, class_mean_separation=1.0, noise_sd=0.1,
        )
        n_pairs_per_seed = 2 * (12 * 11) // 2
        seeds = range(25)
        total_edges = sum(
            make_synthetic(SyntheticSpec(**spec_base, seed=s)).edge_count for s in seeds
        )
        n = n_pairs_per_seed * len(seeds)
        sigma = np.sqrt(n * 0.3 * 0.7)
        assert abs(total_edges - n * 0.3) < 3 * sigma

    def test_rejects_bad_probability(self):
        with pytest.raises(DataError):
            SyntheticSpec(2, 5, 1.2, 0.0, 3, 1.0, 0.1)


class TestSplits:
    def test_exact_fractions(self):
        g = make_graph(100, [[0, 1]], np.zeros((100, 2)),
                       node_labels=np.zeros(100, dtype=int))
        g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=0)
        counts = np.bincount(g.node_split, minlength=3)
        assert counts.tolist() == [60, 20, 20]

    def test_disjoint_exhaustive(self):
        g = path_graph(37)
        g = assign_split(g, (0.5, 0.25, 0.25), "node", seed=4)
        assert g.node_split.shape == (37,)
        assert set(np.unique(g.node_split)) <= {TRAIN, VALID, TEST}
        assert np.bincount(g.node_split, minlength=3).sum() == 37

    def test_link_split_covers_stored_pairs(self):
        g = path_graph(10)
        g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=1)
        assert g.edge_split.shape == (g.edge_count,)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum to 1"):
            assign_split(path_graph(), (0.5, 0.2, 0.2), "node")

    def test_node_split_needs_labels(self):
        g = make_graph(4, [[0, 1]], np.zeros((4, 2)))
        with pytest.raises(DataError, match="no node labels"):
            assign_split(g, (0.6, 0.2, 0.2), "node")

    def test_graph_level_goes_through_corpus(self):
        with pytest.raises(DataError, match="corpus-wide"):
            assign_split(path_graph(), (0.6, 0.2, 0.2), "graph")

    def test_seed_changes_assignment(self):
        g = path_graph(50)
        a = assign_split(g, (0.6, 0.2, 0.2), "node", seed=0).node_split
        b = assign_split(g, (0.6, 0.2, 0.2), "node", seed=1).node_split
        assert not np.array_equal(a, b)


class TestEdgeIndex:
    def test_keys_strictly_increasing_and_decode_to_edges(self):
        g = make_synthetic(SyntheticSpec(3, 30, 0.3, 0.05, 4, 1.0, 0.5, seed=7))
        keys = g.edge_keys
        assert keys.dtype == np.int64 and keys.shape == (g.edge_count,)
        assert np.all(np.diff(keys) > 0)
        decoded = np.stack([keys // g.node_count, keys % g.node_count], axis=1)
        assert np.array_equal(decoded, g.edges)
        assert not keys.flags.writeable
        assert g.edge_keys is keys  # built once per graph

    def test_rows_match_edge_set(self):
        g = make_synthetic(SyntheticSpec(3, 10, 0.4, 0.1, 4, 1.0, 0.5, seed=3))
        n = g.node_count
        pairs = np.array([(u, v) for u in range(n) for v in range(n)])
        rows = g.edge_rows(pairs)
        edges = g.edge_set()
        for (u, v), row in zip(pairs.tolist(), rows):
            pair = (min(u, v), max(u, v))
            if pair in edges:
                assert tuple(g.edges[row]) == pair
            else:
                assert row == -1

    def test_out_of_range_and_empty(self):
        g = path_graph(4)   # edges (0,1) (1,2) (2,3); key(0, 6) == key(1, 2)
        assert g.edge_rows([[0, 6], [-1, 5], [1, 2], [3, 2]]).tolist() == [-1, -1, 1, 2]
        assert g.edge_rows(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
        bare = make_graph(3, np.zeros((0, 2)), np.zeros((3, 2)))
        assert bare.edge_keys.shape == (0,)
        assert bare.edge_rows([[0, 1]]).tolist() == [-1]

    def test_replaced_graph_gets_its_own_index(self):
        g = path_graph(5)
        assert g.edge_keys.tolist() == [1, 7, 13, 19]
        star = make_graph(5, [[0, 1], [0, 2], [0, 3], [0, 4]], np.zeros((5, 2)))
        h = dataclasses.replace(g, edges=star.edges)
        assert h.edge_keys.tolist() == [1, 2, 3, 4]
        assert h.edge_rows([[2, 0]]).tolist() == [1]
        assert g.edge_rows([[2, 0]]).tolist() == [-1]


class TestCorpus:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="at least one"):
            Corpus(graphs=())

    def test_levels_derived_and_queryable(self):
        graphs = (path_graph(), make_graph(2, [], np.zeros((2, 2)), graph_label=0))
        c = Corpus(graphs=graphs)
        assert c.supporting("node") == [0]
        assert c.supporting("graph") == [1]

    def test_graph_split_tags_whole_graphs(self):
        graphs = tuple(
            make_graph(2, [[0, 1]], np.zeros((2, 2)), graph_label=i % 2) for i in range(10)
        )
        c = assign_graph_splits(Corpus(graphs=graphs), (0.6, 0.2, 0.2), seed=0)
        tags = [g.graph_split_tag for g in c.graphs]
        assert sorted(np.bincount(tags, minlength=3).tolist(), reverse=True) == [6, 2, 2]
        assert c.supporting("graph") == list(range(10))

    def test_levelless_graph_rejected(self):
        lonely = make_graph(2, [], np.zeros((2, 2)))
        with pytest.raises(DataError, match="no task level"):
            Corpus(graphs=(lonely,))


class TestRegistry:
    def test_resolve(self, tmp_path):
        g = path_graph()
        write_graph(g, tmp_path / "toy.json")
        reg = tmp_path / "registry.json"
        reg.write_text(json.dumps({"toy": {"path": "toy.json", "format": "json"}}))
        (loaded,) = load_corpus("toy", reg).graphs
        assert loaded.node_count == 3
        assert loaded.name == "toy"

    def test_plain_path_and_directory(self, tmp_path):
        write_graph(path_graph(), tmp_path / "a.json")
        write_graph(path_graph(), tmp_path / "b.json")
        (single,) = load_corpus(str(tmp_path / "a.json")).graphs
        assert single.name == "a"
        assert [g.name for g in load_corpus(str(tmp_path)).graphs] == ["a", "b"]
        with pytest.raises(DataError, match="no dataset at"):
            load_corpus(str(tmp_path / "missing.json"))
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="holds no graph files"):
            load_corpus(str(tmp_path / "empty"))

    def test_unknown_dataset(self, tmp_path):
        reg = tmp_path / "registry.json"
        reg.write_text("{}")
        with pytest.raises(DataError, match="not in registry"):
            load_corpus("missing", reg)

    def test_malformed_registry(self, tmp_path):
        reg = tmp_path / "registry.json"
        reg.write_text("[1, 2")
        with pytest.raises(DataError, match="malformed"):
            load_registry(reg)
