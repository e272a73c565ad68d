"""Graph construction, edge dropping, synthetic generation, splits, and I/O."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from connectobench import (
    ConfigError,
    ConnectomeGraph,
    Dataset,
    DatasetError,
    DatasetParseError,
    DegenerateSeriesError,
    SyntheticSpec,
    build_graph,
    deserialize_dataset,
    drop_edges,
    generate_synthetic,
    graphs_equal,
    pearson_correlation,
    serialize_dataset,
    split_dataset,
)
from connectobench.data import _opening_brackets, dataset_bytes, git_blob_sha1

from helpers import pooled_feature_probe


def complete_graph(n_edges: int) -> ConnectomeGraph:
    """A graph with exactly n_edges edges taken from a large upper triangle."""
    n = int(math.ceil((1 + math.sqrt(1 + 8 * n_edges)) / 2))
    iu, iv = np.triu_indices(n, k=1)
    edges = np.stack([iu[:n_edges], iv[:n_edges]], axis=1).astype(np.int64)
    return ConnectomeGraph(n=n, x=np.zeros((n, 2)), edges=edges,
                           weights=np.full(n_edges, 0.8), label=0)


class TestPearson:
    def test_identical_rows(self):
        ts = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        corr = pearson_correlation(ts)
        assert abs(corr[0, 1] - 1.0) < 1e-12

    def test_anticorrelated_rows(self):
        base = np.array([1.0, -2.0, 3.0, -2.0])
        corr = pearson_correlation(np.stack([base, -base]))
        assert abs(corr[0, 1] + 1.0) < 1e-12

    def test_hand_computed_value(self):
        # cov=6.5/4, sd_x=sqrt(5/4), sd_y=sqrt(8.75/4) -> r = 6.5/sqrt(43.75)
        corr = pearson_correlation(np.array([[1.0, 2.0, 3.0, 4.0],
                                             [1.0, 2.0, 3.0, 5.0]]))
        assert abs(corr[0, 1] - 0.9827) < 1e-4

    def test_zero_variance_row_named(self):
        ts = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        with pytest.raises(DegenerateSeriesError, match="row 1"):
            pearson_correlation(ts)

    def test_matrix_invariants(self):
        rng = np.random.default_rng(4)
        corr = pearson_correlation(rng.standard_normal((10, 40)))
        assert np.max(np.abs(corr - corr.T)) < 1e-12
        assert np.array_equal(np.diag(corr), np.ones(10))
        assert corr.min() >= -1.0 and corr.max() <= 1.0


class TestBuildGraph:
    def test_single_pair_above_threshold(self):
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        g = build_graph(corr, 0.5, label=1)
        assert g.num_edges == 1
        assert g.edges.tolist() == [[0, 1]]
        assert g.weights[0] == 0.6
        assert np.array_equal(g.x, corr)

    def test_high_threshold_empty(self):
        rng = np.random.default_rng(0)
        corr = pearson_correlation(rng.standard_normal((6, 30)))
        np.clip(corr, -0.9, 0.9, out=corr)
        np.fill_diagonal(corr, 1.0)
        g = build_graph(corr, 0.999, label=0)
        assert g.num_edges == 0

    def test_threshold_out_of_range(self):
        with pytest.raises(ConfigError):
            build_graph(np.eye(3), 0.0, label=0)

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_matches_bruteforce_upper_triangle(self, n):
        rng = np.random.default_rng(n)
        corr = pearson_correlation(rng.standard_normal((n, 3 * n)))
        tau = 0.1
        g = build_graph(corr, tau, label=0)
        expected = {(u, v) for u in range(n) for v in range(u + 1, n)
                    if corr[u, v] > tau}
        assert {tuple(e) for e in g.edges.tolist()} == expected


class TestDropEdges:
    def test_p_zero_identity(self):
        g = complete_graph(40)
        out = drop_edges(g, 0.0, seed=5)
        assert np.array_equal(out.edges, g.edges)
        assert np.array_equal(out.weights, g.weights)

    def test_p_one_empty_features_untouched(self):
        g = complete_graph(40)
        out = drop_edges(g, 1.0, seed=5)
        assert out.num_edges == 0
        assert np.array_equal(out.x, g.x)
        assert g.num_edges == 40  # source untouched

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            drop_edges(complete_graph(3), 1.5)

    def test_binomial_kept_count(self):
        g = complete_graph(10_000)
        out = drop_edges(g, 0.5, seed=17)
        assert abs(out.num_edges - 5000) <= 150  # 3 sigma of Binomial(1e4, .5)

    def test_never_adds_edges(self):
        g = complete_graph(100)
        have = {tuple(e) for e in g.edges.tolist()}
        for seed in range(20):
            out = drop_edges(g, 0.37, seed=seed)
            assert {tuple(e) for e in out.edges.tolist()} <= have

    def test_mean_kept_fraction(self):
        g = complete_graph(100)
        kept = [drop_edges(g, 0.3, seed=s).num_edges / 100 for s in range(200)]
        assert 0.65 <= float(np.mean(kept)) <= 0.75

    def test_same_seed_same_result(self):
        g = complete_graph(60)
        a = drop_edges(g, 0.4, seed=21)
        b = drop_edges(g, 0.4, seed=21)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("n_edges", [0, 1, 45])
    def test_p_zero_and_one_match_the_drawing_rule_and_draw_nothing(self, p, n_edges):
        g = complete_graph(n_edges)
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        out = drop_edges(g, p, rng)
        assert rng.bit_generator.state == before
        keep = np.random.default_rng(8).random(n_edges) >= p
        assert graphs_equal(out, ConnectomeGraph(n=g.n, x=g.x, edges=g.edges[keep],
                                                 weights=g.weights[keep], label=g.label))
        assert out.edges.dtype == np.int64 and out.edges.shape == (keep.sum(), 2)
        assert not np.shares_memory(out.edges, g.edges)
        assert not np.shares_memory(out.weights, g.weights)


class TestSyntheticGeneration:
    def test_balanced_labels(self):
        ds = generate_synthetic(SyntheticSpec(num_graphs=60, n=8, num_classes=3,
                                              seed=0))
        counts = np.bincount([g.label for g in ds], minlength=3)
        assert counts.tolist() == [20, 20, 20]

    def test_feature_only_probe(self):
        ds = generate_synthetic(SyntheticSpec(num_graphs=200, n=30,
                                              num_classes=2,
                                              label_mode="feature_only", seed=2))
        half = len(ds) // 2
        fit_acc, _ = pooled_feature_probe(ds, range(half), range(half, len(ds)))
        assert fit_acc >= 95.0

    def test_structure_only_probe_and_density(self):
        ds = generate_synthetic(SyntheticSpec(num_graphs=400, n=30,
                                              num_classes=2,
                                              label_mode="structure_only",
                                              seed=2))
        half = len(ds) // 2
        _, eval_acc = pooled_feature_probe(ds, range(half), range(half, len(ds)))
        chance = 100.0 / ds.num_classes
        assert eval_acc <= chance + 10.0
        d0 = np.mean([g.edge_density() for g in ds if g.label == 0])
        d1 = np.mean([g.edge_density() for g in ds if g.label == 1])
        assert d1 > 0 and d1 >= 2.0 * d0

    def test_mixed_has_both_signals(self):
        ds = generate_synthetic(SyntheticSpec(num_graphs=120, n=24,
                                              num_classes=2, label_mode="mixed",
                                              seed=3))
        half = len(ds) // 2
        fit_acc, _ = pooled_feature_probe(ds, range(half), range(half, len(ds)))
        d0 = np.mean([g.edge_density() for g in ds if g.label == 0])
        d1 = np.mean([g.edge_density() for g in ds if g.label == 1])
        assert fit_acc >= 95.0
        assert d1 >= 2.0 * d0

    def test_invariants_over_many_graphs(self):
        ds = generate_synthetic(SyntheticSpec(num_graphs=1000, n=12,
                                              num_classes=3,
                                              label_mode="mixed", seed=9))
        for g in ds:
            g.validate()
            assert np.isfinite(g.x).all()
            if g.num_edges:
                assert g.weights.min() > 0.5  # above construction threshold

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(num_graphs=5, n=10, num_classes=2, seed=42)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert all(graphs_equal(x, y) for x, y in zip(a, b))

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(num_classes=1))
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(n=3))
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(threshold=1.0))
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(label_mode="nope"))

    def test_truncated_feature_dim(self):
        ds = generate_synthetic(SyntheticSpec(num_graphs=4, n=12, d=5,
                                              num_classes=2, seed=1))
        assert ds.feature_dim == 5
        assert all(g.x.shape == (12, 5) for g in ds)


class TestSplit:
    def test_exact_70_15_15(self):
        labels = [0] * 50 + [1] * 50
        sp = split_dataset(labels, (0.7, 0.15, 0.15), seed=0)
        assert (len(sp.train), len(sp.val), len(sp.test)) == (70, 15, 15)

    def test_disjoint_cover(self):
        labels = [i % 3 for i in range(101)]
        sp = split_dataset(labels, seed=4)
        assert sp.all_indices() == list(range(101))
        assert not (set(sp.train) & set(sp.val))
        assert not (set(sp.train) & set(sp.test))
        assert not (set(sp.val) & set(sp.test))

    def test_stratification_within_one(self):
        labels = [0] * 50 + [1] * 50
        sp = split_dataset(labels, seed=8)
        for part, ratio in ((sp.train, 0.7), (sp.val, 0.15), (sp.test, 0.15)):
            for cls in (0, 1):
                count = sum(1 for i in part if labels[i] == cls)
                assert abs(count - ratio * 50) <= 1

    def test_deterministic(self):
        labels = [i % 2 for i in range(37)]
        assert split_dataset(labels, seed=3) == split_dataset(labels, seed=3)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            split_dataset([0, 1], (0.5, 0.2, 0.2))


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(num_graphs=12, n=9, num_classes=2,
                                              seed=6))
        path = tmp_path / "ds.jsonl"
        serialize_dataset(ds, path)
        back = deserialize_dataset(path)
        assert back.num_classes == ds.num_classes
        assert back.spec == ds.spec
        assert all(graphs_equal(a, b) for a, b in zip(ds, back))

    def test_line_count_is_header_plus_graphs(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(num_graphs=60, n=6, num_classes=2,
                                              seed=1))
        path = tmp_path / "ds.jsonl"
        serialize_dataset(ds, path)
        assert len(path.read_text().splitlines()) == 61

    def test_regeneration_byte_identical(self, tmp_path):
        spec = SyntheticSpec(num_graphs=8, n=8, num_classes=2, seed=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        serialize_dataset(generate_synthetic(spec), p1)
        serialize_dataset(generate_synthetic(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_error_reports_line(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(num_graphs=3, n=6, num_classes=2,
                                              seed=0))
        path = tmp_path / "ds.jsonl"
        serialize_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError, match="line 3"):
            deserialize_dataset(path)

    def test_bad_graph_record_reports_line(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(num_graphs=2, n=6, num_classes=2,
                                              seed=0))
        path = tmp_path / "ds.jsonl"
        serialize_dataset(ds, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["x"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError, match="line 2"):
            deserialize_dataset(path)

    def _rewrite(self, tmp_path, edit):
        """Serialize a small dataset, let edit() change its lines, return the path."""
        ds = generate_synthetic(SyntheticSpec(num_graphs=3, n=6, num_classes=2,
                                              seed=0))
        path = tmp_path / "ds.jsonl"
        serialize_dataset(ds, path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_label_out_of_range_reports_line(self, tmp_path):
        def edit(lines):
            record = json.loads(lines[2])
            record["y"] = 2  # the header says num_classes 2
            lines[2] = json.dumps(record)

        with pytest.raises(DatasetParseError, match=r"line 3: label 2 outside"):
            deserialize_dataset(self._rewrite(tmp_path, edit))

    def test_feature_dim_mismatch_reports_line(self, tmp_path):
        def edit(lines):
            record = json.loads(lines[3])
            record["d"] = 3
            record["x"] = record["x"][:6 * 3]
            lines[3] = json.dumps(record)

        with pytest.raises(DatasetParseError, match=r"line 4: feature dim 3"):
            deserialize_dataset(self._rewrite(tmp_path, edit))

    def test_record_without_features_reports_line(self, tmp_path):
        # with d = 0 an empty x reshapes to any node count
        def edit(lines):
            lines[1:] = [json.dumps({"n": 10 ** 9, "d": 0, "x": [], "edges": [],
                                     "w": [], "y": 0})]

        with pytest.raises(DatasetParseError,
                           match="line 2: bad graph record: d must be >= 1, got 0"):
            deserialize_dataset(self._rewrite(tmp_path, edit))

    def test_crlf_file_parses_like_the_lf_file(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(num_graphs=5, n=6, num_classes=2,
                                              seed=2))
        path = tmp_path / "ds.jsonl"
        serialize_dataset(ds, path)
        raw = path.read_bytes().replace(b"\n", b"\r\n")  # newlines as on Windows
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(raw)
        back = deserialize_dataset(crlf)
        assert back.spec == ds.spec
        assert all(graphs_equal(a, b) for a, b in zip(ds, back))
        lines = raw.split(b"\r\n")
        lines[2] = b"{not json"
        crlf.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DatasetParseError, match="line 3"):
            deserialize_dataset(crlf)

    def test_header_without_graphs_reports_line(self, tmp_path):
        def edit(lines):
            del lines[1:]

        with pytest.raises(DatasetParseError, match=r"line 1: .*no graphs"):
            deserialize_dataset(self._rewrite(tmp_path, edit))

    @pytest.mark.parametrize("field,value,message", [
        ("n", 6.0, "n must be a JSON integer"),
        ("n", "6", "n must be a JSON integer"),
        ("d", 6.0, "d must be a JSON integer"),
        ("y", 1.0, "y must be a JSON integer"),
        ("y", True, "y must be a JSON integer"),
        ("y", 2 ** 64, "y must be a JSON integer"),  # orjson: a float
        ("edges", [[0.7, 1.2]], "edge endpoints must be JSON integers"),
        ("edges", [[0, True]], "edge endpoints must be JSON integers"),
        ("edges", [[0, 2 ** 64]], "edge endpoints must be JSON integers"),
        ("edges", [[0, 2 ** 63]], "too large"),
        # entries that are not pairs used to be re-paired: (0,1) and (2,3), or (0,1)
        ("edges", [[0, 1, 2, 3]], "every edges entry must be a pair"),
        ("edges", [[0], [1]], "every edges entry must be a pair"),
        ("edges", [[]], "every edges entry must be a pair"),
    ])
    def test_non_integer_field_reports_line(self, tmp_path, field, value, message):
        def edit(lines):
            record = json.loads(lines[2])
            record[field] = value
            if field == "edges":
                record["w"] = [0.9]
            lines[2] = json.dumps(record)

        with pytest.raises(DatasetParseError, match=rf"line 3: bad graph record: .*{message}"):
            deserialize_dataset(self._rewrite(tmp_path, edit))

    @pytest.mark.parametrize("edges,weights,message", [
        ([[0, 1], [1, 2]], [-2.0, 0.5], "negative edge weight -2.0"),
        ([[0, 1]], [-5e-324], "negative edge weight"),
        ([[0, 1], [0, 1]], [0.5, 0.5], "duplicate edges"),
        ([[0, 1], [1, 2], [0, 1]], [0.5, 0.5, 0.5], "duplicate edges"),
        ([[1, 0]], [0.5], "u < v"),
        ([[0, 6]], [0.5], "out of range"),
    ])
    def test_invalid_graph_record_reports_line(self, tmp_path, edges, weights,
                                               message):
        def edit(lines):
            record = json.loads(lines[2])
            record.update(edges=edges, w=weights)
            lines[2] = json.dumps(record)

        with pytest.raises(DatasetParseError, match=rf"line 3: .*{message}"):
            deserialize_dataset(self._rewrite(tmp_path, edit))

    def test_boolean_num_classes_reports_line(self, tmp_path):
        def edit(lines):
            lines[0] = json.dumps({"version": 1, "num_classes": True, "spec": None})

        with pytest.raises(DatasetParseError, match="line 1: .*integer num_classes"):
            deserialize_dataset(self._rewrite(tmp_path, edit))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_reports_line(self, tmp_path, token):
        def edit(lines):
            record = json.loads(lines[2])
            record["w"][0] = 12345.5
            lines[2] = json.dumps(record).replace("12345.5", token)

        with pytest.raises(DatasetParseError, match="line 3: invalid JSON"):
            deserialize_dataset(self._rewrite(tmp_path, edit))

    @pytest.mark.parametrize("opening,closing", [("[", "]"), ('{"a":', "}")])
    def test_deep_nesting_reports_line(self, tmp_path, opening, closing):
        def edit(lines):
            lines[2] = opening * 1025 + "1" + closing * 1025

        with pytest.raises(DatasetParseError, match="line 3: JSON nested too deeply"):
            deserialize_dataset(self._rewrite(tmp_path, edit))

    @pytest.mark.parametrize("line", [
        '{"a":[' * 200_000 + "1" + "]}" * 200_000,
        # closing brackets inside a string must not cancel the real openings
        '{"s":"' + "]" * 200_000 + '","a":' + "[" * 200_000 + "1" + "]" * 200_000 + "}",
        '{"a":' + '["]]]]\\"]]",' * 200_000 + "1" + "]" * 200_000 + "}",
    ], ids=["nested", "closers-in-string", "closers-in-escaped-strings"])
    def test_nesting_deep_enough_to_overflow_the_parser_reports_line(self, tmp_path, line):
        def edit(lines):
            lines[2] = line

        # in a child process: parsed unchecked, this line crashes the interpreter
        code = ("import sys\nfrom connectobench import DatasetParseError, "
                "deserialize_dataset\ntry:\n    deserialize_dataset(sys.argv[1])\n"
                "except DatasetParseError as exc:\n    print(exc)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(self._rewrite(tmp_path, edit))],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "line 3: JSON nested too deeply" in proc.stdout

    def test_brackets_inside_strings_do_not_count_as_nesting(self, tmp_path):
        def edit(lines):
            header = json.loads(lines[0])
            header["spec"] = {"note": "[{" * 2000 + '\\"[', "tags": ["{"] * 2000}
            lines[0] = json.dumps(header)

        assert len(deserialize_dataset(self._rewrite(tmp_path, edit))) == 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused_at_write_time(self, tmp_path, value):
        g = complete_graph(3)
        g.weights[1] = value
        with pytest.raises(ConfigError, match="NaN or infinity"):
            serialize_dataset(Dataset([complete_graph(3), g], num_classes=2),
                              tmp_path / "ds.jsonl")
        assert not (tmp_path / "ds.jsonl").exists()  # no half-written file
        with pytest.raises(ConfigError, match="NaN or infinity"):
            serialize_dataset(Dataset([complete_graph(3)], num_classes=2, spec={"s": value}),
                              tmp_path / "ds.jsonl")
        assert not (tmp_path / "ds.jsonl").exists()

    @pytest.mark.parametrize("raw", [
        b"", b"\n", b'{"a":[1,[2]]}\n', b'{"s":"[{[{","t":"\\"{["}\n',
        bytes(range(256)) * 3, b"[" * 2000 + b"{" * 30 + b"]" * 9,
    ], ids=["empty", "newline", "nested", "in-strings", "every-byte", "long"])
    def test_opening_bracket_count_is_bytes_count(self, raw):
        assert _opening_brackets(raw) == raw.count(b"[") + raw.count(b"{")

    def test_opening_bracket_count_on_a_record(self, tmp_path):
        serialize_dataset(Dataset([complete_graph(300)], num_classes=2),
                          tmp_path / "ds.jsonl")
        for raw in (tmp_path / "ds.jsonl").read_bytes().splitlines(keepends=True):
            assert _opening_brackets(raw) == raw.count(b"[") + raw.count(b"{")

    def test_record_with_many_brackets_loads(self, tmp_path):
        # 1500 edges put 1502 brackets on the line, but it nests only 3 deep
        ds = Dataset([complete_graph(1500)], num_classes=2)
        serialize_dataset(ds, tmp_path / "ds.jsonl")
        assert graphs_equal(deserialize_dataset(tmp_path / "ds.jsonl")[0], ds[0])


class TestStreamedRead:
    """The loader reads the file once, hashing each line as it parses it."""

    def test_hash_is_the_blob_sha1_of_a_crlf_file_with_blank_lines(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(num_graphs=6, n=7, num_classes=2,
                                              seed=4))
        path = tmp_path / "ds.jsonl"
        serialize_dataset(ds, path)
        lines = path.read_bytes().splitlines()
        lines[2:2] = [b"", b"  \t"]
        path.write_bytes(b"\r\n".join(lines + [b"", b""]))
        blob_sha1 = hashlib.sha1()
        back = deserialize_dataset(path, blob_sha1)
        assert blob_sha1.hexdigest() == git_blob_sha1(path.read_bytes())
        assert len(back) == len(ds)
        assert all(graphs_equal(a, b) for a, b in zip(ds, back))

    def test_write_and_read_hold_about_the_parsed_dataset(self, tmp_path):
        # the 300-graph n=50 file is 16 MB; its parsed arrays are 6.9 MB
        ds = generate_synthetic(SyntheticSpec(num_graphs=300, n=50, num_classes=2,
                                              label_mode="feature_only", seed=7))
        parsed = sum(g.x.nbytes + g.edges.nbytes + g.weights.nbytes for g in ds)
        path = tmp_path / "ds.jsonl"
        tracemalloc.start()
        try:
            serialize_dataset(ds, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = deserialize_dataset(path, hashlib.sha1())
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2 * parsed
        assert write_peak < 3e6  # 0.5 MB measured: one record at a time
        assert read_peak < parsed + 3e6  # parsed + 1.5 MB measured
        assert len(back) == 300


_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     sys.float_info.max, -sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(_FINITE, min_size=4, max_size=12),
       st.lists(_FINITE.filter(lambda w: not w < 0), max_size=6))  # loadable weights
def test_finite_floats_roundtrip_bit_exact(xs, ws):
    n = len(xs)
    iu, iv = np.triu_indices(n, k=1)
    edges = np.stack([iu[:len(ws)], iv[:len(ws)]], axis=1).astype(np.int64)
    g = ConnectomeGraph(n=n, x=np.array(xs).reshape(n, 1), edges=edges,
                        weights=np.array(ws, dtype=np.float64), label=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.jsonl"
        serialize_dataset(Dataset([g], num_classes=2), path)
        back = deserialize_dataset(path)[0]
    assert back.x.tobytes() == g.x.tobytes()
    assert back.weights.tobytes() == g.weights.tobytes()
    assert np.array_equal(back.edges, g.edges)


_VALID_FILE = dataset_bytes(generate_synthetic(SyntheticSpec(
    num_graphs=3, n=4, num_classes=2, seed=1)))


def _load_or_dataset_error(raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        path.write_bytes(raw)
        try:
            ds = deserialize_dataset(path)
        except DatasetError:
            return
    assert isinstance(ds, Dataset)


class TestLoaderFuzz:
    """Whatever the bytes, the loader returns a Dataset or raises DatasetError."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes(self, raw):
        _load_or_dataset_error(raw)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(0, len(_VALID_FILE) - 1),
                              st.integers(0, 255)), min_size=1, max_size=8),
           st.integers(1, len(_VALID_FILE)))
    def test_mutated_valid_file(self, edits, keep):
        raw = bytearray(_VALID_FILE)
        for at, byte in edits:
            raw[at] = byte
        _load_or_dataset_error(bytes(raw[:keep]))
