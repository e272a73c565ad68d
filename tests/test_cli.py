"""CLI subcommands: outputs, determinism, exit codes, report shapes."""

import argparse
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from connectobench import (
    ResidualGCNConfig,
    SyntheticSpec,
    TrainConfig,
    generate_synthetic,
    run_experiment,
    serialize_dataset,
)
from connectobench import cli, training
from connectobench import data as data_module
from connectobench.cli import git_blob_sha1, main


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.jsonl"
    ds = generate_synthetic(SyntheticSpec(num_graphs=16, n=8, num_classes=2,
                                          label_mode="feature_only", seed=3))
    serialize_dataset(ds, path)
    return path


@pytest.fixture(scope="module")
def sweep_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "train": {
            "total_epochs": 3, "warmup_epochs": 1, "seeds": [0],
            "gcn": {"num_gcn_layers": 2, "hidden_dim": 6, "mlp_hidden": 6},
            "exphormer": {"num_layers": 1, "num_heads": 2, "hidden_dim": 8,
                          "expander_degree": 2},
            "variant": {"num_heads": 2, "attention_dropout": 0.0},
        },
    }))
    return path


class TestGenData:
    def test_line_count_and_summary(self, tmp_path, capsys):
        out = tmp_path / "ds.jsonl"
        rc = main(["gen-data", "--graphs", "60", "--nodes", "8", "--classes",
                   "3", "--seed", "4", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 61
        assert "graphs=60 classes=3" in capsys.readouterr().out

    def test_regeneration_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["gen-data", "--graphs", "10", "--nodes", "8", "--classes", "2",
                "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_high_threshold_zero_density(self, tmp_path, capsys):
        out = tmp_path / "empty.jsonl"
        rc = main(["gen-data", "--graphs", "6", "--nodes", "8", "--classes",
                   "2", "--threshold", "0.999", "--seed", "1", "--out",
                   str(out)])
        assert rc == 0
        assert "mean_edge_density=0.000" in capsys.readouterr().out

    def test_unwritable_path_is_io_error(self, tmp_path):
        rc = main(["gen-data", "--graphs", "4", "--nodes", "8", "--classes",
                   "2", "--out", str(tmp_path)])  # a directory, not a file
        assert rc == 4


class TestSweepDropedge:
    def test_grid_rows_and_run_jsons(self, tiny_dataset, sweep_config, tmp_path,
                                     capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(out), "--config", str(sweep_config)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "empty edge sets" in stdout  # p=1.0 drop contract asserted

        lines = (out / "dropedge.csv").read_text().splitlines()
        assert lines[0] == "dataset,p,model,mean,std"
        assert len(lines) == 1 + 6  # 2 models x 3 probabilities

        run_files = sorted((out / "runs").glob("*.json"))
        assert len(run_files) == 6
        payload = json.loads(run_files[0].read_text())
        assert payload["dataset_hash"] == git_blob_sha1(
            tiny_dataset.read_bytes())
        assert len(payload["config_hash"]) == 64
        assert payload["seeds"] == [0]

    def test_rerun_byte_identical(self, tiny_dataset, sweep_config, tmp_path):
        out = tmp_path / "sweep"
        args = ["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                str(out), "--config", str(sweep_config)]
        assert main(args) == 0
        first = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(args) == 0
        second = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert first == second

    def test_worker_pool_matches_serial(self, tiny_dataset, sweep_config,
                                        tmp_path):
        serial, pooled = tmp_path / "s", tmp_path / "p"
        base = ["sweep-dropedge", "--dataset", str(tiny_dataset), "--config",
                str(sweep_config), "--model", "residual-gcn"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--out", str(pooled), "--workers", "3"]) == 0
        for path in sorted(serial.rglob("*")):
            if path.is_file():
                twin = pooled / path.relative_to(serial)
                assert twin.read_bytes() == path.read_bytes()

    def test_worker_pool_is_no_larger_than_the_cell_count(
            self, tiny_dataset, sweep_config, tmp_path, monkeypatch):
        pools = []

        class InlinePool:  # records its size and runs the cells in this process
            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_worker_dataset", None)
        assert main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--config",
                     str(sweep_config), "--model", "residual-gcn", "--out",
                     str(tmp_path / "o"), "--workers", "8"]) == 0
        assert pools == [3]  # three drop probabilities, one cell each
        assert len(list((tmp_path / "o" / "runs").iterdir())) == 3

    def test_dataset_hash_is_the_files_blob_sha1(self, tiny_dataset,
                                                 sweep_config, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                     str(out), "--config", str(sweep_config), "--model",
                     "exphormer"]) == 0
        expected = git_blob_sha1(tiny_dataset.read_bytes())
        runs = sorted((out / "runs").glob("*.json"))
        assert len(runs) == 3
        for run in runs:
            assert json.loads(run.read_text())["dataset_hash"] == expected

    def test_dataset_spec_hash_is_the_generated_files_blob_sha1(
            self, sweep_config, tmp_path):
        cfg = json.loads(sweep_config.read_text())
        cfg.update(dataset_spec={"num_graphs": 16, "n": 8, "seed": 5},
                   drop_probabilities=[0.0])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        data = tmp_path / "spec.jsonl"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
        out = tmp_path / "sweep"
        assert main(["sweep-dropedge", "--config", str(cfg_path), "--out", str(out),
                     "--model", "residual-gcn"]) == 0
        run = json.loads((out / "runs" / "dropedge_residual_gcn_p0.00.json")
                         .read_text())
        assert run["dataset_hash"] == git_blob_sha1(data.read_bytes())

    @pytest.mark.parametrize("source", ["crlf-file", "pipe"])
    def test_dataset_hash_of_a_crlf_file_or_a_pipe(self, tiny_dataset,
                                                   sweep_config, tmp_path, source):
        lines = tiny_dataset.read_bytes().splitlines()
        raw = b"\r\n".join(lines[:3] + [b"", b" "] + lines[3:] + [b"", b""])
        data = tmp_path / "crlf.jsonl"
        data.write_bytes(raw)
        if source == "pipe":  # as --dataset <(cat crlf.jsonl) would pass it
            data = tmp_path / "crlf.fifo"
            os.mkfifo(data)
            threading.Thread(target=data.write_bytes, args=(raw,),
                             daemon=True).start()
        out = tmp_path / "sweep"
        assert main(["sweep-dropedge", "--dataset", str(data), "--out", str(out),
                     "--config", str(sweep_config), "--model", "residual-gcn"]) == 0
        for run in (out / "runs").glob("*.json"):
            assert json.loads(run.read_text())["dataset_hash"] == git_blob_sha1(raw)

    def test_p_one_runs_marked(self, tiny_dataset, sweep_config, tmp_path):
        out = tmp_path / "sweep"
        main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
              str(out), "--config", str(sweep_config), "--model",
              "residual-gcn"])
        payload = json.loads(
            (out / "runs" / "dropedge_residual_gcn_p1.00.json").read_text())
        assert payload["empty_edge_check"] is True


    def test_surviving_edge_at_p_one_is_an_error(self, tiny_dataset,
                                                 sweep_config, tmp_path,
                                                 monkeypatch, capsys):
        real = training.drop_edges

        def keep_one_edge(g, p, seed=0):
            out = real(g, p, seed)
            if p == 1.0 and g.num_edges:
                out.edges, out.weights = g.edges[:1].copy(), g.weights[:1].copy()
            return out

        cfg = json.loads(sweep_config.read_text())
        cfg["drop_probabilities"] = [1.0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        trained = []

        def record(cfg, dataset, drop_p):
            trained.append(drop_p)
            return run_experiment(cfg, dataset, drop_p)

        monkeypatch.setattr(training, "drop_edges", keep_one_edge)
        monkeypatch.setattr(cli, "run_experiment", record)
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "sweep"), "--config", str(cfg_path),
                   "--model", "residual-gcn"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("contract error: p=1.00 left edges")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert trained == []  # the contract is checked before any cell trains

    def test_ctrl_c_exits_130_without_traceback(self, tiny_dataset,
                                                 sweep_config, tmp_path,
                                                 monkeypatch, capsys):
        def interrupt(dataset, cells, workers):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run_cells", interrupt)
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "sweep"), "--config", str(sweep_config),
                   "--model", "residual-gcn"])
        assert rc == 130
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "interrupted" in err
        assert "Traceback" not in err


class TestSweepDropout:
    def test_grid_matrices(self, tiny_dataset, sweep_config, tmp_path):
        out = tmp_path / "dropout"
        cfg = json.loads(sweep_config.read_text())
        cfg["dropout_grid"] = [0.1, 0.3]
        cfg["attention_dropout_grid"] = [0.1, 0.3, 0.5]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["sweep-dropout", "--dataset", str(tiny_dataset), "--out",
                   str(out), "--config", str(cfg_path)])
        assert rc == 0
        for name in ("dropout_val.csv", "dropout_test.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "dropout,0.10,0.30,0.50"
            assert len(lines) == 3  # header + 2 dropout rows
            assert all(len(line.split(",")) == 4 for line in lines[1:])
        assert len(list((out / "runs").glob("*.json"))) == 6


class TestSweepLayers:
    def test_two_rows_val_test(self, tiny_dataset, sweep_config, tmp_path):
        out = tmp_path / "layers"
        rc = main(["sweep-layers", "--dataset", str(tiny_dataset), "--out",
                   str(out), "--config", str(sweep_config)])
        assert rc == 0
        lines = (out / "layers.csv").read_text().splitlines()
        assert lines[0] == "layers,val,test,val_std,test_std"
        assert len(lines) == 3
        assert lines[1].startswith("2,")
        assert lines[2].startswith("3,")

    def test_cells_hand_their_train_config_to_the_runner(
            self, tiny_dataset, sweep_config, tmp_path, monkeypatch):
        real, seen = cli._execute_cell, []

        def record(dataset, payload):
            seen.append(payload)
            return real(dataset, payload)

        monkeypatch.setattr(cli, "_execute_cell", record)
        assert main(["sweep-layers", "--dataset", str(tiny_dataset), "--out",
                     str(tmp_path / "layers"), "--config", str(sweep_config)]) == 0
        assert [p["key"] for p in seen] == ["layers_2", "layers_3"]
        assert all(isinstance(p["cfg"], TrainConfig) for p in seen)
        assert [p["cfg"].exphormer.num_layers for p in seen] == [2, 3]


class TestSweepVariants:
    def test_probability_zero_matches_plain_model(self, tiny_dataset,
                                                  sweep_config, tmp_path):
        out = tmp_path / "variants"
        cfg = json.loads(sweep_config.read_text())
        cfg["variants"] = [["after_concat", 0.0], ["after_concat", 1.0]]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["sweep-variants", "--dataset", str(tiny_dataset), "--out",
                   str(out), "--config", str(cfg_path)])
        assert rc == 0
        lines = (out / "variants.csv").read_text().splitlines()
        assert lines[0] == "placement,probability,val,test"
        assert len(lines) == 3

        from connectobench import deserialize_dataset
        ds = deserialize_dataset(tiny_dataset)
        plain_cfg = TrainConfig(
            total_epochs=3, warmup_epochs=1, seeds=(0,),
            model_kind="residual_gcn",
            gcn=ResidualGCNConfig(num_gcn_layers=2, hidden_dim=6, mlp_hidden=6))
        plain = run_experiment(plain_cfg, ds, 0.0)
        payload = json.loads(
            (out / "runs" / "variant_after_concat_p0.00.json").read_text())
        assert payload["mean_test"] == plain.mean_test
        assert payload["mean_val"] == plain.mean_val
        assert payload["runs"][0]["curves"] == plain.runs[0].to_dict()["curves"]


# one epoch's curves, as a sweep's run JSON holds them
_CURVES = {"epoch": [0], "train_acc": [50.0], "val_acc": [50.0],
           "test_acc": [50.0], "loss": [0.7], "lr": [0.001]}


class TestCurves:
    def test_row_count_and_gap(self, tmp_path, capsys):
        epochs = 100
        curves = {
            "epoch": list(range(epochs)),
            "train_acc": [80.0 + 0.1 * e for e in range(epochs)],
            "val_acc": [70.0] * epochs,
            "test_acc": [68.0] * epochs,
            "loss": [0.5] * epochs,
            "lr": [0.001] * epochs,
        }
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps({"runs": [{"seed": 0,
                                                  "curves": curves}]}))
        out = tmp_path / "curves"
        rc = main(["curves", "--run", str(run_path), "--out", str(out)])
        assert rc == 0
        lines = (out / "curves_seed0.csv").read_text().splitlines()
        assert len(lines) == 1 + epochs * 3
        stdout = capsys.readouterr().out
        expected_gap = (80.0 + 0.1 * 99) - 68.0
        assert f"final train-test gap = {expected_gap:.2f}" in stdout

    def test_missing_run_is_io_error(self, tmp_path):
        rc = main(["curves", "--run", str(tmp_path / "nope.json"), "--out",
                   str(tmp_path / "out")])
        assert rc == 4

    @pytest.mark.parametrize("text", [
        '{"runs": [', '{"runs": [{"seed": 0}]}',
        pytest.param("[" * 200_000, id="nested"),
        # a JSON true or false is no number, though it formats as one
        *[pytest.param(json.dumps({"runs": [{"seed": 0, "curves": dict(
            _CURVES, **{name: [i % 2 == 0]})}]}), id=f"{name}-bool")
          for i, name in enumerate(("train_acc", "val_acc", "test_acc", "loss", "lr"))]])
    def test_malformed_run_is_dataset_error(self, tmp_path, capsys, text):
        run_path = tmp_path / "run.json"
        run_path.write_text(text)
        rc = main(["curves", "--run", str(run_path), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert f"malformed run JSON {run_path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def run_file(tmp_path, seeds):
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(
            {"runs": [{"seed": seed, "curves": _CURVES} for seed in seeds]}))
        return run_path

    def assert_refused(self, tmp_path, capsys, run_path, message):
        rc = main(["curves", "--run", str(run_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 4 and len(err) == 1
        assert f"malformed run JSON {run_path}" in err[0] and message in err[0]
        assert not (tmp_path / "out").exists()

    def test_repeated_seed_is_dataset_error(self, tmp_path, capsys):
        # both runs would write curves_seed1.csv
        self.assert_refused(tmp_path, capsys, self.run_file(tmp_path, [0, 1, 1]),
                            "seeds [0, 1, 1] repeat")

    @pytest.mark.parametrize("seed", [1.5, "x/y", True, None])
    def test_seed_that_is_not_a_json_integer_is_dataset_error(self, tmp_path,
                                                              capsys, seed):
        self.assert_refused(tmp_path, capsys, self.run_file(tmp_path, [0, seed]),
                            f"seed {seed!r} is not a JSON integer")

    def test_epoch_that_is_not_a_json_integer_is_dataset_error(self, tmp_path,
                                                               capsys):
        # a string epoch would start injected CSV rows
        run_path = self.run_file(tmp_path, [0])
        run = json.loads(run_path.read_text())
        run["runs"][0]["curves"] = {
            "epoch": ["0\n9,evil,row", 1], "train_acc": [50.0, 60.0],
            "val_acc": [50.0, 60.0], "test_acc": [50.0, 60.0],
            "loss": [0.7, 0.6], "lr": [0.001, 0.001]}
        run_path.write_text(json.dumps(run))
        self.assert_refused(tmp_path, capsys, run_path,
                            "epoch '0\\n9,evil,row' is not a JSON integer")

    def test_series_of_unequal_length_is_dataset_error(self, tmp_path, capsys):
        # one epoch's row gives a gap of 49, the series' last values 97
        run_path = self.run_file(tmp_path, [0])
        run = json.loads(run_path.read_text())
        run["runs"][0]["curves"].update(train_acc=[50.0, 99.0], test_acc=[1.0, 2.0])
        run_path.write_text(json.dumps(run))
        self.assert_refused(tmp_path, capsys, run_path,
                            "curve series lengths [1, 2, 1, 2, 1, 1] differ")

    def test_unwritable_name_writes_nothing(self, tmp_path, capsys):
        # a valid JSON integer whose file name is too long for the file system
        run_path = self.run_file(tmp_path, [0, 10 ** 300])
        out = tmp_path / "out"
        rc = main(["curves", "--run", str(run_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        assert captured.err.startswith("I/O error")
        assert list(out.iterdir()) == []


class TestExitCodes:
    def test_invalid_config_json(self, tiny_dataset, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 2

    def test_epochs_below_warmup_is_config_error(self, tiny_dataset, tmp_path):
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "o"), "--epochs", "2"])
        assert rc == 2

    def test_non_integer_seeds_is_config_error(self, tiny_dataset, tmp_path,
                                               capsys):
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "o"), "--seeds", "a,b"])
        assert rc == 2
        assert "--seeds" in capsys.readouterr().err

    def test_unknown_train_key_is_config_error(self, tiny_dataset, tmp_path,
                                               capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"bogus": 1}}))
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_out_of_range_label_is_dataset_error(self, tiny_dataset, tmp_path,
                                                 capsys):
        lines = tiny_dataset.read_text().splitlines()
        record = json.loads(lines[5])
        record["y"] = 7
        lines[5] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["sweep-dropedge", "--dataset", str(bad), "--out",
                   str(tmp_path / "o")])
        assert rc == 4
        assert "line 6" in capsys.readouterr().err

    def test_dataset_file_that_grows_while_read_is_dataset_error(
            self, tiny_dataset, tmp_path, monkeypatch, capsys):
        data = tmp_path / "growing.jsonl"
        data.write_bytes(tiny_dataset.read_bytes())
        last = data.read_bytes().splitlines(keepends=True)[-1]
        parse = data_module._parse_graph_line

        def parse_then_append(obj, line):
            if line == 2:
                with open(data, "ab") as fh:
                    fh.write(last)
            return parse(obj, line)

        monkeypatch.setattr(data_module, "_parse_graph_line", parse_then_append)
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        rc = main(["sweep-dropedge", "--dataset", str(data), "--out",
                   str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [f"dataset error: dataset file {data} changed size while "
                       f"it was read ({len(tiny_dataset.read_bytes())} bytes "
                       f"when opened)"]
        assert trained == []

    # each weight list fits the edges a re-pairing loader would read:
    # (0, 1) and (2, 3), or (0, 1)
    @pytest.mark.parametrize("edges,weights", [([[0, 1, 2, 3]], [0.9, 0.8]),
                                               ([[0], [1]], [0.9])])
    def test_edge_entry_that_is_not_a_pair_is_dataset_error(
            self, tiny_dataset, tmp_path, monkeypatch, capsys, edges, weights):
        lines = tiny_dataset.read_text().splitlines()
        record = json.loads(lines[2])
        record.update(edges=edges, w=weights)
        lines[2] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        rc = main(["sweep-dropedge", "--dataset", str(bad), "--out",
                   str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 3" in err[0] and "must be a pair" in err[0]
        assert trained == []

    def test_graph_with_no_nodes_is_dataset_error(self, tiny_dataset, tmp_path,
                                                  monkeypatch, capsys):
        lines = tiny_dataset.read_text().splitlines()
        record = json.loads(lines[3])
        record.update(n=0, x=[], edges=[], w=[])
        lines[3] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        rc = main(["sweep-dropedge", "--dataset", str(bad), "--out",
                   str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 4" in err[0] and "n=0" in err[0]
        assert trained == []

    def test_record_without_features_is_dataset_error(self, tiny_dataset, tmp_path,
                                                      monkeypatch, capsys):
        # with d = 0 in every record no feature-dim check sees a mismatch
        lines = tiny_dataset.read_text().splitlines()
        for i, line in enumerate(lines[1:], 1):
            record = json.loads(line)
            record.update(d=0, x=[], n=10 ** 9 if i == 3 else record["n"])
            lines[i] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        rc = main(["sweep-dropedge", "--dataset", str(bad), "--out",
                   str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 2" in err[0] and "d must be >= 1" in err[0]
        assert trained == []

    def test_negative_edge_weight_is_dataset_error_in_any_split(
            self, tiny_dataset, tmp_path, monkeypatch, capsys):
        # unrefused, the GCN normalization takes the square root of a negative
        # degree product: a NaN loss in the train split, a NaN row scored as
        # class 0 in the test split
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        lines = tiny_dataset.read_text().splitlines()
        for at in range(1, len(lines)):  # every graph, so every split
            record = json.loads(lines[at])
            record.update(edges=[[0, 1], [1, 2]], w=[-2.0, 0.5])
            bad = tmp_path / "bad.jsonl"
            bad.write_text("\n".join(lines[:at] + [json.dumps(record)]
                                     + lines[at + 1:]) + "\n")
            rc = main(["sweep-dropedge", "--dataset", str(bad), "--out",
                       str(tmp_path / "o")])
            assert rc == 4
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and f"line {at + 1}" in err[0]
            assert "negative edge weight -2.0" in err[0]
        assert trained == []

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_config_error(self, tmp_path, monkeypatch,
                                               capsys, workers):
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: pytest.fail("a cell trained"))
        # the dataset does not exist: reading it would exit 4, not 2
        rc = main(["sweep-dropedge", "--dataset", str(tmp_path / "no.jsonl"),
                   "--out", str(tmp_path / "o"), "--workers", workers])
        assert rc == 2
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err

    def test_missing_dataset_is_io_error(self, tmp_path):
        rc = main(["sweep-dropedge", "--dataset", str(tmp_path / "no.jsonl"),
                   "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_divergence_exit_code(self, tiny_dataset, tmp_path):
        cfg = tmp_path / "lr.json"
        cfg.write_text(json.dumps({
            "train": {"base_lr": 1e120, "total_epochs": 3, "warmup_epochs": 0,
                      "seeds": [0],
                      "gcn": {"num_gcn_layers": 2, "hidden_dim": 6,
                              "mlp_hidden": 6}}}))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset),
                       "--model", "residual-gcn", "--out", str(tmp_path / "o"),
                       "--config", str(cfg)])
        assert rc == 3

    def test_divergence_names_seed_and_cell(self, tiny_dataset, tmp_path, capsys):
        cfg = tmp_path / "lr.json"
        cfg.write_text(json.dumps({
            "train": {"base_lr": 1e120, "total_epochs": 3, "warmup_epochs": 0,
                      "seeds": [2],
                      "gcn": {"num_gcn_layers": 2, "hidden_dim": 6,
                              "mlp_hidden": 6}}}))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset),
                       "--model", "residual-gcn", "--out", str(tmp_path / "o"),
                       "--config", str(cfg)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "cell dropedge_residual_gcn_p0.00, seed 2: non-finite" in err

    # 10**14 asks for petabytes, more than a 47-bit address space maps, and
    # 10**30 passes numpy's largest dimension: neither touches a page
    @pytest.mark.parametrize("width,reason", [(10 ** 14, "Unable to allocate"),
                                              (10 ** 30, "Maximum allowed dimension")])
    def test_width_numpy_cannot_allocate_is_config_error(self, tiny_dataset, tmp_path,
                                                         capsys, width, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"gcn": {"hidden_dim": width}}}))
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--model",
                   "residual-gcn", "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and reason in err[0]
        assert f"parameter gcn0.weight of shape (8, {width})" in err[0]

    @pytest.mark.parametrize("model,train,key", [
        ("exphormer", {"exphormer": {"num_layers": 10 ** 9, "hidden_dim": 2,
                                     "num_heads": 1}}, "num_layers"),
        ("residual-gcn", {"gcn": {"num_gcn_layers": 10 ** 9, "hidden_dim": 2}},
         "num_gcn_layers")])
    def test_layer_count_that_cannot_be_built_is_config_error(self, tmp_path, model,
                                                              train, key):
        # in a child process: building 10**9 layers one by one would not end
        path = tmp_path / "d.jsonl"
        serialize_dataset(generate_synthetic(SyntheticSpec(
            num_graphs=12, n=8, num_classes=2, label_mode="feature_only",
            seed=3)), path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": train}))
        proc = subprocess.run(
            [sys.executable, "-m", "connectobench.cli", "sweep-dropedge", "--dataset",
             str(path), "--model", model, "--config", str(cfg), "--out",
             str(tmp_path / "o")], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 2, proc.stderr[-2000:]
        err = proc.stderr.splitlines()
        assert len(err) == 1 and f"{key} {10 ** 9} needs about" in err[0]
        assert "physical memory" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("train", [{"total_epochs": "5"},
                                       {"gcn": {"hidden_dim": "x"}},
                                       {"seeds": [0, 1.5]},
                                       {"gcn": {"use_edge_weights": 1}}])
    def test_wrongly_typed_value_is_config_error(self, tiny_dataset, tmp_path,
                                                 capsys, train):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": train}))
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        assert "must be of the type of its default" in capsys.readouterr().err

    def test_bad_cell_config_fails_before_any_cell_trains(
            self, tiny_dataset, sweep_config, tmp_path, monkeypatch, capsys):
        cfg = json.loads(sweep_config.read_text())
        cfg["dropout_grid"] = [0.1, 1.5]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        rc = main(["sweep-dropout", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "o"), "--config", str(cfg_path)])
        assert rc == 2
        assert "dropout must be in [0, 1), got 1.5" in capsys.readouterr().err
        assert trained == []
        # 4 heads divide the after_concat width 2 * 6 = 12 but not the
        # after_each_gcn width 6, so the second cell's config is refused
        cfg = json.loads(sweep_config.read_text())
        cfg["train"]["variant"]["num_heads"] = 4
        cfg["variants"] = [["after_concat", 1.0], ["after_each_gcn", 1.0]]
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["sweep-variants", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "v"), "--config", str(cfg_path)])
        assert rc == 2
        assert "attention width 6 (after_each_gcn) not divisible by 4 heads" \
            in capsys.readouterr().err
        assert trained == []

    def test_too_few_graphs_is_dataset_error(self, tmp_path, capsys):
        data = tmp_path / "three.jsonl"
        assert main(["gen-data", "--graphs", "3", "--nodes", "8", "--seed", "1",
                     "--out", str(data)]) == 0
        rc = main(["sweep-dropedge", "--dataset", str(data), "--out",
                   str(tmp_path / "o")])
        assert rc == 4
        assert re.search(r"dataset error: the (val|test) split is empty: 3 graphs",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("command,grid", [
        ("sweep-dropedge", {"drop_probabilities": ["a"]}),
        ("sweep-layers", {"layer_counts": 2}),
        ("sweep-variants", {"variants": [["after_concat"]]}),
        ("sweep-dropout", {"attention_dropout_grid": []}),
        # values int()/float() would convert are still the wrong JSON type
        ("sweep-layers", {"layer_counts": [2.5, True]}),
        ("sweep-dropedge", {"drop_probabilities": [True, "0.5"]}),
        ("sweep-variants", {"variants": [["after_concat", True]]}),
    ])
    def test_malformed_grid_is_config_error(self, tiny_dataset, tmp_path, capsys,
                                            command, grid):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(grid))
        rc = main([command, "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        assert next(iter(grid)) in capsys.readouterr().err

    # a string would be split into characters and a dict read as its keys
    @pytest.mark.parametrize("models", ["exphormer", {"residual-gcn": 1}])
    def test_models_grid_that_is_not_a_list_is_config_error(
            self, tiny_dataset, tmp_path, monkeypatch, capsys, models):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": models}))
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "o"), "--config", str(cfg)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1
        assert "models" in err[0] and repr(models) in err[0]
        assert trained == []

    def test_unknown_model_name_is_config_error(self, tiny_dataset, tmp_path,
                                                monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": ["bogus"]}))
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        rc = main(["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                   str(tmp_path / "o"), "--config", str(cfg)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1
        assert "models" in err[0] and "bogus" in err[0]
        # the message names the accepted spellings
        for name in ("residual-gcn", "residual_gcn", "attn-residual-gcn", "exphormer"):
            assert name in err[0]
        assert trained == []

    @pytest.mark.parametrize("spec,word", [({"bogus": 1}, "bogus"),
                                           ({"n": "x"}, "dataset_spec.n"),
                                           ({"d": 2.5}, "dataset_spec.d")])
    def test_bad_dataset_spec_is_config_error(self, tmp_path, capsys, spec, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset_spec": spec}))
        rc = main(["gen-data", "--config", str(cfg), "--out",
                   str(tmp_path / "ds.jsonl")])
        assert rc == 2
        assert word in capsys.readouterr().err

    def test_empty_dataset_spec_generates_the_default_dataset(self, monkeypatch):
        specs, tiny = [], generate_synthetic(SyntheticSpec(num_graphs=4, n=8))
        monkeypatch.setattr(cli, "generate_synthetic",
                            lambda spec: specs.append(spec) or tiny)
        ds, _, name = cli._resolve_dataset(argparse.Namespace(dataset=None),
                                           {"dataset_spec": {}})
        assert specs == [SyntheticSpec()] and ds is tiny and name == "synthetic"

    def test_empty_dataset_flag_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset_spec": {"num_graphs": 4, "n": 8}}))
        rc = main(["sweep-dropedge", "--dataset", "", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and err == ["config error: --dataset must be a path, got ''"]

    def test_dataset_spec_takes_an_int_feature_dim(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset_spec": {"num_graphs": 4, "n": 12,
                                                    "d": 10}}))
        out = tmp_path / "ds.jsonl"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text().splitlines()[1])["d"] == 10

    @pytest.mark.parametrize("command,content,message", [
        ("sweep-dropedge", b"[1, 2]", "cfg.json must hold a JSON object, got list"),
        ("gen-data", b"[1, 2]", "cfg.json must hold a JSON object, got list"),
        ("sweep-dropedge", b"\xff\xfe{}", "cfg.json: 'utf-8' codec can't decode"),
        ("gen-data", b"\xff\xfe{}", "cfg.json: 'utf-8' codec can't decode"),
        ("sweep-dropedge", b"[" * 100_000, "cfg.json: maximum recursion depth"),
        ("sweep-dropedge", b'{"dataset": 5}', "config key dataset must be a path"),
        ("sweep-dropedge", b'{"dataset": ""}', "config key dataset must be a path, got ''"),
        ("sweep-dropedge", b'{"dataset": 0}', "config key dataset must be a path, got 0"),
        ("sweep-dropedge", b'{"dataset": false, "dataset_spec": {}}',
         "config key dataset must be a path, got False"),
    ])
    def test_malformed_config_file_is_config_error(self, tmp_path, monkeypatch,
                                                   capsys, command, content,
                                                   message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1 and message in err[0]
        assert trained == []

    @pytest.mark.parametrize("command,grid,key", [
        ("sweep-dropedge", {"drop_probabilities": [0.001, 0.004]},
         "dropedge_residual_gcn_p0.00"),
        ("sweep-dropedge", {"models": ["residual_gcn", "residual-gcn"]},
         "dropedge_residual_gcn_p0.00"),
        ("sweep-dropout", {"dropout_grid": [0.1, 0.104]}, "dropout_d0.10_a0.10"),
        ("sweep-layers", {"layer_counts": [2, 3, 2]}, "layers_2"),
        ("sweep-variants", {"variants": [["after_concat", 1.0],
                                         ["after_concat", 0.999]]},
         "variant_after_concat_p1.00"),
    ])
    def test_repeated_cell_key_fails_before_reading_the_dataset(
            self, tmp_path, monkeypatch, capsys, command, grid, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(grid))
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        # the dataset does not exist: reading it would exit 4, not 2
        rc = main([command, "--dataset", str(tmp_path / "absent.jsonl"), "--out",
                   str(tmp_path / "o"), "--config", str(cfg)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert err == [f"config error: two grid cells share the key {key}"]
        assert trained == [] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gen-data", "sweep-dropedge",
                                         "sweep-dropout", "sweep-layers",
                                         "sweep-variants"])
    def test_unknown_config_key_fails_before_reading_the_dataset(
            self, tmp_path, monkeypatch, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"drop_probabilites": [0.0],
                                   "trian": {"total_epochs": 1}}))
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command != "gen-data":
            # the dataset does not exist: reading it would exit 4, not 2
            argv += ["--dataset", str(tmp_path / "absent.jsonl")]
        rc = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert err == [f"config error: unknown key(s) in config file {cfg}: "
                       "drop_probabilites, trian"]
        assert trained == [] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sweep-dropout", "sweep-layers",
                                         "sweep-variants"])
    def test_model_flag_exists_only_on_sweep_dropedge(
            self, tiny_dataset, tmp_path, monkeypatch, capsys, command):
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", str(tiny_dataset), "--out",
                  str(tmp_path / "o"), "--model", "residual-gcn"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --model residual-gcn" \
            in capsys.readouterr().err
        assert trained == [] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("train", [
        '"base_lr": NaN', '"base_lr": Infinity', '"base_lr": -Infinity',
        '"base_lr": 1e400', '"decay_per_epoch": NaN',
        pytest.param('"base_lr": 1' + "0" * 400, id="base_lr-int-above-float64")])
    def test_non_finite_number_in_config_file_is_config_error(
            self, tmp_path, monkeypatch, capsys, train):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"train": {%s}}' % train)
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        # the dataset does not exist: reading it would exit 4, not 2
        rc = main(["sweep-dropedge", "--dataset", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "o"), "--config", str(cfg)])
        err = capsys.readouterr().err.splitlines()
        number = train.split(": ")[1]
        assert rc == 2
        assert err == [f"config error: invalid config JSON in {cfg}: "
                       f"not a finite float64: {number}"]
        assert trained == [] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sweep-dropedge", "sweep-dropout",
                                         "sweep-layers", "sweep-variants"])
    def test_model_kind_in_config_file_is_config_error(
            self, tmp_path, monkeypatch, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"model_kind": "exphormer"}}))
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        argv = [command, "--dataset", str(tmp_path / "absent.jsonl"), "--out",
                str(tmp_path / "o"), "--config", str(cfg)]
        if command == "sweep-dropedge":
            argv += ["--model", "residual-gcn"]
        rc = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and "train.model_kind" in err[0]
        assert trained == [] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags,train", [(["--seeds", "0,0"], {}),
                                             ([], {"seeds": [1, 2, 1]})])
    def test_repeated_seed_is_config_error(self, tmp_path, monkeypatch, capsys,
                                           flags, train):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": train}))
        trained = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: trained.append(args))
        rc = main(["sweep-dropedge", "--dataset", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "o"), "--config", str(cfg), *flags])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and "seeds must be non-empty and distinct" in err[0]
        assert trained == [] and not (tmp_path / "o").exists()

    def test_file_value_made_valid_by_a_flag_trains(self, tiny_dataset,
                                                    sweep_config, tmp_path):
        # warmup_epochs 150 is invalid with the file's 3 epochs, valid with 200
        cfg = json.loads(sweep_config.read_text())
        cfg["train"]["warmup_epochs"] = 150
        cfg["drop_probabilities"] = [0.0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["sweep-dropedge", "--dataset", str(tiny_dataset), "--out",
                str(tmp_path / "o"), "--config", str(cfg_path), "--model",
                "residual-gcn"]
        assert main(argv) == 2
        assert main(argv + ["--epochs", "200"]) == 0
        run = json.loads((tmp_path / "o" / "runs" /
                          "dropedge_residual_gcn_p0.00.json").read_text())
        assert len(run["runs"][0]["curves"]["epoch"]) == 200
        # gen-data: a dataset_spec with d above n, made valid by --nodes
        cfg_path.write_text(json.dumps({"dataset_spec": {"num_graphs": 4, "n": 6,
                                                         "d": 8}}))
        argv = ["gen-data", "--config", str(cfg_path), "--out",
                str(tmp_path / "ds.jsonl")]
        assert main(argv) == 2
        assert main(argv + ["--nodes", "10"]) == 0
        assert json.loads((tmp_path / "ds.jsonl").read_text().splitlines()[1])["d"] == 8

    def test_non_utf8_dataset_is_dataset_error(self, tiny_dataset, tmp_path,
                                               capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(tiny_dataset.read_bytes().splitlines(keepends=True)[0]
                        + b"\xff\xfe\n")
        rc = main(["sweep-dropedge", "--dataset", str(bad), "--out",
                   str(tmp_path / "o")])
        assert rc == 4
        assert "line 2: not UTF-8" in capsys.readouterr().err
