"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, smoke runs."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tr  # noqa: E402
import workload as wl  # noqa: E402
from connectobench import cli, models  # noqa: E402

ATTENTION_OPS = ["gather_rows", "mul", "sum_col_blocks", "softmax_segments",
                 "expand_col_blocks", "segment_sum_rows"]


def test_self_time_on_hand_built_tree():
    # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3); b holds
    # d [5, 6) and e [7, 8.5).
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5]
    parent = [-1, 0, 1, 0, 3, 3]
    got = tr.self_times(start, end, parent)
    np.testing.assert_allclose(got, [10 - 3 - 4, 3 - 1, 1, 4 - 1 - 1.5, 1, 1.5])


def test_spans_record_parents_and_cells():
    s = tr.Spans()
    outer = s.open(s.intern("outer"))
    s.set_cell("cell-a")
    inner = s.open(s.intern("inner"), block=7)
    s.close(inner)
    s.set_cell(None)
    s.close(outer)
    a = s.arrays()
    assert a["parent"].tolist() == [-1, outer]
    assert a["cell"].tolist() == [-1, 0] and s.cells == ["cell-a"]
    assert a["block"].tolist() == [-1, 7]
    assert np.all(a["end"] >= a["start"]) and not s.stack


def _bindings():
    """Every attribute of the connectobench modules and model classes."""
    seen = {}
    for mod in tr._modules():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
    for cls in (models.ResidualGCN, models.AttnResidualGCN, models.Exphormer):
        for attr, value in vars(cls).items():
            seen[(cls.__qualname__, attr)] = value
    return seen


def _tiny_sweep(tmp_path, name, model):
    argv = ["sweep-dropedge", "--dataset", str(tmp_path / "data.jsonl"),
            "--out", str(tmp_path / name), "--config", str(tmp_path / "cfg.json"),
            "--model", model]
    assert cli.main(argv) == 0
    return {str(p.relative_to(tmp_path / name)): p.read_bytes()
            for p in sorted((tmp_path / name).rglob("*")) if p.is_file()}


@pytest.mark.parametrize("model", ["residual-gcn", "exphormer", "attn-residual-gcn"])
def test_tracing_changes_no_output_and_leaves_no_wrapper(tmp_path, capsys, model):
    assert cli.main(["gen-data", "--graphs", "16", "--nodes", "8", "--classes", "2",
                     "--seed", "3", "--out", str(tmp_path / "data.jsonl")]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"train": {"total_epochs": 2, "warmup_epochs": 1, "seeds": [0, 1]}}))
    before = _bindings()
    plain = _tiny_sweep(tmp_path, "plain", model)
    t = tr.Tracer(full=True)
    with t:
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        traced = _tiny_sweep(tmp_path, "traced", model)
    after = _bindings()
    capsys.readouterr()
    assert len(changed) > 40
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain
    assert len(t.spans) > 0 and not t.spans.stack


def test_gates():
    flat = wl.WORKLOADS["gcn-feature"]
    assert wl.gate_failures(flat, {0.0: 100.0, 0.5: 98.0, 1.0: 97.5}, 2) == {}
    assert set(wl.gate_failures(flat, {0.0: 100.0, 0.5: 89.0, 1.0: 100.0}, 2)) \
        == {0.0, 0.5, 1.0}  # 89 < 90, and the spread of 11 fails every cell
    sens = wl.WORKLOADS["gcn-structure"]
    assert wl.gate_failures(sens, {0.0: 80.0, 1.0: 60.0}, 2) == {}
    assert set(wl.gate_failures(sens, {0.0: 79.9, 1.0: 60.1}, 2)) == {0.0, 1.0}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == wl.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == wl.PER_LAYER
    assert spec["paths"] == [HERE.name]


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_smoke_every_workload_at_tiny_shape(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        out = _run("--workload", name, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--tiny")
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
        assert list(out["metrics"]) == [m["name"] for m in expected]
        assert all(out["metrics"][m["name"]]["unit"] == m["unit"] for m in expected)
        if trace:
            calls = {op: out["metrics"][f"autodiff.{op}.calls"]["value"]
                     for op in tr.OPS}
            if name.startswith("gcn"):
                assert calls["sparse_aggregate"] > 0
                assert all(calls[op] == 0 for op in ATTENTION_OPS)
            else:
                assert calls["sparse_aggregate"] == 0
                assert all(calls[op] > 0 for op in ATTENTION_OPS)
        else:
            assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / HERE.name).mkdir()
    for f in ("run.py", "workload.py", "tracer.py"):
        (tmp_path / HERE.name / f).write_bytes((HERE / f).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "gcn-feature", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
