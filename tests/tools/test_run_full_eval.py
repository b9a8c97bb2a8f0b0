"""run_full_eval.py: ``--quick`` runs the quick rows into their own file."""

import dataclasses
import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
           / "scripts" / "run_full_eval.py")


@pytest.fixture
def run_full_eval(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("run_full_eval", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.calls = {}

    @dataclasses.dataclass
    class Row:
        row_id: str = "stub"

    def stub(study):
        def run(**kwargs):
            module.calls[study] = kwargs
            return [Row()]
        return run

    monkeypatch.setattr(module, "run_table1", stub("table1"))
    monkeypatch.setattr(module, "run_table2", stub("table2"))
    monkeypatch.setattr(module, "run_constant_time", stub("ct"))
    monkeypatch.setattr(module, "format_table", lambda rows, **kw: "")
    monkeypatch.chdir(tmp_path)
    return module


def test_documented_quick_command_line_runs_the_quick_rows(run_full_eval,
                                                           tmp_path):
    # docs/observability.md: run_full_eval.py --quick --trace run.jsonl
    args = run_full_eval.parse_args(["--quick", "--trace", "run.jsonl"])
    assert args.quick and args.trace == "run.jsonl"
    run_full_eval.main(["--quick", "--trace", "run.jsonl"])
    calls = run_full_eval.calls
    assert calls["table1"]["quick"] is True
    assert calls["table1"]["monolithic_timeout"] == 120
    assert calls["table2"]["quick"] is True
    assert calls["ct"]["lengths"] == (4, 12, 21, 32)
    saved = json.loads((tmp_path / "results" / "quick_eval.json").read_text())
    assert set(saved) == {"table1", "table2", "constant_time",
                          "constant_time_seconds"}
    assert not (tmp_path / "results" / "full_eval.json").exists()
    assert (tmp_path / "run.jsonl").exists()


def test_default_run_keeps_the_full_rows_and_file(run_full_eval, tmp_path):
    with pytest.raises(SystemExit):
        run_full_eval.parse_args(["tables"])
    run_full_eval.main(["table1", "ct"])
    calls = run_full_eval.calls
    assert calls["table1"]["quick"] is False
    assert calls["table1"]["monolithic_timeout"] == 300
    assert calls["ct"]["lengths"] == tuple(range(4, 33))
    assert "table2" not in calls
    assert (tmp_path / "results" / "full_eval.json").exists()
    assert not (tmp_path / "results" / "quick_eval.json").exists()
