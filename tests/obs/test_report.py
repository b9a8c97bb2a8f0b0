"""End-to-end provenance: a real synthesis run, replayed from its trace.

The acceptance bar for the observability layer is *exactness*, not
plausibility: the totals :func:`repro.obs.report.totals` reconstructs
from the JSONL must equal what the synthesis result itself reports —
iteration counts, encode-counter deltas — and every solver query must
hang off an owning span.
"""

import os

import pytest

from repro.designs import alu_machine
from repro.obs import Tracer, installed
from repro.obs.report import render_report, solver_queries, totals
from repro.obs.schema import load_events
from repro.synthesis import synthesize


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "alu.jsonl"
    tracer = Tracer(path, run_id="test-alu")
    problem = alu_machine.build_problem()
    with installed(tracer):
        result = synthesize(problem, timeout=300)
    tracer.close()
    events, summary = load_events(path)
    return path, events, summary, result


def test_trace_is_schema_valid_and_fully_closed(traced_run):
    _, _, summary, _ = traced_run
    assert summary["run"] == "test-alu"
    assert summary["unclosed"] == []
    assert summary["spans"] > 0


def test_every_solver_query_has_an_owning_span(traced_run):
    _, events, _, _ = traced_run
    queries = solver_queries(events)
    assert queries, "synthesis ran but recorded no solver queries"
    report = totals(events)
    assert report["orphan_queries"] == 0
    for query in queries:
        assert query["owner"] != "(no span)", query
        assert query["result"] in ("sat", "unsat", "unknown")
        assert query["wall"] >= 0
        assert query["clauses"] > 0
        assert query["backend"] == "inprocess"


def test_iteration_count_reproduced_exactly(traced_run):
    _, events, _, result = traced_run
    expected = sum(s.iterations for s in result.per_instruction)
    assert totals(events)["iterations"] == expected


def test_encode_counter_deltas_reproduced_exactly(traced_run):
    _, events, _, result = traced_run
    assert totals(events)["encode_delta"] == result.stats["counters"]


def test_solver_internals_reconcile_with_counters_exactly(traced_run):
    # The facade charges each check's internals delta to the process-wide
    # sat_* counters AND mirrors it on the solver.check event, so the sum
    # over events must equal the counter delta between the run's bracketing
    # metrics.snapshot events — field by field, exactly.
    _, events, _, _ = traced_run
    report = totals(events)
    internals = report["solver_internals"]
    assert internals["propagations"] > 0
    assert internals["learned"] > 0
    for key, value in internals.items():
        assert value == report["encode_delta"].get(f"sat_{key}", 0), key


def test_counterexample_vcds_exist_on_disk(traced_run):
    _, events, _, _ = traced_run
    vcds = totals(events)["counterexample_vcds"]
    # alu_machine needs at least one CEGIS refinement, so at least one
    # failed verify must have dumped a waveform.
    assert vcds
    for path in vcds:
        assert os.path.exists(path), path
        with open(path) as handle:
            text = handle.read()
        assert "$enddefinitions" in text
        assert "#0" in text


def test_render_report_lists_vcds_and_flame_tree(traced_run):
    path, events, _, _ = traced_run
    text = render_report(path, top=5)
    assert "synthesis.run" in text
    assert "cegis.iteration" in text
    assert "top 5 solver queries by wall time:" in text
    assert "solver internals (summed over solver.check events):" in text
    assert "== counters" in text
    assert "!= counters" not in text
    for vcd in totals(events)["counterexample_vcds"]:
        assert vcd in text
