"""Tests of the benchmark's own tracer and output checker.

    python3 -m pytest -q perfbench

These sit outside the package's test paths, so the tier-1 suite skips them.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refcheck  # noqa: E402
import run  # noqa: E402
from tracer import Target, Tracer, patched  # noqa: E402


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    tracer.wrap(body, "outer")()
    totals = tracer.totals()
    assert totals["outer"].calls == 1
    assert totals["outer"].busy_s == 10.0
    assert totals["outer"].self_s == 10.0 - 2.0 - 2.5
    assert totals["inner"].calls == 2
    assert totals["inner"].busy_s == 4.5
    assert totals["inner"].self_s == 4.5
    assert list(tracer.parent) == [-1, 0, 0]


def test_recursive_span_counts_busy_time_once():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def f(depth):
        return wrapped(depth - 1) if depth else "done"

    wrapped = tracer.wrap(f, "f")
    assert wrapped(1) == "done"
    totals = tracer.totals()
    assert totals["f"].calls == 2
    assert totals["f"].busy_s == 5.0
    assert totals["f"].self_s == 5.0


def test_wrapper_passes_values_and_exceptions_through():
    tracer = Tracer()
    payload = object()
    assert tracer.wrap(lambda a, *, b: (a, b), "echo")(payload, b=2) == (payload, 2)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer.totals()["boom"].calls == 1
    assert tracer._open == [-1]


SWEEP_CSV = (
    "axis,metric_name,mean,half_width,n\n"
    "2.0000000000000000e+00,avg_sinr,5.0000000000000003e-02,1.0000000000000001e-01,200\n"
    "2.0000000000000000e+00,p_h,3.0000000000000000e+00,0.0000000000000000e+00,200\n"
)


def _summary(tmp_path: Path, text: str) -> dict:
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    (out / "sweep_num_ues_tpceh.csv").write_text(text, encoding="utf-8")
    return refcheck.summarize(out, 0)


def test_checker_rejects_a_change_in_the_last_digit(tmp_path):
    old, new = "1.0000000000000001e-01", "1.0000000000000002e-01"
    assert float(old) != float(new)
    expected = _summary(tmp_path, SWEEP_CSV)
    changed = _summary(tmp_path, SWEEP_CSV.replace(old, new))
    problems = refcheck.diff(expected, changed)
    assert len(problems) == 1
    assert "2.0|avg_sinr/half_width" in problems[0]


def test_checker_accepts_an_extra_column(tmp_path):
    expected = _summary(tmp_path, SWEEP_CSV)
    lines = SWEEP_CSV.splitlines()
    widened = "\n".join(
        [lines[0] + ",n_nonconverged"] + [line + ",0" for line in lines[1:]]
    ) + "\n"
    assert refcheck.diff(expected, _summary(tmp_path, widened)) == []


def test_dropped_fraction_reads_the_n_column(tmp_path):
    summary = _summary(tmp_path, SWEEP_CSV.replace(",200\n", ",190\n", 1).replace(",200\n", ",190\n"))
    assert refcheck.dropped_fraction(summary, 200) == 10 / 200


def test_absent_target_is_reported_not_raised():
    tracer = Tracer()
    targets = [
        Target("x", "json", "no_such_function"),
        Target("y", "no_such_module_for_perfbench", "f"),
        Target("z", "json", "dumps"),
    ]
    with patched(tracer, targets) as absent:
        import json

        assert json.dumps([1]) == "[1]"
    assert [t.span for t in absent] == ["x", "y"]
    assert tracer.totals()["z"].calls == 1


def test_traced_cli_runs_restore_every_attribute(tmp_path, monkeypatch):
    cli = run.import_cli()
    monkeypatch.setattr(run, "OUT", tmp_path)
    originals = {}
    for t in run.TARGETS:
        owner = importlib.import_module(t.module)
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals[(t.module, t.attr)] = (owner, attr, getattr(owner, attr))

    tracer = Tracer()
    sweep = run.Workload(("sweep", "--axis", "num_ues", "--values", "2", "--snapshots", "3"), 3)
    mobility = run.Workload(("mobility", "--duration", "0.01"))
    with patched(tracer, run.TARGETS) as absent:
        results = [run.run_workload(cli, w, 1, None) for w in (sweep, mobility)]
    assert absent == []
    assert all(r.summary["exit_code"] == 0 for r in results)
    for owner, attr, original in originals.values():
        assert getattr(owner, attr) is original

    values = run.layer_values(tracer, results[-1])
    assert values["engine.solve.calls"] == 3
    assert values["channel.with_gains.calls"] == 11
    assert values["engine.mobility.steps"] == 10
    assert values["cli.rows_written"] == 10
