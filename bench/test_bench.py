"""Smoke test of the benchmark: a few ops of each workload in both modes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import signal
import shutil
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
OPS = 4


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def _run(name: str, seed: int, tmp: str) -> run.Run:
    r = run.Run(name, seed, run.WORK / f"test-{tmp}-{name}-{seed}")
    r.verify_pool()
    r.problems = r.problems[:OPS]
    return r


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_and_no_failure(name, trace, alarm):
    r = _run(name, 5, f"smoke{int(trace)}")
    try:
        rows, ops = run.measure(r, 0, trace)
    finally:
        shutil.rmtree(r.work, ignore_errors=True)
    assert [op.error for _, op in ops if op.error] == []
    assert len(r.seen) == OPS  # the oracles passed every problem's first run
    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert sorted(rows) == sorted(m["name"] for m in expected)
    for m in expected:
        assert rows[m["name"]][1] == m["unit"]
    if trace:
        layers = sum(v for k, (v, _) in rows.items() if k.endswith(".ms") and k != "trace.op.ms")
        assert layers == pytest.approx(rows["trace.op.ms"][0], rel=1e-9)
    else:
        assert rows["checked_frac"][0] == 1.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_problem_files_follow_the_seed(name):
    texts = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        r = run.Run(name, seed, run.WORK / f"test-seed{tag}-{name}")
        texts[tag] = [Path(p.path).read_bytes() for p in r.problems]
        shutil.rmtree(r.work, ignore_errors=True)
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]


def test_wrong_rank_is_rejected(alarm):
    r = _run("rank-chains", 5, "wrong")
    try:
        prob = next(p for p in r.problems if p.answer != "resource")
        prob.answer += 1
        assert "recorded" in r.op(prob).error
    finally:
        shutil.rmtree(r.work, ignore_errors=True)


def test_known_unbounded_input_is_stopped_by_the_op_limit(alarm):
    """The recorded unbounded input either reaches the per-op limit, as it
    did when it was recorded, or ends with a documented exit code."""
    limit = 2.0
    entry = json.loads((BENCH / "workloads.json").read_text())["known_unbounded"][0]
    work = run.WORK / "test-unbounded"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "unbounded.prob"
    path.write_text(entry["problem"])
    cli = run.import_odecert()
    started = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        code, _ = run.call_cli(cli, ["hp-reduce", str(path), "--json"])
    except run.OpLimit:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work, ignore_errors=True)
    assert perf_counter() - started < limit + 1.0
    assert code is None or code in (0, 1, 2, 3, 4)


def test_a_missing_trace_target_is_an_error(monkeypatch):
    """A layer that moved must fail the traced run, not read as zero."""
    run.import_odecert()
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + [("odecert.ideals", "no_such_function", "parser")])
    tracer = tracing.Tracer()
    try:
        with pytest.raises(AttributeError):
            tracer.install()
    finally:
        tracer.uninstall()


def test_times_are_scaled_by_the_probes_around_them():
    """A time is divided by the median of the probes on each side of it,
    in units of the reference time."""
    r = object.__new__(run.Run)
    r.probes = [k * run.REFERENCE_S for k in (1, 2, 4, 9, 3, 5, 6, 7)]
    # a time measured before probe 4: the window is probes 1 to 6
    assert r.factor(4) == pytest.approx(1 / 4.5)
    assert r.factor(0) == pytest.approx(1 / 2)  # probes 0 to 2


def test_quantile_is_harrell_davis():
    assert run.quantile([7.0] * 50, 0.9) == pytest.approx(7.0)
    # symmetric values: the median estimate is the middle
    assert run.quantile(list(range(100)), 0.5) == pytest.approx(49.5)
    # Harrell-Davis p90 of 0..99 weights order statistics around 89.5
    assert run.quantile(list(range(100)), 0.9) == pytest.approx(89.5, abs=0.05)
