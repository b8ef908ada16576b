"""odecert benchmark: time to a checked verdict.

    python3 bench/run.py --workload rank-chains --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, one row each
    python3 bench/run.py --trace 1            # per-layer tables and overhead

A run is a closed loop of one client in one thread: the next problem starts
only after the previous one is checked.  An op is one problem file through
``odecert.cli.main([command, file, "--json"])`` in this process, then
``cert-check`` on the certificate it emitted, if any; its latency covers
the two calls, not the certificate write between them nor the oracles.  Each
op runs under the wall-clock limit ``op_limit_s`` of ``workloads.json``;
an op that reaches it counts as undecided and failed.

A run makes whole passes over its workload's pool of problems, each pass
in a seeded order, until about ``--seconds`` of wall clock have passed.

Reported times are scaled to a fixed host speed.  Other tenants of a
shared host slow the CPU by up to 2x, for tens of milliseconds to minutes
at a time, so raw wall-clock medians of runs made minutes apart differ by
more than a regression worth catching.  A reference loop (``reference``:
pure-Python dict, tuple and big-integer work, no odecert code) is timed
after every op and every set-up.  A time ``t`` is reported as
``t * REFERENCE_S / m``, where ``m`` is the median of the ``PROBE_WINDOW``
probes before it and as many after it: the time it would take on a host
where the reference loop takes ``REFERENCE_S``.  The window follows the
host's slow spells and smooths the probes' own noise.  A change to
odecert moves the scaled times as much as the raw ones; a slower host
moves both the op and the probes around it.  Each problem's latency is the
median of its scaled latencies over the passes; ``latency_p50_ms`` and
``latency_p90_ms`` are Harrell-Davis estimates over the problems
(``quantile``).  The raw wall-clock figures are printed beside the result.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` every op runs once untraced and
once right after with spans (``tracing.py``); the JSON holds the
per-layer metrics of the traced ops and the tracing overhead.  The program
must come from ``src/`` of this checkout; without it the benchmark exits
with an error and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# set-ups per run, spread over its wall time
SETUP_REPEATS = 15
# the reference loop's time on the host speed that reported times are
# scaled to (about its median on a 2-vCPU x86-64 VM with CPython 3.11)
REFERENCE_S = 0.003
# probes on each side of a timed interval whose median scales it
PROBE_WINDOW = 3

END_TO_END = [("setup_s", "s"), ("throughput_ops_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("decided_frac", "ratio"), ("checked_frac", "ratio"),
              ("peak_rss_mb", "MB")]


class OpLimit(BaseException):
    """Raised by the per-op alarm; a BaseException so no handler in the
    program under test swallows it."""


def _alarm(signum, frame):
    raise OpLimit()


def reference() -> int:
    """Fixed pure-Python work that tracks the host's speed for odecert's
    kind of code: dicts keyed by tuples, small and big integers."""
    table: dict = {}
    acc = 0
    for i in range(9000):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i * 12345678901234567
        acc += (i * i) % 97
    x, m = 3 ** 200, 5 ** 300
    for i in range(360):
        x = (x * 7 + i) % m
    return acc + x


def probe() -> float:
    """Seconds that ``reference`` takes now, with no garbage collection."""
    gc.disable()
    try:
        started = perf_counter()
        reference()
        return perf_counter() - started
    finally:
        gc.enable()


def load_config() -> dict:
    return json.loads((BENCH / "workloads.json").read_text())


def import_odecert():
    """Import odecert afresh from this checkout's src/; fails without it."""
    for name in [n for n in sys.modules if n == "odecert" or n.startswith("odecert.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("odecert.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"odecert imported from {cli.__file__}, not from {SRC}")
    return cli


class Problem:
    __slots__ = ("index", "spec", "transform", "answer", "path")

    def __init__(self, index, spec, transform, path):
        self.index, self.spec, self.transform, self.path = index, spec, transform, path
        self.answer = None


class Op:
    __slots__ = ("latency", "probe", "decided", "error", "cert_bytes", "answer")

    def __init__(self):
        self.latency = 0.0  # wall clock, seconds
        self.probe = 0  # index of the probe taken right after the op
        self.decided = False
        self.error = None
        self.cert_bytes = 0
        self.answer = None


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Run:
    """One workload at one seed: its problem files, odecert and the ops."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.cfg = load_config()
        self.entry = self.cfg["workloads"][name]
        self.limit = self.cfg["op_limit_s"]
        self.wl = workloads.WORKLOADS[name](self.entry["params"])
        self.setups: list[tuple[float, int]] = []  # (seconds, probe after it)
        self.probes: list[float] = []
        self.seen: dict = {}
        probe()  # the first call also warms the interpreter's caches
        self.mark()
        self.problems = self.setup()

    def mark(self) -> int:
        """Probe the host after a timed interval; returns the probe's index."""
        self.probes.append(probe())
        return len(self.probes) - 1

    def factor(self, index: int) -> float:
        """Scale of a time measured just before probe ``index``."""
        window = self.probes[max(0, index - PROBE_WINDOW):index + PROBE_WINDOW]
        return REFERENCE_S / statistics.median(window)

    def setup_s(self) -> float:
        """Median set-up time at the reference speed."""
        return statistics.median(t * self.factor(i) for t, i in self.setups)

    def setup(self) -> list[Problem]:
        """Import odecert, generate the run's problem files and write them;
        the time it takes is one sample of ``setup_s``."""
        gc.collect()  # garbage of earlier ops is not set-up work
        started = perf_counter()
        self.cli = import_odecert()
        specs = self.wl.pool(self.entry["pool_seed"])
        rng = random.Random(f"transform:{self.name}:{self.seed}")
        self.work.mkdir(parents=True, exist_ok=True)
        problems = []
        for i, spec in enumerate(specs):
            t = self.wl.transform(rng)
            path = self.work / f"p{i:04d}.prob"
            path.write_text(self.wl.text(spec, t))
            problems.append(Problem(i, spec, t, str(path)))
        elapsed = perf_counter() - started
        self.setups.append((elapsed, self.mark()))
        return problems

    def verify_pool(self) -> None:
        """The pool must be the one whose answers were recorded."""
        texts = [self.wl.text(p.spec, self.wl.identity()) for p in self.problems]
        answers = self.entry["answers"]
        if workloads.digest(texts) != self.entry["pool_digest"] or \
                len(answers) != len(self.problems):
            raise SystemExit(f"{self.name}: the generated pool differs from the "
                             "recorded one; run bench/record.py")
        for p, answer in zip(self.problems, answers):
            p.answer = answer

    def op(self, prob: Problem) -> Op:
        """One timed op.  The oracles check a problem's first run; later
        runs must print byte-identical output, as odecert promises for a
        fixed input."""
        op, wl, cli = Op(), self.wl, self.cli
        code, out, cout, report, cert_report = None, "", "", None, None
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        started = perf_counter()
        try:
            code, out = call_cli(cli, [wl.command, prob.path, "--json"])
            op.latency = perf_counter() - started
            report = json.loads(out) if out.strip() else None
            cert = report["data"].get("certificate") if report and wl.certificate else None
            if cert is not None:
                cert_path = prob.path[:-5] + ".cert.json"
                text = json.dumps(cert)
                with open(cert_path, "w") as fh:
                    fh.write(text)
                t0 = perf_counter()
                _, cout = call_cli(cli, ["cert-check", cert_path, "--json"])
                op.latency += perf_counter() - t0
                op.cert_bytes = len(text)
                cert_report = json.loads(cout) if cout.strip() else None
        except OpLimit:
            op.latency = perf_counter() - started
            op.error = f"per-op limit of {self.limit} s reached"
        except Exception:
            op.latency = perf_counter() - started
            op.error = "traceback: " + traceback.format_exc(limit=-3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        op.probe = self.mark()
        if op.error:
            return op
        if code not in (0, 1, 2, 3, 4):
            op.error = f"exit code {code} outside 0-4"
            return op
        first = self.seen.get(prob.index)
        if first is not None:
            if first[0] != (code, out, cout):
                op.error = "output differs from the problem's first run"
            else:
                op.decided, op.answer = first[1:]
            return op
        rng = random.Random(f"oracle:{self.name}:{self.seed}:{prob.index}")
        try:
            check = wl.check(prob.spec, prob.transform, prob.answer, code, report,
                             cert_report, rng)
        except Exception:
            op.error = "oracle could not read the output: " + traceback.format_exc(limit=-2)
            return op
        op.decided, op.error = check.decided, check.error
        op.answer = wl.answer(code, report)
        if op.error is None:
            self.seen[prob.index] = ((code, out, cout), op.decided, op.answer)
        return op

    def passes(self, seconds: float, visit) -> None:
        """Whole passes over the pool, each in its own seeded order, calling
        ``visit(problem)``.  Another pass starts while it is expected to end
        nearer to ``seconds`` of wall clock than stopping now."""
        started, k = perf_counter(), 0
        while k == 0 or (perf_counter() - started) * (1 + 1 / k / 2) < seconds:
            order = list(self.problems)
            random.Random(f"order:{self.name}:{self.seed}:{k}").shuffle(order)
            for prob in order:
                visit(prob)
            k += 1


def latencies(run: Run, ops, scaled: bool = True) -> dict[int, float]:
    """Each problem's median latency over the passes, in seconds at the
    reference speed or, with ``scaled`` false, of wall clock."""
    per: dict[int, list[float]] = {}
    for prob, op in ops:
        t = op.latency * run.factor(op.probe) if scaled else op.latency
        per.setdefault(prob.index, []).append(t)
    return {i: statistics.median(v) for i, v in per.items()}


def quantile(values, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density (integrated
    by Simpson's rule).  A single order statistic jumps when problems near
    the quantile swap places between runs, as sampling seeds and host noise
    make them do; this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if not 0 < t < 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    h = 1 / (n * steps)
    total = 0.0
    for i, x in enumerate(xs):
        w = sum((1 if k in (0, steps) else 4 if k % 2 else 2) * density(i / n + k * h)
                for k in range(steps + 1))
        total += x * w * h / 3
    return total


def end_to_end(run: Run, ops) -> dict:
    per = latencies(run, ops)
    lat = [v * 1000 for v in per.values()]
    failed_problems = {prob.index for prob, op in ops if op.error}
    failed = sum(1 for _, op in ops if op.error)
    n = len(ops)
    return {"setup_s": run.setup_s(),
            "throughput_ops_s": (len(per) - len(failed_problems)) / sum(per.values()),
            "latency_p50_ms": quantile(lat, 0.5),
            "latency_p90_ms": quantile(lat, 0.9),
            "decided_frac": sum(1 for _, op in ops if op.decided and not op.error) / n,
            "checked_frac": (n - failed) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(run: Run, tracer: Tracer, traced, untraced) -> dict:
    """Per-op self time and calls of every span name, the counters, and the
    tracing overhead: traced over untraced latencies.  Span times are
    scaled to the reference speed by their op's factor."""
    n = len(traced)
    self_s, calls, top = tracer.self_times([run.factor(op.probe) for _, op in traced])
    c = tracer.counts

    def per_call(count: str, span: str) -> float:
        return c[count] / calls[span] if calls.get(span) else 0.0

    def ratio(a: str, b: str) -> float:
        return c[a] / c[b] if c[b] else 0.0

    out: dict = {}
    for key in tracer.names:
        out[f"{key}.calls"] = (calls.get(key, 0) / n, "1/op")
        out[f"{key}.ms"] = (self_s.get(key, 0.0) * 1000 / n, "ms/op")
    out["ideals.rank.chain_len"] = (per_call("ideals.rank.chain_len", "ideals.rank"), "steps")
    out["ideals.member_with_witness.members"] = (
        c["ideals.member_with_witness.members"] / n, "1/op")
    out["ideals.witness_terms"] = (c["ideals.witness_terms"] / n, "terms/op")
    out["ideals.coef_bits_max"] = (tracer.coef_bits_max, "bits")
    out["sampling.points"] = (c["sampling.points"] / n, "1/op")
    out["sampling.projections"] = (c["sampling.projections"] / n, "1/op")
    out["sampling.projections_ok"] = (
        ratio("sampling.projections_found", "sampling.projections"), "ratio")
    for tier in ("identity", "ideal", "refuted", "unknown"):
        out[f"invariant.tier.{tier}"] = (c[f"invariant.tier.{tier}"] / n, "1/op")
    out["invariant.check_certificate.accepted"] = (
        c["invariant.check_certificate.accepted"] / n, "1/op")
    out["hpreduce.star_chain_len"] = (
        ratio("hpreduce.star_chain_len", "hpreduce.star_nodes"), "steps")
    out["hpreduce.q_terms"] = (ratio("hpreduce.q_terms", "hpreduce.top_calls"), "terms")
    certs = [op.cert_bytes for _, op in traced if op.cert_bytes]
    out["certio.cert_bytes"] = (statistics.mean(certs) if certs else 0.0, "bytes")
    out["trace.op.ms"] = (top * 1000 / n, "ms/op")
    out["trace.overhead"] = (sum(latencies(run, traced).values()) /
                             sum(latencies(run, untraced).values()), "x")
    return out


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run the passes; returns (metric name -> (value, unit), all ops)."""
    ops: list = []

    def untraced(prob):
        ops.append((prob, run.op(prob)))

    if not trace:
        # set-up runs again at even steps of wall time, so that its median
        # samples the whole run rather than one stretch of it
        step, last = seconds / SETUP_REPEATS, perf_counter()

        def untraced_and_setup(prob):
            nonlocal last
            untraced(prob)
            if perf_counter() - last >= step and len(run.setups) < SETUP_REPEATS:
                run.setup()
                last = perf_counter()

        run.passes(seconds, untraced_and_setup)
        while len(run.setups) < SETUP_REPEATS:
            run.setup()
        units = dict(END_TO_END)
        metrics = end_to_end(run, ops)
        return {k: (v, units[k]) for k, v in metrics.items()}, ops
    tracer, traced = Tracer(), []

    def both(prob):
        untraced(prob)
        tracer.op_id = len(traced)
        tracer.install()
        try:
            traced.append((prob, run.op(prob)))
        finally:
            tracer.uninstall()

    run.passes(seconds / 2, both)
    tracer.dump(WORK / "traces" / f"{run.name}-{run.seed}")
    return per_layer(run, tracer, traced, ops), ops + traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        run = Run(name, seed, work)
        run.verify_pool()
        rows, ops = measure(run, seconds, trace)
    finally:
        signal.signal(signal.SIGALRM, old)
        shutil.rmtree(work, ignore_errors=True)
    failed = [(p, op) for p, op in ops if op.error]
    for p, op in failed[:5]:
        print(f"FAILED {name} problem {p.index}: {op.error}", file=sys.stderr)
    wrong = [op for _, op in failed if not op.error.startswith("per-op limit")]
    wall = [v * 1000 for v in latencies(run, ops, scaled=False).values()]
    raw = (f"wall clock, unscaled: latency p50 {quantile(wall, 0.5):.4g} ms, "
           f"p90 {quantile(wall, 0.9):.4g} ms, "
           f"setup {statistics.median(t for t, _ in run.setups):.4g} s; reference loop median "
           f"{statistics.median(run.probes) * 1000:.4g} ms (scaled to "
           f"{REFERENCE_S * 1000:g} ms)")
    return {"rows": rows, "attempted": len(ops), "failed": len(failed),
            "problems": len(run.problems), "correct": not wrong, "raw": raw}


def print_rows(name: str, result: dict) -> None:
    print(f"# {name}: {result['attempted']} ops, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4f}); latencies are "
          f"the median per problem over {result['problems']} problems")
    print(f"# {name}: {result['raw']}")
    for key, (value, unit) in result["rows"].items():
        print(f"{name:14s} {key:44s} {value:14.6g} {unit}")


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    results = {}
    for name in load_config()["workloads"]:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: benchmark failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    if not args.trace:
        cols = END_TO_END + [("failed_frac", "ratio")]
        print(f"{'workload':14s} " + " ".join(f"{k:>16s}" for k, _ in cols))
        print(f"{'(unit)':14s} " + " ".join(f"{u:>16s}" for _, u in cols))
        for name in names:
            r = results[name]
            values = [r["metrics"][k]["value"] for k, _ in END_TO_END]
            values.append(r["failed"] / r["attempted"])
            print(f"{name:14s} " + " ".join(f"{v:16.6g}" for v in values))
    else:
        keys = list(results[names[0]]["metrics"])
        print(f"{'metric':44s} {'unit':8s} " + " ".join(f"{n:>14s}" for n in names))
        for k in keys:
            unit = results[names[0]]["metrics"][k]["unit"]
            print(f"{k:44s} {unit:8s} " + " ".join(
                f"{results[n]['metrics'][k]['value']:14.6g}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_rows(args.workload, result)
    if not result["correct"]:
        print(f"{args.workload}: an oracle rejected an output (see above)", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in result["rows"].items()}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
