"""Record the answers of each workload's problem pool in workloads.json.

    python3 bench/record.py [workload ...]

Runs every pool problem once, untransformed, through the same op and
oracles as ``run.py`` and stores the pool's digest and answers.  A rank is
recorded only after it is shown minimal by from-scratch membership tests
(``L^i p`` not in ``<p, ..., L^{i-1} p>`` for every i below it).  Re-record
only when a generator or its parameters change, never to make a run pass.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import statistics
import sys

import run
import workloads


def _rank_is_minimal(path: str, n: int) -> bool:
    from odecert.ideals import member_with_witness
    from odecert.odecore import lie_derivative
    from odecert.problemfile import parse_problem
    with open(path) as fh:
        pf = parse_problem(fh.read())
    chain = [pf.polynomial]
    for _ in range(n - 1):
        chain.append(lie_derivative(chain[-1], pf.ode))
    return all(member_with_witness(chain[i], chain[:i]) is None for i in range(1, n))


def record(name: str, cfg: dict) -> None:
    entry = cfg["workloads"][name]
    rec = run.Run(name, 0, run.WORK / f"record-{name}")
    wl, identity = rec.wl, rec.wl.identity()
    texts = []
    for p in rec.problems:
        p.transform = identity
        texts.append(wl.text(p.spec, identity))
        with open(p.path, "w") as fh:
            fh.write(texts[-1])
    answers, times, errors = [], [], []
    signal.signal(signal.SIGALRM, run._alarm)
    for p in rec.problems:
        op = rec.op(p)
        if not op.error and name == "rank-chains" and op.answer != "resource" and \
                not _rank_is_minimal(p.path, op.answer):
            op.error = f"rank {op.answer} is not minimal"
        if op.error:
            errors.append(f"{name} problem {p.index}: {op.error}\n{texts[p.index]}")
        answers.append(op.answer)
        times.append(op.latency * 1000)
    shutil.rmtree(rec.work, ignore_errors=True)
    counts: dict = {}
    for a in answers:
        counts[str(a)] = counts.get(str(a), 0) + 1
    q = statistics.quantiles(times, n=10)
    slow = sorted(range(len(times)), key=times.__getitem__)[-5:]
    print(f"{name}: {len(answers)} problems, {sum(times) / 1000:.1f} s, "
          f"p50 {statistics.median(times):.1f} ms, p90 {q[8]:.1f} ms, "
          f"slowest {[(i, round(times[i])) for i in slow]} ms; answers {counts}")
    if errors:
        raise SystemExit("\n".join(errors))
    entry["pool_digest"] = workloads.digest(texts)
    entry["answers"] = answers


def main(argv: list[str]) -> int:
    cfg = run.load_config()
    for name in argv or list(cfg["workloads"]):
        record(name, cfg)
    text = json.dumps(cfg, indent=2)
    # one line per list of scalars
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(run.BENCH / "workloads.json", "w") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
