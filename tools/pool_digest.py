"""Output digests of odecert over the benchmark's three problem pools.

    python3 tools/pool_digest.py [--check tools/pool_digests.txt] [--pool NAME ...]
                                 [--dump DIR]

For each pool of ``bench/workloads.py`` (read, never modified) this writes
every problem three times, under the identity transform and under two
seeded transforms (renamed variables, flipped signs, another sampling
seed), runs the pool's commands on each file with ``--json`` and prints
one sha256 per pool over every exit code and stdout, in order:

    rank-chains   rank; check-alg + cert-check; radical; emit-smt
    hp-loops      hp-reduce + cert-check
    sai-sampling  check-inv + cert-check

``cert-check`` reads the certificate the command before it reported.  Two
checkouts whose digests agree print byte-identical output on every pool
problem.  odecert is imported from ``src/`` of the checkout holding this
file, in this process.  The exit status is 1 when any run exits 5 or
writes a traceback, and 0 otherwise.

``--check FILE`` compares each digest with the one pinned in FILE, which
holds lines in the printed ``pool digest`` form; every pool whose digest
differs, or that FILE lacks, is named on stderr and the exit status is 1.
A change that means to change output re-pins FILE and says why.

Each pool's wall seconds and its slowest run (command, problem file,
seconds) go to stderr as the pool finishes; stdout holds only the digests.

``--pool NAME`` (repeatable) runs only the named pools, in the order
above; with ``--check`` only their digests are compared, and a pinned
pool that was not run is not reported.

``--dump DIR`` also writes every run's stdout to DIR, one file per pool,
transform, problem and command (``sai-sampling-1-0042-check-inv.out`` is
``check-inv`` on problem 42 under the first seeded transform), so that
the dumps of two checkouts can be compared problem by problem with
``diff -r``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from odecert import cli  # noqa: E402

# per pool: the runs on each problem file; a run's commands after the
# first are ``cert-check`` of the certificate the run's command reported
COMMANDS = {
    "rank-chains": [["rank"], ["check-alg", "cert-check"], ["radical"], ["emit-smt"]],
    "hp-loops": [["hp-reduce", "cert-check"]],
    "sai-sampling": [["check-inv", "cert-check"]],
}
RENAMINGS = 2


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failure, not a verdict
            print(f"Traceback: {type(exc).__name__}: {exc}", file=err)
            code = None
    return code, out.getvalue(), err.getvalue()


def pool_digest(name: str, params: dict, pool_seed: int, work: Path, failures: list[str],
                dump: Optional[Path] = None) -> tuple[str, tuple[float, str, str]]:
    """The pool's digest, and its slowest run as (seconds, file, command)."""
    wl = workloads.WORKLOADS[name](params)
    specs = wl.pool(pool_seed)
    transforms = [[wl.identity()] * len(specs)]
    for k in range(1, RENAMINGS + 1):
        rng = random.Random(f"digest:{name}:{k}")
        transforms.append([wl.transform(rng) for _ in specs])
    sha = hashlib.sha256()
    slowest = (0.0, "", "")
    for k, pass_transforms in enumerate(transforms):
        for i, (spec, t) in enumerate(zip(specs, pass_transforms)):
            path = work / f"{name}-{k}-{i:04d}.prob"
            path.write_text(wl.text(spec, t))
            for run in COMMANDS[name]:
                target = str(path)
                for command in run:
                    start = time.perf_counter()
                    code, out, err = _call([command, target, "--json"])
                    slowest = max(slowest, (time.perf_counter() - start, path.name, command))
                    sha.update(f"{code}\n{out}\0".encode())
                    if dump is not None:
                        (dump / f"{path.stem}-{command}.out").write_text(out)
                    if code == 5 or code is None or "Traceback" in err:
                        failures.append(f"{name} {path.name} {command}: exit {code}\n{err}")
                    report = json.loads(out) if out.strip() else {}
                    cert = report.get("data", {}).get("certificate")
                    if cert is None:
                        break
                    target = str(path.with_suffix(".cert.json"))
                    Path(target).write_text(json.dumps(cert))
    return sha.hexdigest(), slowest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the digests pinned in FILE")
    parser.add_argument("--pool", action="append", choices=list(COMMANDS),
                        help="run only this pool (repeatable; default: all)")
    parser.add_argument("--dump", metavar="DIR", type=Path,
                        help="write every run's stdout to a file in DIR")
    args = parser.parse_args()
    pinned = None
    if args.check is not None:
        pinned = dict(line.split() for line in Path(args.check).read_text().splitlines()
                      if line.strip())
    cfg = json.loads((ROOT / "bench" / "workloads.json").read_text())
    failures: list[str] = []
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in COMMANDS:
            if args.pool and name not in args.pool:
                continue
            entry = cfg["workloads"][name]
            start = time.perf_counter()
            digest, (worst, where, command) = pool_digest(
                name, entry["params"], entry["pool_seed"], Path(tmp), failures, args.dump)
            print(f"{name} {digest}", flush=True)
            print(f"{name}: {time.perf_counter() - start:.1f} s; slowest run "
                  f"{command} {where} {worst:.2f} s", file=sys.stderr, flush=True)
            if pinned is not None and pinned.get(name) != digest:
                failures.append(f"{name}: digest differs from the one pinned in "
                                f"{args.check} ({pinned.get(name, 'none pinned')})")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
