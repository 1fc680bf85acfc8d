#!/usr/bin/env python3
"""asymlab benchmark: three seeded workloads against the public API.

Run from the repository root:

    python3 benchmark/run.py --workload construct --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``construct``, ``classic`` and ``domain``.
Each is one cycle of operations generated from ``--seed``.  The loop is
closed, with one caller and no threads, in this single process; the CLI's
``--threads`` is left at its default.

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
several fresh processes that import asymlab from ``src/``, build the inputs
and run one warm-up op), then the timed loop, which repeats whole cycles
until ``--seconds`` have passed.  ``--trace 1`` runs exactly one cycle untraced and one cycle
with every public function of the package wrapped in a span (tracer.py),
and reports the per-layer metrics, including the tracing overhead.

After the loop, and outside every timing, each distinct output is checked
against an independent oracle (oracles.py).  An attempt fails when it
raised, the CLI exited nonzero, its output missed the oracle's tolerance
or differed from an earlier attempt of the same op.  ``correct`` is false
when a failure is not one of the reproduced defects the workloads record
(``Op.known_failure``).

The last line of standard output is the result object; the line before it
holds the run record: failure fraction and detail, tail percentile and
sample count, determinism digests and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # the main process plus four fresh child processes


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no asymlab sources, bad spec)."""


def import_asymlab():
    """Import the package from this checkout's src/, never an installed one."""
    if not (SRC / "asymlab" / "__init__.py").is_file():
        raise BenchError("no asymlab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import asymlab
    import asymlab.cli  # noqa: F401  (the CLI ops call asymlab.cli.main)

    if Path(asymlab.__file__).resolve().parent != (SRC / "asymlab").resolve():
        raise BenchError("asymlab was imported from %s, not %s" % (asymlab.__file__, SRC))
    return asymlab


def setup(name: str, seed: int, tmp: Path | None):
    """Everything a fresh process does before its first timed op."""
    A = import_asymlab()
    import numpy as np

    import workloads

    wl = workloads.BUILDERS[name](A, np.random.default_rng(seed), tmp)
    wl.warmup.call({})
    return A, wl


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise BenchError("set-up child failed:\n" + proc.stderr)
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# the loop

class Loop:
    """Closed loop over the cycle: one op at a time, the next after the last
    returns.  Keeps the first output of each op and every attempt."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.firsts: dict = {}
        self.first_bytes: dict = {}
        self.attempts: list = []  # (op index, seconds, error or None)
        self.elapsed = 0.0

    def run(self, seconds: float) -> None:
        """Repeat whole cycles until `seconds` have passed; at least one, so
        every run measures the same input mix and checks every op."""
        from workloads import CliRun, canon

        latest: dict = {}
        clock = time.perf_counter
        begin = clock()
        i = 0
        while True:
            for k, op in enumerate(self.ops):
                if self.tracer is not None:
                    self.tracer.op_id = i
                i += 1
                t0 = clock()
                try:
                    out = op.call(latest)
                    err = None
                except Exception as exc:  # a failing op is counted, never fatal
                    out, err = None, "%s: %s" % (type(exc).__name__, str(exc)[:160])
                t1 = clock()
                if err is None:
                    if isinstance(out, CliRun) and out.code != 0:
                        err = "exit %d" % out.code
                    latest[op.label] = out
                    b = canon(out)
                    if op.label not in self.first_bytes:
                        self.firsts[op.label], self.first_bytes[op.label] = out, b
                    elif b != self.first_bytes[op.label]:
                        err = "output differs from the first attempt"
                self.attempts.append((k, t1 - t0, err))
            if clock() - begin >= seconds:
                break
        self.elapsed = clock() - begin


def judge(name: str, wl, loop, A) -> dict:
    """Oracle verdicts per op, then the failures of every attempt."""
    import oracles

    verdicts = {}
    for op in wl.ops:
        if op.label in loop.firsts:
            verdicts[op.label] = oracles.CHECKS[name, op.kind](op, loop.firsts[op.label], loop.firsts, A)
    failed, unexpected, detail = 0, 0, {}
    for k, _, err in loop.attempts:
        op = wl.ops[k]
        v = verdicts.get(op.label)
        if err is None and v is not None and not v.ok:
            err = "oracle: " + v.note
        if err is None:
            continue
        failed += 1
        known = op.known_failure is not None and err.split(":")[0] == op.known_failure.split(":")[0]
        unexpected += not known
        d = detail.setdefault(op.label, {"error": err, "known": op.known_failure if known else None, "attempts": 0})
        d["attempts"] += 1
    digits = [d for v in verdicts.values() for d in v.digits]
    promised = hashlib.sha256()
    outputs = hashlib.sha256()
    for op in wl.ops:
        b = loop.first_bytes.get(op.label, b"<failed>")
        for h in (outputs, promised) if op.promised else (outputs,):
            h.update(op.label.encode() + b"\n" + b + b"\n")
    worst = {}
    for op in wl.ops:
        v = verdicts.get(op.label)
        if v is not None and v.digits and min(v.digits) < worst.get(op.kind, (99.0,))[0]:
            worst[op.kind] = (min(v.digits), op.label, v.note)
    return {
        "failed": failed,
        "unexpected": unexpected,
        "failures": detail,
        "digits_min": min(digits, default=0.0),
        "digits_checked": len(digits),
        "worst_digits_by_kind": worst,
        "ops_checked": len(verdicts),
        "digest_promised": promised.hexdigest() if any(op.promised for op in wl.ops) else None,
        "digest_outputs": outputs.hexdigest(),
    }


# ---------------------------------------------------------------------------
# reporting

def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least 10 samples beyond it:
    (value, percentile, samples)."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def machine() -> dict:
    import mpmath
    import numpy

    git_sha = None  # the checkout need not be a git repository
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except OSError:
        pass
    src = hashlib.sha256()
    for f in sorted((SRC / "asymlab").glob("*.py")):
        src.update(f.name.encode() + b"\n" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("construct", "classic", "domain"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")  # numpy overflow and cancellation warnings go to the tracer or nowhere

    if args.setup_only:
        setup(args.workload, args.seed, None)
        print("%.9f" % (time.perf_counter() - t_start))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = Path(tempfile.mkdtemp(prefix=".benchmark-tmp-", dir=ROOT))
    try:
        A, wl = setup(args.workload, args.seed, tmp)
        setup_samples = [time.perf_counter() - t_start]
        why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "why": why,
                  "cycle_ops": len(wl.ops),
                  "loop": {"type": "closed", "callers": 1, "threads": 0, "cli_threads": "default"}}
        if args.trace:
            import tracer as tracing

            plain = Loop(wl.ops)
            plain.run(0.0)
            tr = tracing.Tracer()
            loop = Loop(wl.ops, tr)
            tr.install()
            try:
                loop.run(0.0)
            finally:
                tr.uninstall()
            metrics = tr.metrics()
            metrics["trace.overhead_frac"] = loop.elapsed / plain.elapsed - 1.0
            record.update(spans=len(tr.start), untraced_cycle_s=plain.elapsed, traced_cycle_s=loop.elapsed,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            declared = spec["per_layer"]
        else:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(child_setup_seconds(args.workload, args.seed))
            loop = Loop(wl.ops)
            loop.run(args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            lat = [s for _, s, _ in loop.attempts]
            tail_s, pct, samples = tail(lat)
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "ops_per_s": len(loop.attempts) / loop.elapsed,
                "op_p50_ms": statistics.median(lat) * 1e3,
                "op_tail_ms": tail_s * 1e3,
                "peak_rss_mb": rss_mb,
            }
            record.update(setup_samples_s=setup_samples, loop_s=loop.elapsed,
                          tail={"percentile": pct, "samples": samples, "beyond": min(10, samples - 1)})
            declared = spec["end_to_end"]
        t_oracle = time.perf_counter()
        verdict = judge(args.workload, wl, loop, A)
        record["oracle_s"] = time.perf_counter() - t_oracle
        attempted = len(loop.attempts)
        if not args.trace:
            metrics["ok_frac"] = 1.0 - verdict["failed"] / attempted
            metrics["oracle_digits_min"] = verdict["digits_min"]
        by_kind = {}
        for k, s, _ in loop.attempts:
            by_kind.setdefault(wl.ops[k].kind, []).append(s)
        record.update(
            attempted=attempted,
            fail_frac=verdict["failed"] / attempted,
            ops_by_kind={kind: {"n": len(v), "median_ms": statistics.median(v) * 1e3} for kind, v in by_kind.items()},
            oracle=verdict,
            machine=machine(),
        )
        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(metrics):
            raise BenchError("metrics %s do not match BENCHMARK.json %s" % (sorted(metrics), sorted(units)))
        print(json.dumps({"record": record}, default=str))
        print(json.dumps({
            "correct": verdict["unexpected"] == 0,
            "attempted": attempted,
            "failed": verdict["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        sys.exit(2)
