"""End-to-end and per-layer benchmark of the zp command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke      # one checked operation per workload
    python3 perfbench/run.py --record     # re-record expected.json

One operation is one in-process call to ``topzeta.cli.main(argv)`` with
stdout and stderr captured, run closed-loop by a single client.  A pass runs
every operation the seed drew; passes repeat for ``--seconds``.  Times are reported in reference-scaled seconds,
which take the shared host's changing speed out of them (refclock.py).
``--trace 0`` prints the end-to-end metrics,
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics.  The last stdout line is the JSON result; the line before it
records the environment, the pass times and the failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
ROOT = Path.cwd()
SRC = ROOT / "src"

#: Seconds of operations between two reference measurements.
BLOCK_S = 0.05
#: An operation repeats within a pass until it has taken this long ...
REPEAT_S = 0.1
#: ... or has run this many times.
MAX_REPS = 3
#: An operation running longer than this counts as failed (timed out).
OP_TIMEOUT_S = 60
#: op_p90_ms is reported only for passes of at least this many distinct
#: operations, so that at least ten lie beyond it.
P90_MIN_OPS = 100
#: Fresh interpreters timed for setup_s after each pass, and before the
#: first after one untimed warm-up.
SETUP_PER_GAP = 3
SETUP_CODE = "import topzeta.cli; topzeta.cli.build_parser()"
#: Pool ideals slower than this, over their three commands, are not kept.
POOL_MAX_S = 0.2


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


def run_op(cli, argv, sampler=None) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one zp call; a crash or a
    timeout gives exit code -1 with the exception in stderr.  With a
    ``refclock.Sampler``, reference rounds are taken during the call and
    their time is not counted.

    ``cli.main`` is looked up on every call, so a traced pass sees the
    wrapped entry point."""
    out, err = io.StringIO(), io.StringIO()
    probe = sampler or contextlib.nullcontext()
    gc.collect()  # start from a collected heap, as a fresh zp process does
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        with probe, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else -1
    except Exception as exc:  # a crash is a failed operation, not a stop
        code = -1
        err.write(f"crashed: {exc!r}")
    finally:
        dt = time.perf_counter() - t0 - (sampler.spent if sampler else 0.0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), err.getvalue(), dt


class Run:
    """Passes over one workload's operations, with their checks.

    In a pass each operation runs back to back until it has taken
    ``REPEAT_S`` or run ``MAX_REPS`` times, so the cheaper operations, which
    set the median latency, get more samples.  Operations run in blocks of
    about ``BLOCK_S`` seconds with a reference measurement between blocks,
    and reference rounds are sampled inside each operation (refclock.py).
    Each run's time is scaled by the rounds around its block and its own.
    """

    def __init__(self, cli, ops, expected):
        self.cli = cli
        self.ops = ops
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.scaled: list[list[float]] = [[] for _ in ops]  # per op, per run
        self.sampler = refclock.Sampler()

    def one_pass(self, steady: bool = True,
                 deadline: float = math.inf) -> tuple[float, float] | None:
        """Raw and reference-scaled seconds of one pass: each operation's
        mean over its repeats, summed.  Without ``steady`` every operation
        runs once and unsampled, so that a traced pass counts the same work
        each time and its spans hold no reference rounds.

        Once every operation has a sample, a pass stops at ``deadline``
        (a ``perf_counter`` time) and returns None."""
        max_reps = MAX_REPS if steady else 1
        sampler = self.sampler if steady else None
        raw: list[list[float]] = [[] for _ in self.ops]
        scaled: list[list[float]] = [[] for _ in self.ops]
        block: list[tuple[int, float, list[float]]] = []
        ref = refclock.measure()
        block_start = time.perf_counter()
        cut = False
        for i, op in enumerate(self.ops):
            if time.perf_counter() > deadline and self.scaled[-1]:
                cut = True
                break
            spent, reps = 0.0, 0
            while reps == 0 or (spent < REPEAT_S and reps < max_reps):
                code, out, err, dt = run_op(self.cli, op.argv, sampler)
                self.attempted += 1
                failure = wl.check_op(op, self.expected, code, out, err)
                if failure:
                    self.failures.append(f"{' '.join(op.argv)}: {failure}")
                block.append((i, dt, sampler.rounds if sampler else []))
                spent += dt
                reps += 1
                if time.perf_counter() - block_start >= BLOCK_S:
                    ref = self._close_block(block, ref, raw, scaled)
                    block_start = time.perf_counter()
        self._close_block(block, ref, raw, scaled)
        for i, times in enumerate(scaled):
            self.scaled[i] += times
        if cut:
            return None
        return (sum(statistics.fmean(t) for t in raw),
                sum(statistics.fmean(t) for t in scaled))

    @staticmethod
    def _close_block(block, ref, raw, scaled) -> list[float]:
        """Scale the block's times, empty it, and return the reference
        measurement that closed it."""
        ref_after = refclock.measure()
        for i, dt, inside in block:
            raw[i].append(dt)
            scaled[i].append(dt * refclock.scale(ref + inside + ref_after))
        block.clear()
        return ref_after

    def op_times(self) -> list[float]:
        """Each operation's median reference-scaled seconds over its runs."""
        return [statistics.median(t) for t in self.scaled]


def time_setup(count: int) -> list[tuple[float, float]]:
    """Raw and reference-scaled wall times of fresh interpreters importing
    topzeta.cli and building its parser, as every zp invocation does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    ref = refclock.measure()
    for _ in range(count):
        # no timeout= here: Popen.wait polls every 50 ms when given one,
        # which would quantize the times; the alarm bounds the wait instead
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        ref_after = refclock.measure()
        times.append((dt, dt * refclock.scale(ref + ref_after)))
        ref = ref_after
    return times


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "topzeta").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed}


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Passes for ``seconds``, the last one cut short, with set-up sampled
    between passes, spread over the run.  Every time metric is in
    reference-scaled seconds (refclock.py); the raw times are in the info
    line."""
    deadline = time.perf_counter() + seconds
    time_setup(1)  # warm-up: bytecode caches
    setups = time_setup(SETUP_PER_GAP)
    walls = []
    while time.perf_counter() < deadline:
        wall = run.one_pass(deadline=deadline)
        if wall:
            walls.append(wall)
        setups += time_setup(SETUP_PER_GAP)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = run.op_times()
    metrics = {
        "setup_s": _metric(statistics.median(s for _, s in setups), "s"),
        "wall_s": _metric(sum(ops), "s"),
        "op_p50_ms": _metric(statistics.median(ops) * 1e3, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    info = {"pass_walls_raw_s": [w for w, _ in walls],
            "pass_walls_scaled_s": [w for _, w in walls],
            "setup_raw_median_s": statistics.median(r for r, _ in setups),
            "setup_samples": len(setups), "op_p50_samples": len(ops)}
    if len(ops) >= P90_MIN_OPS:
        info["op_p90_ms"] = statistics.quantiles(
            ops, n=10, method="inclusive")[-1] * 1e3
    return metrics, info


def per_layer(run: Run, seconds: float, layers) -> tuple[dict, dict]:
    """Untraced and traced passes, alternating, until the next pair would
    end after ``seconds``; fails if a listed layer records no span.  Self
    times are scaled by their pass's reference factor."""
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run.one_pass(steady=False))
        with tracing.Tracer() as tracer:
            traced.append(run.one_pass(steady=False))
        tracers.append(tracer)
        missing = [n for n in layers if not tracer.calls[n]]
        if missing:
            raise RuntimeError(f"expected layers recorded no spans: {missing}")
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(w for w, _ in plain) \
                + statistics.median(w for w, _ in traced) > seconds:
            break
    last, n_ops = tracers[-1], len(run.ops)
    factors = [sc / raw for raw, sc in traced]
    metrics = {}
    for name in tracing.LAYER_NAMES:
        metrics[f"{name}.self_s"] = _metric(statistics.median(
            t.self_s[name] * f for t, f in zip(tracers, factors)), "s")
        metrics[f"{name}.calls"] = _metric(last.calls[name] / n_ops,
                                           "calls/op")
    scanned = last.counts["leaves_scanned"]
    metrics["principalize.leaves_scanned"] = _metric(scanned, "count")
    metrics["principalize.scan_useful_ratio"] = _metric(
        last.counts["new_leaves"] / scanned if scanned else 0.0, "ratio")
    for key in ("max_residual_terms", "max_residual_degree", "leaf_charts"):
        metrics[f"principalize.{key}"] = _metric(last.sizes[key], "count")
    metrics["principalize.max_coeff_bits"] = _metric(
        last.sizes["max_coeff_bits"], "bits")
    metrics["zeta.terms"] = _metric(last.sizes["terms"], "count")
    metrics["generic.retries"] = _metric(last.counts["retries"], "count")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(w for _, w in traced)
        - statistics.median(w for _, w in plain), "s")
    return metrics, {"pass_walls_scaled_s": [w for _, w in plain],
                     "traced_walls_scaled_s": [w for _, w in traced]}


def load_engine():
    """The engine's cli module, imported from ./src, or refuse to run."""
    if not (SRC / "topzeta" / "cli.py").is_file():
        sys.exit(f"perfbench: no engine source at {SRC}; run from the root "
                 "of a topzeta checkout")
    sys.path.insert(0, str(SRC))
    import topzeta.cli
    return topzeta.cli


def freeze_heap() -> None:
    """Move the benchmark's own objects out of the collector's reach, so
    that collections during an operation scan only that operation's
    objects, as in a fresh zp process."""
    gc.collect()
    gc.freeze()


def load_expected() -> tuple[dict, dict]:
    """The recorded outputs, and the workloads built on the recorded pool."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    pool = [tuple(g) for g in expected["corpus_pool"]]
    return expected["ops"], wl.workloads(pool)


def benchmark(args) -> int:
    cli = load_engine()
    expected, workloads = load_expected()
    workload = workloads[args.workload]
    run = Run(cli, workload.draw(args.seed), expected)
    freeze_heap()
    if args.trace:
        metrics, info = per_layer(run, args.seconds, workload.layers)
    else:
        metrics, info = end_to_end(run, args.seconds)
    info.update(
        workload=args.workload, trace=args.trace, env=environment(args.seed),
        ops_per_pass=len(run.ops),
        failed_frac=len(run.failures) / run.attempted,
        first_failures=run.failures[:5])
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not run.failures,
                      "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


def smoke() -> int:
    """One operation per workload through every check, a traced run of it,
    and the checks shown to reject a wrong exit code and a changed stdout."""
    cli = load_engine()
    expected, workloads = load_expected()
    freeze_heap()
    problems = []
    for name, workload in workloads.items():
        op = next(o for o in workload.universe() if o.argv == workload.smoke)
        with tracing.Tracer() as tracer:
            code, out, err, dt = run_op(cli, op.argv)
        failure = wl.check_op(op, expected, code, out, err)
        if failure:
            problems.append(f"{name}: {failure}")
        if not tracer.calls["cli.main"]:
            problems.append(f"{name}: traced call recorded no cli.main span")
        if wl.check_op(op, expected, code + 1, out, err) is None:
            problems.append(f"{name}: a wrong exit code passed the checks")
        if wl.check_op(op, expected, code, out + " ", err) is None:
            problems.append(f"{name}: a changed stdout passed the checks")
        print(f"smoke {name}: {' '.join(op.argv)} -> {code} in {dt:.3f} s, "
              f"{'FAIL ' + failure if failure else 'ok'}")
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    return 1 if problems else 0


def record() -> int:
    """Choose the corpus pool and record exit code and stdout digest of every
    operation any seed can draw.  Run only when outputs change on purpose."""
    cli = load_engine()
    kept = []
    for gens in wl.pool_candidates():
        ops = wl.Ideal(gens, wl.CORPUS_COMMANDS).ops(gens)
        results = [run_op(cli, op.argv) for op in ops]
        cost = sum(r[3] for r in results)
        if all(r[0] in (0, 3) for r in results) and cost < POOL_MAX_S:
            kept.append((cost, gens))
    kept.sort(key=lambda item: item[0])
    pool = [list(g) for _, g in kept[:wl.POOL_SIZE]]
    ops = {}
    for workload in wl.workloads([tuple(g) for g in pool]).values():
        for op in workload.universe():
            code, out, err, dt = run_op(cli, op.argv)
            if code not in (0, 2, 3):
                raise RuntimeError(f"refusing to record exit {code} for "
                                   f"{' '.join(op.argv)}: {err.strip()}")
            ops[op.key] = [code, wl.digest(out)]
    EXPECTED.write_text(json.dumps(
        {"corpus_pool": pool, "ops": ops}, indent=0, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"recorded {len(ops)} operations, pool of {len(pool)} "
          f"from {len(wl.pool_candidates())} candidates")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("corpus", "chain", "swell",
                                           "curvepart"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    if not args.workload:
        ap.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.exit(main())
