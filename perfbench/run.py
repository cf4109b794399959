"""Time to verdict of ``domblocker solve`` and ``domblocker verify``.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve_unsat --seed 1 --seconds 25 --trace 0

One client runs CLI commands back to back in this process (a closed loop, no
threads), each through ``domblocker.cli.main``. Inputs come from the seed
only and are written as graph6 files during set-up. Every verdict is checked
after the timed loop (see ``oracles.py``); a rejected verdict, a raised
exception or a non-zero exit counts as failed.

``--trace 0`` reports the end-to-end metrics, from op and set-up times scaled
to a reference machine speed by a probe timed all through the run
(``speed.py``); the unscaled figures are printed above the result.
``--trace 1`` runs a fixed prefix of the op list with spans around the
package's public functions (``tracer.py``), runs each op untraced as well,
and reports per-layer metrics.
The last line of standard output is one JSON object; the lines above it give
the same numbers for reading.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
WORK = HERE / ".work"


class Package:
    """One fresh import of the package and all its modules; ``modules`` maps
    short names (all of them, so the tracer can rebind every import)."""

    def __init__(self):
        for name in list(sys.modules):
            if name == "domblocker" or name.startswith("domblocker."):
                del sys.modules[name]
        top = importlib.import_module("domblocker")
        self.modules = {"domblocker": top}
        for info in pkgutil.iter_modules(top.__path__):
            self.modules[info.name] = importlib.import_module(f"domblocker.{info.name}")
        for short, mod in self.modules.items():
            setattr(self, short, mod)

    def gamma_of(self, n: int, edges) -> int:
        g = self.graphs.LabeledGraph.from_edges(n, edges)
        return self.domination.domination_number(g).gamma


@dataclass
class Result:
    op: workloads.Op
    seconds: float  # wall time, less any speed probe that ran inside it
    exit_code: int
    output: str
    stderr: str
    start: float
    end: float
    scaled: float = 0.0  # seconds at the reference speed (speed.py)


def run_op(pkg: Package, op: workloads.Op, out: Path, tracer=None, op_id=None, sampler=None) -> Result:
    argv = list(op.argv) + ["-o", str(out)]
    out.unlink(missing_ok=True)
    err = io.StringIO()
    code = 0
    clock = sampler.clock if sampler else time.perf_counter
    start, began = time.perf_counter(), clock()
    with contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op(op_id)
        try:
            pkg.cli.main.main(args=argv, prog_name="domblocker", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.end_op()
    end, seconds = time.perf_counter(), clock() - began
    output = out.read_text(encoding="utf-8") if out.exists() else ""
    return Result(op, seconds, code, output, err.getvalue(), start, end)


def set_up(name: str, seed: int, workdir: Path, tracer=None, sampler=None):
    """Import, generate, classify, build and write the inputs; SETUP_REPS
    times, each from a fresh import. Returns the workload, package, the
    (start, end, seconds) of each set-up, less its file writes (see
    ``workloads.Inputs``), and (when tracing) the set-up phase of the last
    repetition."""
    times = []
    setup_phase = None
    clock = sampler.clock if sampler else time.perf_counter
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        start, began = time.perf_counter(), clock()
        pkg = Package()
        if tracer is not None and last:
            tracing.instrument(tracer, pkg.modules)
            tracer.begin_op("setup", root="setup")
        files = workloads.Inputs(pkg, workdir, clock)
        wl = workloads.SETUPS[name](pkg, seed, files)
        if tracer is not None and last:
            tracer.end_op()
            setup_phase = tracer.take_phase()
        end, seconds = time.perf_counter(), clock() - began - files.write_s
        times.append((start, end, seconds))
    return wl, pkg, times, setup_phase


def timed_loop(wl, pkg: Package, seconds: float, out: Path, sampler) -> list[Result]:
    """Run ops from the cycled list until the next one would, on the mean so
    far, end past ``seconds``; at least one op."""
    results: list[Result] = []
    busy = 0.0
    start = time.perf_counter()
    i = 0
    while not results or time.perf_counter() - start + busy / len(results) <= seconds:
        if wl.fresh_package and i:
            pkg = Package()
        results.append(run_op(pkg, wl.ops[i % len(wl.ops)], out, sampler=sampler))
        busy += results[-1].seconds
        i += 1
    return results


def check(results: list[Result], oracle: oracles.Oracle, tamper=None) -> int:
    failed = 0
    for r in results:
        output = tamper(r.op, r.output) if tamper else r.output
        why = oracle.check(r.op, r.exit_code, output)
        if why is not None:
            failed += 1
            print(f"FAILED {r.op.key}: {why} {r.stderr.strip()[:300]}", file=sys.stderr)
    return failed


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value
    (the maximum, called p100, when there are 10 samples or fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(results, failed, setup_times, sampler) -> tuple[dict, list[str]]:
    """The e2e metrics from scaled times (speed.py); the notes give the
    same figures in plain wall time, and the machine's speed."""
    for r in results:
        r.scaled = r.seconds * sampler.factor(r.start, r.end)
    setup_scaled = [s * sampler.factor(a, b) for a, b, s in setup_times]
    attempted = len(results)

    def figures(ms, setups):
        pct, tail_ms = tail(ms)
        return pct, {
            "ops_per_s": ((attempted - failed) / (sum(ms) / 1000.0), "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "setup_s": (statistics.median(setups), "s"),
        }

    pct, metrics = figures([r.scaled * 1000.0 for r in results], setup_scaled)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    _, plain = figures([r.seconds * 1000.0 for r in results], [s for _, _, s in setup_times])
    probes = [s for _, s in sampler.samples]
    notes = [
        f"failed_share {failed / attempted:.4f} ({failed} of {attempted} ops)",
        f"op_tail_ms is p{pct:.1f} of {attempted} samples",
        f"setup_s is the median of {len(setup_times)} set-ups",
        f"speed probe: {len(probes)} samples, median {statistics.median(probes) * 1000.0:.3f} ms"
        f" (reference {speed.REFERENCE_S * 1000.0:.3f} ms)",
        "unscaled: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in plain.items()),
    ]
    return metrics, notes


def counts_record(wl, phase, digest: str, seed: int) -> tuple[bool, str]:
    """Exact counts must repeat: within this run for a repeated op, and across
    runs of one seed on the same sources (recorded under .work/counts)."""
    by_key: dict = {}
    for op_id in phase.ops:
        key = wl.ops[op_id % len(wl.ops)].key
        counts = {k: phase.counts[op_id][k] for k in tracing.COUNTS}
        if by_key.setdefault(key, counts) != counts:
            return False, f"counts of {key} differ between two executions in this run"
    path = WORK / "counts" / f"{wl.name}-{seed}-{digest}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != by_key:
            return False, f"counts differ from the earlier run recorded in {path.name}"
        return True, f"counts equal the earlier run of this seed ({path.name})"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(by_key, indent=1, sort_keys=True), encoding="utf-8")
    return True, f"counts recorded in {path.name}"


def traced_run(wl, pkg: Package, tracer, out: Path):
    """The fixed traced prefix, each op also run untraced right after or
    before it (alternately) on a second, plain import of the package, so
    that drift in machine speed cancels in the overhead."""
    ops = [wl.ops[i % len(wl.ops)] for i in range(wl.trace_ops)]
    plain_pkg = Package()
    traced, plain = [], []
    for i, op in enumerate(ops):
        if wl.fresh_package and i:
            pkg = Package()
            tracing.instrument(tracer, pkg.modules)
            plain_pkg = Package()
        if i % 2:
            plain.append(run_op(plain_pkg, op, out))
        traced.append(run_op(pkg, op, out, tracer, op_id=i))
        if not i % 2:
            plain.append(run_op(plain_pkg, op, out))
    return traced, plain, tracer.take_phase(), plain_pkg


def run(workload: str, seed: int, seconds: float, trace: bool, tamper=None) -> dict:
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out.json"
    tracer = tracing.Tracer() if trace else None
    notes = []
    try:
        if not trace:
            with speed.Sampler() as sampler:
                wl, pkg, setup_times, _ = set_up(workload, seed, workdir, sampler=sampler)
                results = timed_loop(wl, pkg, seconds, out, sampler)
            failed = check(results, oracles.Oracle(pkg.gamma_of), tamper)
            metrics, notes = end_to_end(results, failed, setup_times, sampler)
            correct = failed == 0
        else:
            wl, pkg, _, setup_phase = set_up(workload, seed, workdir, tracer)
            traced, plain, phase, pkg = traced_run(wl, pkg, tracer, out)
            results = traced + plain
            failed = check(results, oracles.Oracle(pkg.gamma_of), tamper)
            exact, why = counts_record(wl, phase, tracing.source_digest(ROOT / "src", HERE), seed)
            notes.append(why)
            if not exact:
                print(f"FAILED exact counts: {why}", file=sys.stderr)
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
            layer = tracing.layer_metrics(phase)
            layer["reductions.setup_build_ms"] = setup_phase.outer_s.get("build", 0.0) * 1000.0
            layer["cnf.setup_brute_ms"] = setup_phase.outer_s.get("brute", 0.0) * 1000.0
            layer["trace.overhead_share"] = overhead
            layer["trace.ops"] = float(len(traced))
            metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
            spans = WORK / "spans" / f"{workload}-{seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans)
            notes.append(f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}, {tracer.dropped} not kept")
            correct = failed == 0 and exact
        attempted = len(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "domblocker" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import click  # noqa: F401  (imported once here, outside the timed set-up)
    except ImportError as exc:
        print(f"the package needs click: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in result.pop("notes"):
        print("  " + note)
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
