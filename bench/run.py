"""dcoh benchmark: run one workload, check every output, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics. ``all`` runs each workload in its
own process and prints one table. The last stdout line of a single
workload run is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import WrongAnswer  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, BadOutput, Stats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 5
SEGMENT_S = 0.5
PROBE_WINDOW = 8
# Tail percentile per workload: the highest on LADDER that keeps at least
# ten samples beyond it in a 25-second run even at half the reference speed.
# Fixed, so that a faster program is not compared at a higher percentile.
TAIL_PERCENTILE = {"dilution_brackets": 95.0, "np_duals": 99.0,
                   "oracle_pairs": 90.0, "cli_batch": 99.5}
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)

END_TO_END = (("setup_s", "s"), ("throughput_ops_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"))
WORKLOAD_SPECIFIC = (("failed_share", "share"), ("bracket_width_bits", "bits"),
                     ("undetermined_share", "share"))


def import_dcoh():
    """Import dcoh afresh from the checkout's src directory."""
    for name in [n for n in sys.modules if n == "dcoh" or n.startswith("dcoh.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("dcoh")
    importlib.import_module("dcoh.cli")  # not imported by the package itself
    if Path(pkg.__file__).resolve().parent != SRC / "dcoh":
        raise ImportError(f"dcoh imported from {pkg.__file__}, not from {SRC}")
    return pkg


def package_modules(pkg):
    return [pkg] + [sys.modules[n] for n in sorted(sys.modules) if n.startswith("dcoh.")]


class Record:
    """Latencies and failures of the instances run in one phase.

    ``latencies`` are wall-clock seconds. The reference kernel of
    ``speed.py`` is timed at the start and after each stretch of
    instances; ``scaled()`` gives the latencies at the reference speed.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.cuts: list[int] = []  # latencies[cuts[k]:cuts[k+1]] ran between probes k, k+1
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.rounds = 0

    def scaled(self) -> list[float]:
        """Each stretch scaled by REFERENCE_S over the median kernel time of
        the PROBE_WINDOW probes around it, half before and half after; the
        median keeps one slow probe from skewing a stretch."""
        out = []
        bounds = self.cuts + [len(self.latencies)]
        half = PROBE_WINDOW // 2
        for k in range(len(self.cuts)):
            window = self.probes[max(0, k + 1 - half):k + 1 + half]
            factor = REFERENCE_S / statistics.median(window)
            out.extend(x * factor for x in self.latencies[bounds[k]:bounds[k + 1]])
        return out


def run_instance(inst, rec: Record, tracer: Tracer | None) -> None:
    t0 = time.perf_counter()
    try:
        out = tracer.instance(inst.call) if tracer else inst.call()
    except Exception as exc:  # the program crashed on this instance
        rec.latencies.append(time.perf_counter() - t0)
        rec.failures[f"error:{inst.label}:{type(exc).__name__}"] += 1
        return
    rec.latencies.append(time.perf_counter() - t0)
    try:
        inst.check(out)
    except BadOutput as exc:
        rec.failures[f"output:{inst.label}:{exc}"] += 1
    except WrongAnswer as exc:
        rec.failures[f"wrong:{inst.label}:{exc}"] += 1
        rec.wrong.append(f"{inst.label}: {exc}")


def measure(round_, seconds: float, probe: SpeedProbe, tracer: Tracer | None = None) -> Record:
    """Repeat whole rounds until ``seconds`` have passed (at least one round),
    timing the reference kernel about every SEGMENT_S between instances."""
    rec = Record()
    start = time.perf_counter()
    rec.probes.append(probe())
    rec.cuts.append(0)
    segment_start = time.perf_counter()
    while True:
        for inst in round_:
            run_instance(inst, rec, tracer)
            if time.perf_counter() - segment_start >= SEGMENT_S:
                rec.probes.append(probe())
                rec.cuts.append(len(rec.latencies))
                segment_start = time.perf_counter()
        rec.rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    if rec.cuts[-1] < len(rec.latencies):
        rec.probes.append(probe())
    else:
        rec.cuts.pop()
    return rec


def measure_traced(round_, seconds: float, probe: SpeedProbe, tracer: Tracer, modules):
    """Run every instance twice, untraced and traced, back to back, in whole
    rounds until ``seconds`` have passed; the order of the two alternates
    from round to round.

    Returns the record, the number of traced rounds and the tracing
    overhead: total traced instance time over total untraced instance
    time, minus one. Pairing each instance with itself cancels machine drift.
    """
    rec = Record()
    plain = traced = 0.0
    start = time.perf_counter()
    while True:
        rec.probes.append(probe())
        order = (False, True) if rec.rounds % 2 == 0 else (True, False)
        for inst in round_:
            for with_tracer in order:
                if with_tracer:
                    tracer.install(modules)
                try:
                    run_instance(inst, rec, tracer if with_tracer else None)
                finally:
                    tracer.uninstall()
                if with_tracer:
                    traced += rec.latencies[-1]
                else:
                    plain += rec.latencies[-1]
        rec.rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    rec.probes.append(probe())
    return rec, rec.rounds, traced / plain - 1.0


def tail(latencies, percentile: float) -> tuple[float, float]:
    """Latency at ``percentile`` (nearest rank), stepping down the ladder
    until at least ten samples lie beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in [q for q in reversed(LADDER) if q <= percentile]:
        rank = max(1, math.ceil(n * p / 100.0))
        if n - rank >= 10 or p == LADDER[0]:
            return xs[rank - 1], p


def environment() -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": 1,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("per_iteration"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("max_abs_gap"):
        return "abs"
    if "_per_" in name:
        return "ratio"
    return "count"


def end_to_end(setup_s: float, latencies: list[float], failed: int, percentile: float) -> dict:
    lat_ms = [x * 1e3 for x in latencies]
    tail_ms, tail_p = tail(lat_ms, percentile)
    return {
        "setup_s": setup_s,
        "throughput_ops_s": (len(latencies) - failed) / sum(latencies),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "tail_percentile": tail_p,
    }


def run_workload(args) -> int:
    build = WORKLOADS[args.workload]
    probe = SpeedProbe()
    probe()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_raw, setup_probes = [], [probe()]
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            pkg = import_dcoh()
            stats = Stats()
            round_, warm = build(pkg, args.seed, workdir, stats)
            for inst in warm:
                try:
                    inst.call()
                except Exception:  # failures are counted in the measured rounds
                    pass
            setup_raw.append(time.perf_counter() - t0)
            setup_probes.append(probe())
        setup_s = statistics.median(setup_raw)
        setup_scaled = setup_s * REFERENCE_S / statistics.median(setup_probes)

        if args.trace:
            tracer = Tracer()
            rec, traced_rounds, overhead = measure_traced(
                round_, args.seconds, probe, tracer, package_modules(pkg))
        else:
            rec = measure(round_, args.seconds, probe)
        attempted, failures, wrong = len(rec.latencies), rec.failures, rec.wrong
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(failures.values())
    env = environment()
    speed = REFERENCE_S / statistics.median(rec.probes)
    print(f"# dcoh benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# instances per round {len(round_)}, rounds {rec.rounds}, attempted {attempted}, "
          f"failed {failed}; machine speed {speed:.3f} x reference")
    for what, n in sorted(failures.items()):
        print(f"# failure x{n}: {what}")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "failures": dict(failures),
              "speed_vs_reference": speed, "probes_s": rec.probes}
    if args.trace:
        layer = tracer.layer_metrics(traced_rounds, speed)
        layer["tracing.overhead_pct"] = 100.0 * overhead
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
        for site in tracer.unreachable:
            print(f"# not traced: {site}")
        result["unreachable"] = tracer.unreachable
        result["spans"] = len(tracer.start)
        tracer.save(OUT / f"trace-{args.workload}.npz")
    else:
        pct = TAIL_PERCENTILE[args.workload]
        values = end_to_end(setup_scaled, rec.scaled(), failed, pct)
        wall = end_to_end(setup_s, rec.latencies, failed, pct)
        values["peak_rss_mb"] = wall["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        extra = {
            "failed_share": failed / attempted,
            "bracket_width_bits": statistics.fmean(stats.widths) if stats.widths else None,
            "undetermined_share": (stats.verdicts["undetermined"] / sum(stats.verdicts.values())
                                   if stats.verdicts else None),
        }
        result.update(wall_clock=wall, setup_s_each=setup_raw, samples=attempted,
                      verdicts=dict(stats.verdicts), workload_metrics=extra,
                      fidelity_shortfall=stats.fidelity_shortfall)
        print(f"# latency_tail_ms is p{values['tail_percentile']:g} of N={attempted} samples")
        print("# wall clock, unscaled: " + ", ".join(f"{k} {wall[k]:.6g}" for k, _ in END_TO_END))
        if stats.widths:
            print(f"# worst fidelity shortfall of an upper-bound witness: {stats.fidelity_shortfall:.3g}")
        for k, u in WORKLOAD_SPECIFIC:
            v = extra[k]
            print(f"{k:<30} {'n/a' if v is None else f'{v:.6g}'} {u}")
    for k, m in metrics.items():
        print(f"{k:<30} {m['value']:.6g} {m['unit']}")
    for w in wrong[:5]:
        print(f"# WRONG ANSWER {w}")

    result["metrics"] = metrics
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, then print one table."""
    rows = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows[name] = json.loads((OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").read_text())
    if not rows:
        return status or 1
    first = next(iter(rows.values()))["metrics"]
    units = {k: m["unit"] for k, m in first.items()}
    keys = list(first)
    if not args.trace:
        keys = [k for k, _ in END_TO_END + WORKLOAD_SPECIFIC]
        units.update(WORKLOAD_SPECIFIC)
    print("\n" + f"{'metric':<30} {'unit':<6} " + " ".join(f"{n:>18}" for n in rows))
    for k in keys:
        cells = []
        for r in rows.values():
            v = r["metrics"][k]["value"] if k in r["metrics"] else r["workload_metrics"][k]
            cells.append(f"{'n/a' if v is None else f'{v:.6g}':>18}")
        print(f"{k:<30} {units[k]:<6} " + " ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dcoh" / "__init__.py").is_file():
        print(f"error: no dcoh package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
