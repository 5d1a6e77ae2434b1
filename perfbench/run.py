"""orbitfix benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload ring --seed 1 --seconds 32 --trace 0

Every operation runs in-process through orbitfix.cli.main with generated
argv, and its answer is checked by a gate (see workloads.py). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with
the argv, per-op results, sample counts and the machine. A readable summary
goes to standard error.

--trace 0 measures end-to-end metrics with tracing off. --trace 1 is a
separate run that alternates an untraced and a traced pass over the same
inputs and reports per-layer metrics from the benchmark's own wrappers
(tracing.py); the program's sources are not changed.

--seconds sets how many passes a run makes (about --seconds of work at the
nominal pass time of the workload), not a deadline: the ops, the answers
and the failure count of a run depend on --workload, --seed and --seconds
only, never on how fast the machine ran.
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
import textwrap
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# OpenBLAS threads, pinned before numpy loads: an isolated `bs spectrum` op
# spread 7-11% run to run at 1 or 2 threads on a shared 2-CPU machine
BLAS_THREADS = 1
RUN_SECONDS = 32
SETUP_PROBES = 11
# median calibration-kernel time on the reference machine (2 vCPUs of an
# Intel Xeon with the host lightly loaded); scaled times read in its seconds
CALIBRATION_REF_S = 0.011
# a traced pass takes up to about 1.5 times an untraced one
TRACED_PAIR_PASSES = 2.5

SPEED_NOTE = (
    "Speed scaling: on a shared host the speed of the same code drifts by up to 2x over "
    "minutes (co-tenant load; process CPU time drifts with wall time, so it is not "
    "preemption). The benchmark therefore times a fixed calibration kernel (a pure-Python "
    "float loop, a loop of tiny numpy calls, FFT round trips with dot products, a dense "
    "symmetric eigensolve: the program's kinds of work, none of its code) before each op and after the last op of "
    "every pass. An op's scale is CALIBRATION_REF_S over the mean of the kernel times just "
    "before and just after it, and wall_ref_s sums each pass's op times multiplied by their "
    "scales: seconds at the reference speed. setup_s is multiplied by the run's "
    "speed_scale, the median of all its op scales. The raw "
    "times are printed too. The benchmark pins the program to one BLAS thread; a program "
    "that left threads running between ops would slow the kernel and so lower its own "
    "scaled times."
)

# gated by BENCHMARK.json: (name, unit, meaning)
END_TO_END = (
    ("setup_s", "s", "process start to first operation ready (interpreter, imports of "
                     "orbitfix.cli and numpy, output directory); median of fresh processes "
                     "spread between the run's passes, times speed_scale"),
    ("wall_ref_s", "s", "one pass over the operation list: the sum of its op times, each "
                        "multiplied by its op scale (see the speed scaling note); mean of the "
                        "run's passes. A mean, because pass times can be bimodal (ring's 128-body solve stops after 2 to 7 Newton steps at its "
                        "residual floor) and the median of a bimodal sample jumps between "
                        "the modes"),
    ("peak_rss_mb", "MiB", "peak resident set size of the benchmark process"),
)

# printed with every --trace 0 result but not gated: the raw times drift with
# the host (see SPEED_NOTE); a percentile of pooled op times lands in the gap
# between a cluster of short ops and one of long ops (p50 on ring and
# wave-validate), among fewer than ten samples (p95 on the wave workloads) or
# inside the 2-to-7-step times of ring's 128-body solve (p95 on ring), so it
# swings from seed to seed by more than any usable bound
REPORTED = (
    ("wall_s", "s", "wall_ref_s before scaling: the mean pass time in seconds of this machine"),
    ("setup_raw_s", "s", "setup_s before scaling"),
    ("speed_scale", "ratio", "median of the run's op scales (see the speed scaling note); "
                             "below 1 when the machine ran slower than the reference"),
    ("op_p50_s", "s", "median per-operation wall time, pooled over the run's passes"),
    ("op_p95_s", "s", "95th percentile per-operation wall time, pooled over the run's passes"),
    ("fail_frac", "ratio", "failed ops over attempted ops (both counts are in the result "
                           "line); 0 on the wave workloads"),
)

EXCLUDED = (
    "theta2 above 0.92: at theta2=0.962 the wave's peak elevation is about 22 and n=512 "
    "cannot resolve it (center error 3.2e-3, above criterion 11's 1e-3 bound); an input "
    "resolution limit, not a program defect.",
    "the cs=1.05 unknown-speed wave: it takes 60 s, longer than all three passes together; "
    "the n=1024 shift-table op shows the same inner-budget-exhaustion regime.",
)


def _pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_program():
    """Import orbitfix.cli from the checkout's src/ directory."""
    if not (SRC / "orbitfix" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no orbitfix sources under {SRC}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import orbitfix.cli
    return orbitfix.cli


# ---------------- environment ----------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------- passes ----------------

def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(call, ops, workdir: Path, tracer=None, calibrations=None):
    """Run each op once; returns per-op records and the pass's op-time sum.

    With a list for `calibrations`, the calibration kernel's times before
    each op and after the last one are appended to it.
    """
    records = []
    for i, op in enumerate(ops):
        if calibrations is not None:
            calibrations.append(calibration_kernel())
        out = workdir / f"op{i}"
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.op = i
        error = None
        t0 = time.perf_counter()
        try:
            code = call(list(op.argv) + ["--out", str(out)])
        except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if error is None:
            try:
                ok, detail = op.gate(code, out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                ok, detail = False, f"unreadable artifacts: {type(exc).__name__}: {exc}"
        else:
            ok, detail = False, error
        records.append({"op": op.name, "seconds": seconds, "ok": ok, "detail": detail,
                        "known_defect": not ok and workloads.is_known_defect(op.name, out),
                        "bytes": _dir_bytes(out) if out.exists() else 0})
    if calibrations is not None:
        calibrations.append(calibration_kernel())
    return records, sum(r["seconds"] for r in records)


def calibration_kernel() -> float:
    """Seconds for a fixed mix of the program's kinds of work (see SPEED_NOTE)."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal(1024)
    a = rng.standard_normal((160, 160))
    a = a + a.T
    pos = rng.standard_normal((64, 2))
    g = np.zeros_like(pos)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    for j in range(12):  # many tiny numpy calls, as in a pairwise-force loop
        for i in range(64):
            d = pos[j] - pos[i]
            g[j] -= d / (float(np.linalg.norm(d)) + 1.0) ** 3
        acc += float(np.outer(pos[j], pos[j])[0, 0])
    for _ in range(75):
        acc += float(np.fft.irfft(np.fft.rfft(x), n=x.size) @ x)
    np.linalg.eigvalsh(a)
    return time.perf_counter() - t0


def _probe_setup(workdir: Path) -> float:
    """Seconds from spawning a fresh benchmark process to its first op being ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe", str(workdir / "probe")],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
    return seconds


def _percentile(values, q):
    """Linear-interpolated percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _probe_slots(passes: int) -> list:
    """How many set-up probes to run before pass 0, ..., pass P-1 and after the last."""
    return [SETUP_PROBES * (k + 1) // (passes + 1) - SETUP_PROBES * k // (passes + 1)
            for k in range(passes + 1)]


def timed_run(cli, workload, seed, seconds, workdir):
    count = workloads.pass_count(workload, seconds)
    slots = _probe_slots(count)
    setups, passes = [], []
    for k in range(count + 1):
        setups += [_probe_setup(workdir) for _ in range(slots[k])]
        if k == count:
            break
        ops = workloads.pass_ops(workload, seed, k, count)
        calibrations = []
        records, wall = run_pass(cli.main, ops, workdir, calibrations=calibrations)
        for r, before, after in zip(records, calibrations, calibrations[1:]):
            r["scale"] = 2.0 * CALIBRATION_REF_S / (before + after)
        passes.append({"argv": workloads.argv_list(ops), "wall_s": wall,
                       "wall_ref_s": sum(r["seconds"] * r["scale"] for r in records),
                       "calibration_s": calibrations, "ops": records})
    op_times = [r["seconds"] for p in passes for r in p["ops"]]
    setup = statistics.median(setups)
    scale = statistics.median(r["scale"] for p in passes for r in p["ops"])
    metrics = {
        "setup_s": setup * scale,
        "wall_ref_s": statistics.mean(p["wall_ref_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"wall_s": statistics.mean(p["wall_s"] for p in passes), "setup_raw_s": setup,
             "speed_scale": scale,
             "op_p50_s": _percentile(op_times, 50), "op_p95_s": _percentile(op_times, 95),
             "samples": {"setup_s": len(setups), "wall_ref_s": len(passes),
                         "op_p50_s": len(op_times), "op_p95_s": len(op_times)}}
    return metrics, extra, passes


def traced_run(cli, workload, seed, seconds, workdir):
    """Alternate untraced/traced passes over pass 0's inputs; median per metric."""
    ops = workloads.pass_ops(workload, seed, 0, workloads.pass_count(workload, seconds))
    pairs = max(1, round(seconds / (TRACED_PAIR_PASSES * workload.pass_s)))
    passes, per_pass, missing = [], [], []
    for _ in range(pairs):
        records, untraced_wall = run_pass(cli.main, ops, workdir)
        passes.append({"traced": False, "wall_s": untraced_wall, "ops": records})
        tracer = tracing.Tracer()
        with tracing.Hooks(tracer) as hooks:
            records, wall = run_pass(tracer.wrap("cli.main", cli.main), ops, workdir, tracer)
        passes.append({"traced": True, "wall_s": wall, "ops": records})
        profile = tracing.Profile(tracer, wall, untraced_wall,
                                  sum(r["bytes"] for r in records))
        per_pass.append(tracing.layer_metrics(profile, hooks.present, tracer.broken))
        missing = sorted(set(hooks.missing) | tracer.broken)
    metrics = {}
    for m in tracing.LAYER_METRICS:
        values = [d[m.name] for d in per_pass]
        metrics[m.name] = None if None in values else statistics.median(values)
    for p in passes:
        p["argv"] = workloads.argv_list(ops)
    return metrics, {"traced_passes": len(per_pass), "missing_hooks": missing}, passes


# ---------------- output ----------------

def _help_epilog() -> str:
    wrap = textwrap.TextWrapper(width=96, initial_indent="    ", subsequent_indent="      ")
    lines = ["workloads (seed-drawn values are uniform over the ranges shown):"]
    for w in workloads.WORKLOADS.values():
        lines.append(f"  {w.name}: {w.why}")
        lines += wrap.wrap("ops: " + w.ops_doc)
        lines += wrap.wrap(f"passes: round(--seconds / {w.pass_s:g}), at least 2 "
                           f"({workloads.pass_count(w, RUN_SECONDS)} at --seconds {RUN_SECONDS}; {w.pass_s:g} s is "
                           "the pass time measured on 2 vCPUs of an Intel Xeon)")
        if w.dims:
            lines += wrap.wrap("seed ranges: " + ", ".join(
                f"{name} in [{lo:g}, {hi:g}]" for name, lo, hi in w.dims))
    lines.append("excluded inputs:")
    for text in EXCLUDED:
        lines += wrap.wrap("- " + text)
    lines.append("known defects kept visible (counted in `failed`; they do not clear "
                 "`correct` while they end with the status shown):")
    for name, (status, text) in workloads.KNOWN_DEFECTS.items():
        lines += wrap.wrap(f"{name} -> {status}: {text}")
    lines.append("end-to-end metrics (--trace 0), gated by BENCHMARK.json:")
    for name, unit, doc in END_TO_END:
        lines += wrap.wrap(f"{name} [{unit}]: {doc}")
    lines += wrap.wrap(SPEED_NOTE)
    lines.append("also printed with --trace 0 (standard error and report line), not gated, "
                 "because raw times drift with the host and the pooled percentiles land in "
                 "gaps between op-time clusters or inside the seed-dependent 128-body solve "
                 "times:")
    for name, unit, doc in REPORTED:
        lines += wrap.wrap(f"{name} [{unit}]: {doc}")
    lines.append("per-layer metrics (--trace 1), grouped by what they should move:")
    for moves, group in tracing.LAYER_GROUPS:
        lines.append(f"  -> {moves}")
        lines += wrap.wrap(", ".join(f"{m.name} [{m.unit}]" for m in group))
    return "\n".join(lines)


def _parser():
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                epilog=_help_epilog(),
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p


def _summarize(workload, seed, trace, metrics, units, counts):
    rows = [f"perfbench {workload} seed={seed} trace={trace}: "
            f"{counts['failed']}/{counts['attempted']} ops failed"]
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        rows.append(f"  {name:<44} {shown:>14} {units[name]}")
    print("\n".join(rows), file=sys.stderr)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    _pin_blas_threads()
    if args.setup_probe:
        load_program()
        Path(args.setup_probe).mkdir(parents=True, exist_ok=True)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    cli = load_program()
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, extra, passes = traced_run(cli, workload, args.seed, args.seconds, workdir)
            units = {m.name: m.unit for m in tracing.LAYER_METRICS}
        else:
            metrics, extra, passes = timed_run(cli, workload, args.seed, args.seconds, workdir)
            units = {name: unit for name, unit, _ in END_TO_END + REPORTED}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it, or it was never made
            pass

    records = [r for p in passes for r in p["ops"]]
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    counts = {"attempted": len(records), "failed": len(failed),
              "fail_frac": len(failed) / len(records)}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(), **counts, **extra,
              "failures": sorted({f"{r['op']}: {r['detail']}" for r in failed}),
              "passes": passes}
    shown = metrics if args.trace else {
        **metrics, **{name: extra[name] for name, _, _ in REPORTED if name in extra},
        "fail_frac": counts["fail_frac"]}
    _summarize(args.workload, args.seed, args.trace, shown, units, counts)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
