"""evoinc benchmark: closed-loop workloads of in-process `evoinc` commands.

    python3 bench/run.py --workload solve-presets --seed 1 --seconds 42 \
        --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. One client runs the workload's three commands in order, each one
`evoinc.cli.main([...])` call, and repeats the pass until `--seconds` have
elapsed. Every command's outputs are checked (see `workloads.py`).

With `--trace 0` the run reports the end-to-end metrics: medians over
passes, plus set-up time (median of several set-ups) and peak RSS. With
`--trace 1` untraced and traced passes alternate; the traced ones wrap each
layer's entry points from outside (see `tracer.py`) and give the per-layer
metrics, and traced minus untraced `wall_s` is the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
The exit code is 0 only when every command passed its checks.
`--record-reference` rewrites the stored reference for this workload at
the reference seed instead of checking against it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 1
SETUP_REPS = 15
# Host-speed adjustment. On shared 2-vCPU hosts the same pass took from
# 4.5 s to 9 s within five minutes, and the probe time below moved by 2x
# within seconds. `host_probe` is timed before the first and after every
# command of a pass, and around every set-up. Each command and each set-up
# is divided by (mean of the two probes around it) / PROBE_REF_S, so it
# reads as seconds on a host where the probe takes PROBE_REF_S; a pass's
# adjusted time is the sum of its commands'. Ten solve-presets runs spread
# 0.09-0.16 adjusted by the pass's mean probe and 0.04-0.08 adjusted this
# way. The probe follows the host's drift, and no evoinc change can move
# it.
PROBE_ITERS = 1500
PROBE_REF_S = 0.1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# End-to-end metrics, in the order BENCHMARK.json lists them.
END_TO_END = (("wall_s", "s"), ("cmd1_s", "s"), ("cmd2_s", "s"),
              ("cmd3_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def pin_threads():
    """One BLAS/OpenMP thread: must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def purge_evoinc():
    for name in [n for n in sys.modules
                 if n == "evoinc" or n.startswith("evoinc.")]:
        del sys.modules[name]


def set_up(commands):
    """Import evoinc and validate every config and argument list.

    Returns (cli module, seconds). Each call starts from a fresh import.
    """
    purge_evoinc()
    importlib.invalidate_caches()
    start = time.perf_counter()
    cli = importlib.import_module("evoinc.cli")
    config = sys.modules["evoinc.config"]
    parser = cli.build_parser()
    for cmd in commands:
        args = parser.parse_args(list(cmd.argv))
        if cmd.argv[0] == "solve":
            config.build_experiment(config.load_config(args.config))
    return cli, time.perf_counter() - start


def run_command(cli, cmd):
    """One closed-loop request. Returns (exit code, stdout, error, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:   # argparse rejected the argument list
        rc = exc.code
    except Exception:           # a raising command is a failed command
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    if rc not in (0, None) and stderr.getvalue():
        error = stderr.getvalue().strip()
    return rc, stdout.getvalue(), error, seconds


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": ",".join(f"{x:.2f}" for x in os.getloadavg()),
        "threads": ",".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS),
    }


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def host_probe() -> float:
    """Seconds for a fixed kernel that does no evoinc work.

    It mixes what the workloads spend their time on: batched small-array
    numpy (einsum, norms, a 12x12 solve) and scalar Python, so its time
    tracks how fast the shared host runs that kind of code.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    verts = rng.normal(size=(65, 8, 10))
    x = rng.normal(size=(65, 10))
    gram = np.einsum("mid,mjd->mij", verts, verts)
    lam = np.full((65, 8), 1.0 / 8)
    mat = rng.normal(size=(12, 12)) + 12.0 * np.eye(12)
    total = 0.0
    start = time.perf_counter()
    for _ in range(PROBE_ITERS):
        grad = np.einsum("mij,mj->mi", gram, lam) \
            - np.einsum("mnd,md->mn", verts, x)
        lam = np.maximum(lam - 1e-3 * grad, 0.0)
        lam /= lam.sum(axis=1, keepdims=True)
        p = np.einsum("mnd,mn->md", verts, lam)
        total += float(np.linalg.norm(x - p, axis=1).max())
        total += float(np.linalg.solve(mat, np.ones(12))[0])
        for k in range(60):
            total += math.sqrt(k + total % 1.0)
    return time.perf_counter() - start


class Run:
    """State of one benchmark run: checks, samples and failures."""

    def __init__(self, checks, commands, reference, record):
        self.checks = checks      # the workloads module
        self.reference = reference
        self.record = record
        self.first = {}           # label -> outputs of its first run
        self.signatures = {}      # label -> signature, for recording
        self.times = {c.label: [] for c in commands}
        self.speeds = {c.label: [] for c in commands}  # host speed around it
        self.probes = []          # host_probe seconds, in order
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def execute(self, cli, cmd, passno):
        if cmd.out_dir is not None:
            shutil.rmtree(cmd.out_dir, ignore_errors=True)
        rc, stdout, error, seconds = run_command(cli, cmd)
        self.attempted += 1
        problems = [error] if error else []
        if not error:
            problems += self.check(cmd, rc, stdout)
        if problems:
            self.failed += 1
            self.problems.append(f"pass {passno} {cmd.label}: "
                                 + "; ".join(problems))
        return seconds

    def check(self, cmd, rc, stdout):
        wl = self.checks
        try:
            outputs = wl.collect_outputs(cmd, stdout)
            problems = wl.check_outputs(cmd, rc, outputs)
            if cmd.label not in self.first:
                self.first[cmd.label] = outputs
                sig = wl.signature(cmd, outputs)
                self.signatures[cmd.label] = sig
                ref = self.reference.get(cmd.label)
                if ref is not None and not self.record:
                    problems += wl.compare_signature(sig, ref)
            elif outputs != self.first[cmd.label]:
                problems.append("outputs differ byte for byte from the "
                                "first pass")
        except Exception as exc:  # a malformed output is a failed command
            problems.append(f"unreadable outputs: {exc!r}")
        return problems


def measure(cli, commands, run, tracer, args):
    """Repeat passes for about `args.seconds`.

    Returns ({traced: [pass seconds]}, {traced: [pass seconds / adjusted
    pass seconds]}, [per-layer values of each traced pass]). A new pass starts only while
    the previous pass's duration still fits in what is left of the window,
    so a run measures for at most `args.seconds` unless one pass is longer.
    With tracing, passes alternate untraced/traced.
    """
    walls = {False: [], True: []}
    speeds = {False: [], True: []}
    layer_passes = []
    start = time.perf_counter()
    passno = 0
    while True:
        traced = bool(args.trace) and passno % 2 == 1
        gc.collect()
        pass_start = time.perf_counter()
        wall = adjusted = 0.0
        probes = [host_probe()]
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for cmd in commands:
                tracer.op += 1
                seconds = run.execute(cli, cmd, passno)
                probes.append(host_probe())
                speed = (probes[-2] + probes[-1]) / 2 / PROBE_REF_S
                wall += seconds
                adjusted += seconds / speed
                if not traced:
                    run.times[cmd.label].append(seconds)
                    run.speeds[cmd.label].append(speed)
        finally:
            tracer.uninstall()
        walls[traced].append(wall)
        speeds[traced].append(wall / adjusted)
        run.probes += probes
        if traced:
            layer_passes.append(tracer.pass_metrics())
        passno += 1
        now = time.perf_counter()
        enough = not args.trace or (walls[True] and walls[False])
        if args.record_reference or (
                enough and now + (now - pass_start) > start + args.seconds):
            return walls, speeds, layer_passes


def report_end_to_end(commands, run, walls, speeds, setup):
    """Prints the end-to-end table; returns the metrics for the result.

    Times are raw seconds divided by the host speed around them (see
    PROBE_REF_S). `setup` is (seconds, speeds).
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [("wall_s", "pass", walls[False], speeds[False], "s")]
    for slot, cmd in enumerate(commands, start=1):
        rows.append((f"cmd{slot}_s", f"cmd_s.{cmd.label}",
                     run.times[cmd.label], run.speeds[cmd.label], "s"))
    rows.append(("setup_s", "import + validate", *setup, "s"))
    rows.append(("peak_rss_mib", "ru_maxrss", [rss], [1.0], "MiB"))
    print(f"{'metric':<14} {'what':<32} {'median':>10} {'unit':<4} {'n':>3} "
          f"{'min':>10} {'max':>10} {'raw median':>11}")
    metrics = {}
    for name, what, raw, factors, unit in rows:
        values = [v / f for v, f in zip(raw, factors)]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:<14} {what:<32} {statistics.median(values):>10.5g} "
              f"{unit:<4} {len(values):>3} {min(values):>10.5g} "
              f"{max(values):>10.5g} {statistics.median(raw):>11.5g}")
    for slot, cmd in enumerate(commands, start=1):
        print(f"# cmd{slot}_s: evoinc {' '.join(cmd.argv)}")
        print(f"#   raw seconds, in order: "
              + " ".join(f"{t:.4f}" for t in run.times[cmd.label]))
    return metrics


def report_layers(tracer, walls, speeds, layer_passes, per_layer):
    """Prints the per-layer table; returns the metrics for the result.

    Span times are raw; the `trace.*` wall times are host-adjusted.
    """
    durations = tracer.durations["monotone.prox_step"]
    traced, untraced = (
        statistics.median(w / f for w, f in zip(walls[kind], speeds[kind]))
        for kind in (True, False))
    derived = {  # name -> (value, samples)
        "monotone.prox_step.p50_us":
            (1e6 * percentile(durations, 0.50), len(durations)),
        "monotone.prox_step.p99_us":
            (1e6 * percentile(durations, 0.99), len(durations)),
        "trace.wall_s": (traced, len(walls[True])),
        "trace.untraced_wall_s": (untraced, len(walls[False])),
        "trace.overhead_s": (traced - untraced, len(walls[True])),
    }
    metrics = {}
    print(f"{'metric':<48} {'median':>12} {'unit':<5} {'n':>6}")
    for name, unit, _better in per_layer:
        value, samples = derived.get(name) or (  # median_low keeps counts
            statistics.median_low(p.get(name, 0) for p in layer_passes),
            len(layer_passes))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<48} {value:>12.6g} {unit:<5} {samples:>6}")
    print(f"# tracing overhead, traced - untraced wall_s: "
          f"{traced - untraced:+.4f} s")
    if tracer.window_iterations:
        print(f"# relaxed iterations per window, all traced passes: "
              f"{tracer.window_iterations}")
    if tracer.missing:
        print(f"# not traced (absent from the program): "
              f"{', '.join(tracer.missing)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evoinc" / "__init__.py").is_file():
        print(f"bench: no evoinc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import PER_LAYER, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != REFERENCE_SEED:
        print(f"bench: record the reference at seed {REFERENCE_SEED}",
              file=sys.stderr)
        return 2
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = workloads.build_commands(args.workload, args.seed, ROOT, work)

    setup_times, setup_speeds = [], []
    before = host_probe()
    for _ in range(SETUP_REPS):
        cli, seconds = set_up(commands)
        after = host_probe()
        setup_times.append(seconds)
        setup_speeds.append((before + after) / 2 / PROBE_REF_S)
        before = after
    evoinc_file = Path(sys.modules["evoinc"].__file__).resolve()
    if SRC.resolve() not in evoinc_file.parents:
        print(f"bench: evoinc imported from {evoinc_file}, not {SRC}",
              file=sys.stderr)
        return 2

    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = {}
    if args.seed == stored.get("seed"):
        reference = stored.get("workloads", {}).get(args.workload, {})
    run = Run(workloads, commands, reference, args.record_reference)
    tracer = Tracer()
    walls, speeds, layer_passes = measure(cli, commands, run, tracer, args)
    if args.record_reference:
        stored = {"seed": REFERENCE_SEED,
                  "workloads": dict(stored.get("workloads", {}))}
        stored["workloads"][args.workload] = run.signatures
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True)
                             + "\n")

    print(f"# evoinc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(walls[False]) + len(walls[True])}")
    print("# " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"# closed loop, 1 client; host probe mean "
          f"{statistics.fmean(run.probes):.4f} s (min {min(run.probes):.4f}, "
          f"max {max(run.probes):.4f}, n={len(run.probes)}); times are "
          f"host-adjusted to read as seconds at a {PROBE_REF_S:g} s probe")
    print("# host probe seconds, in order: "
          + " ".join(f"{p:.4f}" for p in run.probes))
    if args.trace:
        metrics = report_layers(tracer, walls, speeds, layer_passes,
                                PER_LAYER)
        spans = OUT / f"{args.workload}-spans.jsonl"
        tracer.write_spans(spans)
        print(f"# {len(tracer.spans)} spans written to "
              f"{spans.relative_to(ROOT)}")
    else:
        metrics = report_end_to_end(commands, run, walls, speeds,
                                    (setup_times, setup_speeds))
    for traced, pass_walls in walls.items():
        if pass_walls:
            print(f"# {'traced' if traced else 'untraced'} raw pass times, "
                  "in order: " + " ".join(f"{w:.3f}" for w in pass_walls))
    print(f"# failed_frac={run.failed / run.attempted:g} "
          f"({run.failed}/{run.attempted} commands)")
    for problem in run.problems[:20]:
        print(f"# FAILED {problem}")
        print(f"bench: FAILED {problem}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
