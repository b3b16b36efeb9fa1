"""Benchmark of the qperminv CLI: three workloads, timed passes, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # every workload, per-layer figures
    python3 perfbench/run.py --workload avinv-trace --seed 3 --seconds 30 --trace 0

One workload runs in one process. It sets up (imports qperminv from ./src and
writes the workload's input files), then calls `qperminv.cli.main` in timed
passes with one worker until --seconds is used up, reads the peak resident
set size, and only then checks every pass's outputs against the independent
reference. With --trace 1 the passes alternate untraced and traced; the
traced ones report per-layer figures, and the difference of the two medians
is the tracing overhead. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

Numpy is imported only after the run's clock starts, so that set-up time
includes it as a user of the CLI would pay it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep-exhaustive", "avinv-trace", "lemma-random")
# set-ups in fresh interpreters, besides the run's own; setup_s is their median
SETUP_REPEATS = 14
SETUP_TIMEOUT_S = 60
# time a workload child may take beyond --seconds, for its set-up and checks
CHILD_MARGIN_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0, help="time to spend on timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", type=Path,
                   help="set up once into DIR in this interpreter and print the time it took")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup(name: str, seed: int, inputs: Path):
    """Import the CLI from the checkout and write the workload's input files."""
    src = ROOT / "src"
    if not (src / "qperminv" / "cli.py").is_file():
        raise SystemExit(f"error: no qperminv sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import qperminv.cli as cli
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported qperminv from {cli.__file__}, not from {src}")
    inputs.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name]
    return cli, workload, workload.write_inputs(inputs, seed)


def setup_elsewhere(name: str, seed: int, inputs: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(inputs),
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_pass(cli, argv: list[str]) -> dict:
    """One CLI invocation; its printed output is captured, not timed apart."""
    buf = io.StringIO()
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        error = None if rc == 0 else f"exit code {rc}"
    except Exception as exc:  # noqa: BLE001 - a crash is one failed operation
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    return {"wall": wall, "cpu": cpu, "error": error}


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    work = OUT / f"{name}-{os.getpid()}"
    cli, workload, ctx = setup(name, seed, work / "inputs")
    setups = [time.perf_counter() - started]
    for i in range(SETUP_REPEATS):
        setups.append(setup_elsewhere(name, seed, work / f"setup-{i}"))
    tracer = None
    if trace:
        from tracer import Tracer, metric_unit

        tracer = Tracer()

    passes = []
    layer_samples = []
    round_len = 2 if trace else 1
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        out = work / f"pass-{len(passes)}"
        out.mkdir(parents=True)
        if traced:
            tracer.reset()
            tracer.install()
        result = timed_pass(cli, workload.argv(ctx, out))
        if traced:
            tracer.uninstall()
            layer_samples.append(tracer.layer_metrics())
            spans_pass = len(passes)
        result.update(out=out, traced=traced)
        print(f"{name} pass {len(passes)}{' traced' if traced else ''}: wall {result['wall']:.3f} s, "
              f"cpu {result['cpu']:.3f} s", file=sys.stderr)
        passes.append(result)
        if len(passes) % round_len:
            continue
        per_round = statistics.median(p["wall"] for p in passes) * round_len
        if time.perf_counter() - begin + per_round > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl", trace_id=spans_pass)

    ref = workload.reference(ctx)
    failed, correct = 0, True
    for i, p in enumerate(passes):
        if p["error"]:
            problems = [p["error"]]
        else:
            try:
                problems = workload.check(ctx, ref, p["out"])
            except Exception as exc:  # noqa: BLE001 - malformed output fails the operation
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            correct = correct and not problems
        failed += bool(problems)
        for problem in problems[:20]:
            print(f"{name} pass {i}: {problem}", file=sys.stderr)
    shutil.rmtree(work)

    if trace:
        untraced = [p["wall"] for p in passes if not p["traced"]]
        traced_walls = [p["wall"] for p in passes if p["traced"]]
        metrics = {m: {"value": statistics.median(s[m] for s in layer_samples),
                       "unit": metric_unit(m)} for m in layer_samples[0]}
        # a broken zero-call prediction means the workload no longer measures
        # what README.md says it does
        for m in workload.zero_calls:
            holds = all(s[m] == 0 for s in layer_samples)
            correct = correct and holds
            print(f"{name}: prediction {m} == 0 {'holds' if holds else 'FAILS'}", file=sys.stderr)
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(untraced),
            "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": correct, "attempted": len(passes), "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so that peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=args.seconds + CHILD_MARGIN_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
              f"correct={str(result['correct']).lower()}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}/{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.setup_only:
        if args.workload == "all":
            raise SystemExit("error: --setup-only needs one --workload")
        setup(args.workload, args.seed, args.setup_only)
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
