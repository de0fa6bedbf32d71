"""lexnet benchmark: times lexnet CLI commands in-process on generated workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 35 --trace 0

One process, no extra threads: set-up time and peak RSS are measured in
short child processes, everything else in this one. The last line of
standard output is a JSON object with the keys correct, attempted, failed
and metrics; the lines before it print every metric by name with its
unit. A full result file (with the Python version, nproc and platform)
is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "results"
PINNED = BENCH_DIR / "pinned.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

# End-to-end metrics reported in the final JSON line of an untraced run.
# total_s, the per-command times, extract_mb_per_s and failed_frac are
# printed and stored in the result file. The raw times drift with the
# host's load by more than any useful bound (see reference.py), the
# per-command ones exist only on some workloads and failed_frac is 0 on a
# healthy build, so compare.py gates them instead.
E2E_UNITS = {"setup_s": "s", "total_ref": "ref", "peak_rss_mb": "MB"}

_SETUP_CODE = """\
import sys, time
import lexnet.cli
lexnet.cli.run([])  # builds the parser; no command, so it exits 2 without work
sys.stdout.write(repr(time.monotonic()))
"""

_RSS_CODE = """\
import json, sys
from lexnet.cli import run
for argv in json.loads(sys.argv[1]):
    if run(argv) != 0:
        sys.exit(1)
"""


@contextmanager
def _cwd(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list[float]:
    """Seconds from spawning an interpreter to lexnet imported and its parser built."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE],
            env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout) - start)
    return samples


def measure_peak_rss(work: Path, wl: workloads.Workload) -> tuple[float, str | None]:
    """Peak RSS in MB of a child process running one iteration from the files on disk.

    The set-up children that ran before it only import lexnet, so the
    largest RSS of any child so far is this one's.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CODE, json.dumps(wl.commands)],
        cwd=work, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    problem = None
    if proc.returncode != 0:
        problem = f"peak-RSS child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    return peak_kib / 1024.0, problem


def run_iteration(run, work: Path, wl: workloads.Workload, tracer=None) -> dict:
    """One pass over the workload's commands; outputs are removed first."""
    for name in wl.outputs:
        (work / name).unlink(missing_ok=True)
    # a CLI invocation compiles the alias regex afresh; without this the
    # re module's cache would hide that cost after the first iteration
    re.purge()
    times: dict[str, float] = {}
    problem = None
    start = time.perf_counter()
    for argv in wl.commands:
        stderr = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stderr(stderr), redirect_stdout(stderr):
                if tracer is None:
                    code = run(argv)
                else:
                    with tracer.span(tracing.CLI_SPAN):
                        code = run(argv)
        except Exception as exc:  # the benchmark keeps going and counts the failure
            problem = f"{argv[0]} raised {exc!r}"
            break
        times[f"{argv[0]}_s"] = time.perf_counter() - t0
        if code != 0:
            problem = f"{argv[0]} exited {code}: {stderr.getvalue().strip()[-300:]}"
            break
    total = time.perf_counter() - start
    digest = None
    if problem is None:
        try:
            digest = workloads.output_digest(work, wl)
        except OSError as exc:
            problem = f"missing output: {exc}"
    return {"times": times, "total_s": total, "digest": digest, "problem": problem}


def timed_loop(seconds: float, step) -> None:
    """Call step() until the next call would end past `seconds`; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return


def percentile_summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"value": statistics.median(ordered), "n": n, "pct": None, "pct_value": None,
               "samples": values}
    if n > 10:
        summary["pct"] = round(100.0 * (n - 10) / n, 1)
        summary["pct_value"] = ordered[n - 11]
    return summary


def _pinned_digest(workload: str, seed: int) -> str | None:
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    return pinned["digests"].get(workload) if seed == pinned["seed"] else None


def bench(args, run) -> dict:
    """Generate inputs, check a warm-up iteration, then measure for args.seconds."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        wl = workloads.generate(args.workload, work, args.seed)
        result: dict = {}
        problems = []
        if not args.trace:
            result["setup"] = measure_setup()
            result["peak_rss_mb"], problem = measure_peak_rss(work, wl)
            problems += [problem] if problem else []
        with _cwd(work):
            warm = run_iteration(run, work, wl)
            problems += [warm["problem"]] if warm["problem"] else workloads.check(work, wl)
            pinned = _pinned_digest(args.workload, args.seed)
            if pinned is not None and warm["digest"] != pinned:
                problems.append(f"output sha256 {warm['digest']} differs from the pinned {pinned}")
            result["problems"] = problems
            result["digest"] = warm["digest"]
            plain: list[dict] = []
            traced: list[dict] = []
            tracers: list[tracing.Tracer] = []
            kernel: list[float] = []

            def step() -> None:
                if not args.trace:
                    t0 = time.perf_counter()
                    reference.kernel(args.workload)
                    kernel.append(time.perf_counter() - t0)
                plain.append(run_iteration(run, work, wl))
                if args.trace:
                    tracer = tracing.Tracer()
                    with tracing.patched(tracer):
                        it = run_iteration(run, work, wl, tracer)
                    it["layers"] = tracer.iteration_metrics()
                    traced.append(it)
                    tracers[:] = [tracer]  # spans of the last traced iteration

            timed_loop(args.seconds, step)
        result["iterations"] = plain
        result["traced"] = traced
        result["kernel"] = kernel
        if tracers:
            result["span_summary"] = tracers[0].summary()
            result["last_spans"] = tracers[0].spans
        result["corpus_bytes"] = wl.corpus_bytes
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(args, raw: dict) -> dict:
    """Count failures and reduce per-iteration samples to the reported metrics."""
    iterations = raw["iterations"] + raw["traced"]
    failures = list(raw["problems"])
    failed = 0
    for it in iterations:
        bad = it["problem"]
        if bad is None and it["digest"] != raw["digest"]:
            bad = "output bytes differ from the warm-up iteration"
        if bad:
            failures.append(bad)
        # a failed warm-up check or peak-RSS child fails every iteration
        if bad or raw["problems"]:
            failed += 1
    attempted = len(iterations)
    detail: dict[str, dict] = {}

    def add(name: str, unit: str, values: list[float]) -> None:
        if values:
            detail[name] = {"unit": unit, **percentile_summary(values)}

    plain = raw["iterations"]
    if args.trace:
        traced = raw["traced"]
        for name, unit, _ in tracing.LAYER_METRICS:
            if name != "trace.overhead_s":
                add(name, unit, [it["layers"][name] for it in traced])
        overhead = (statistics.median(it["total_s"] for it in traced)
                    - statistics.median(it["total_s"] for it in plain))
        add("trace.overhead_s", "s", [overhead])
        detail["trace.overhead_s"]["n"] = len(traced)
        reported = [name for name, _, _ in tracing.LAYER_METRICS]
    else:
        totals = [it["total_s"] for it in plain]
        add("setup_s", "s", raw["setup"])
        add("total_s", "s", totals)
        add("reference_kernel_s", "s", raw["kernel"])
        add("total_ref", "ref", [statistics.median(totals) / statistics.median(raw["kernel"])])
        detail["total_ref"]["n"] = len(totals)
        add("peak_rss_mb", "MB", [raw["peak_rss_mb"]])
        reported = list(E2E_UNITS)
    for key in sorted({k for it in plain for k in it["times"]}):
        add(key, "s", [it["times"][key] for it in plain if key in it["times"]])
    if raw["corpus_bytes"] and "extract_s" in detail:
        add("extract_mb_per_s", "MB/s",
            [raw["corpus_bytes"] / 1e6 / it["times"]["extract_s"] for it in plain if "extract_s" in it["times"]])
    add("failed_frac", "fraction", [failed / attempted])
    detail["failed_frac"]["n"] = attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "detail": detail,
        "reported": reported,
    }


def environment() -> dict:
    import lexnet

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "lexnet_version": lexnet.__version__,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_lexnet():
    """Import lexnet from this checkout's src/, never from anywhere else."""
    if not (SRC / "lexnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lexnet package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lexnet.cli

    if Path(lexnet.cli.__file__).resolve().parent != (SRC / "lexnet").resolve():
        raise SystemExit(f"perfbench: imported lexnet from {lexnet.cli.__file__}, not {SRC}")
    return lexnet.cli.run


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    run = import_lexnet()
    started = time.time()
    raw = bench(args, run)
    summary = summarize(args, raw)
    detail = summary["detail"]
    for name, entry in detail.items():
        pct = (f"p{entry['pct']:g} = {entry['pct_value']:.6g}" if entry["pct"] is not None
               else "no percentile with 10 samples beyond it")
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']} (median; {pct}; n = {entry['n']})")
    for failure in summary["failures"]:
        print(f"{args.workload} FAILED: {failure}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "environment": environment(),
        "digest": raw["digest"],
        **{k: summary[k] for k in ("correct", "attempted", "failed", "failures")},
        "metrics": detail,
    }
    if args.trace:
        record["span_summary"] = raw["span_summary"]
        record["spans"] = raw["last_spans"]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"result file: {path.relative_to(ROOT)}")

    metrics = {name: {"value": detail[name]["value"], "unit": detail[name]["unit"]}
               for name in summary["reported"]}
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
