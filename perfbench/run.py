#!/usr/bin/env python3
"""Benchmark of `bernmod verify`: end-to-end timings and per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --quick    # every workload, tiny

Run from the root of a source checkout; nothing needs installing beyond
sympy, which only the output check uses.  With --trace 0 the benchmark runs
`python -m bernmod verify ... --no-timestamps` in fresh processes, one after
another, for S seconds, and reports the median wall time, CPU time and peak
resident set of those processes, plus the median set-up time.  With
--trace 1 it runs the workload once through tracer.py instead and reports the
per-layer figures.  Either way every report is then checked by check.py,
outside the timed region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A results file stamped with
the Python version, core count, git SHA and start method is written to
.perfbench_work/.

The workloads are fixed computations over fixed prime ranges, so --seed
changes no input; it is recorded in the results file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LAUNCHER = Path(__file__).with_name("launch.py")
PYTHON = sys.executable

ALL_IDS = list(check.SPEC)
BERNOULLI_IDS = ["conv_order_p1", "zhao_p3", "zhao_p5", "lev3_div_p1",
                 "lev3_div_p3", "lev3_div_p5", "glaisher",
                 "clausen_von_staudt"]

PROCESS_TIMEOUT_S = 120.0
IMPORT_SETUPS = 16
CACHE_SETUPS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    identities: list[str]  # empty means --identity all
    primes: tuple[int, int]
    quick_primes: tuple[int, int]
    jobs: int = 1
    warm_cache: bool = False  # set-up writes a Bernoulli cache; --cache reads it

    def ids(self) -> list[str]:
        return self.identities or ALL_IDS


# Why each workload is here is in BENCHMARK.json and perfbench/README.md.
# catalog_* use the ROADMAP's baseline range 5..199; bernoulli_warm needs
# B_0..B_802.
WORKLOADS = {w.name: w for w in (
    Workload("catalog_serial", [], (5, 199), (5, 31)),
    Workload("catalog_jobs2", [], (5, 199), (5, 31), jobs=2),
    Workload("bernoulli_warm", BERNOULLI_IDS, (5, 401), (5, 61),
             warm_cache=True),
)}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    digest: str = ""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    correct: bool = True


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BERNMOD_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the group is left (orphaned pool workers)."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    _kill_group(pgid)


def run_process(cmd: list[str], out_path: Path) -> Sample:
    """Run one command through launch.py, in a process group of its own.

    stdout goes to out_path, stderr next to it.  A command that outlives
    PROCESS_TIMEOUT_S is killed with its whole group and counts as failed.
    """
    err_path = out_path.with_suffix(".err")
    res_path = out_path.with_suffix(".rusage")
    _remove(res_path)
    proc = subprocess.Popen(
        [PYTHON, "-S", str(LAUNCHER), str(res_path), str(out_path),
         str(err_path), *cmd],
        env=_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
        start_new_session=True)
    timer = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        proc.wait()
    finally:
        timer.cancel()
        _wait_group_gone(proc.pid)
    if proc.returncode != 0 or not res_path.exists():
        return Sample(PROCESS_TIMEOUT_S, PROCESS_TIMEOUT_S, 0.0, False)
    wall, cpu, rss_kb, code = res_path.read_text().split()
    ok = code == "0" and b"Traceback" not in err_path.read_bytes()
    return Sample(float(wall), float(cpu), int(rss_kb) / 1024.0, ok)


def _verify_args(wl: Workload, primes: tuple[int, int], cache: Path | None,
                 jobs: int | None = None) -> list[str]:
    args = []
    for ident in wl.identities or ["all"]:
        args += ["--identity", ident]
    args += ["--primes", f"{primes[0]}..{primes[1]}",
             "--jobs", str(jobs or wl.jobs), "--no-timestamps"]
    if cache is not None:
        args += ["--cache", str(cache)]
    return args


def _verify_cmd(args: list[str]) -> list[str]:
    return [PYTHON, "-m", "bernmod", "verify", *args]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _remove(path: Path) -> None:
    path.unlink(missing_ok=True)


def table_need(primes: tuple[int, int]) -> int:
    """Largest Bernoulli index the Bernoulli-side identities use.

    lev3_div_* read B_2p; clausen_von_staudt always reads up to B_200.
    """
    return max(2 * primes[1], 200)


def setup(wl: Workload, work: Path, cache: Path | None,
          primes: tuple[int, int], count: int) -> list[float]:
    """Time `count` one-time preparations; leaves the warm cache in place.

    bernoulli_warm: a fresh `bernmod compute bernoulli N --cache PATH`
    process, which builds B_0..B_N and writes the file.  Every other
    workload: a fresh process that imports bernmod.cli (the catalog build
    included).
    """
    if wl.warm_cache:
        cmd = [PYTHON, "-m", "bernmod", "compute", "bernoulli",
               str(table_need(primes)), "--cache", str(cache)]
    else:
        cmd = [PYTHON, "-c", "import bernmod.cli"]
    times = []
    for _ in range(count):
        if wl.warm_cache:
            _remove(cache)
        s = run_process(cmd, work / "setup.out")
        if not s.ok:
            raise RuntimeError(f"set-up failed: {' '.join(cmd)}")
        times.append(s.wall_s)
    return times


def _check_outputs(wl: Workload, primes: tuple[int, int],
                   samples: list[Sample], outputs: dict[str, Path],
                   outcome: Outcome) -> None:
    """Check every distinct output once; count each process's points."""
    failed = {}
    for digest, path in outputs.items():
        _, failed[digest], problems = check.check_reports(
            str(path), wl.ids(), *primes)
        outcome.problems += problems[:20]
    expected = len(check.expected_points(wl.ids(), *primes))
    for s in samples:
        outcome.attempted += expected
        outcome.failed += failed[s.digest] if s.ok else expected


def _check_cache(path: Path, primes: tuple[int, int],
                 outcome: Outcome) -> None:
    problems = (check.check_cache(str(path), table_need(primes))
                if path.exists() else [f"{path.name} was not written"])
    if problems:
        outcome.correct = False
        outcome.problems += problems[:20]


def measure(wl: Workload, seconds: float, quick: bool,
            work: Path) -> tuple[dict, Outcome, list[Sample]]:
    """End-to-end metrics: fresh verify processes for `seconds` seconds."""
    primes = wl.quick_primes if quick else wl.primes
    cache = work / "bernoulli.cache" if wl.warm_cache else None
    repeats = CACHE_SETUPS if wl.warm_cache else IMPORT_SETUPS
    setup_times = setup(wl, work, cache, primes, (repeats + 1) // 2)
    outcome = Outcome()
    if wl.warm_cache:
        _check_cache(cache, primes, outcome)

    args = _verify_args(wl, primes, cache)
    samples: list[Sample] = []
    outputs: dict[str, Path] = {}
    start = time.perf_counter()
    while True:
        out = work / f"verify-{len(samples)}.out"
        s = run_process(_verify_cmd(args), out)
        s.digest = _digest(out)
        if s.digest in outputs:
            _remove(out)
        else:
            outputs[s.digest] = out
        samples.append(s)
        # stop before a run that would end past the measuring window
        if time.perf_counter() - start + s.wall_s > seconds:
            break

    _check_outputs(wl, primes, samples, outputs, outcome)
    if cache is not None:
        _check_cache(cache, primes, outcome)
    if wl.jobs > 1:
        # the parallel output must be byte-identical to a serial run's
        out = work / "serial.out"
        ref = run_process(_verify_cmd(_verify_args(wl, primes, cache,
                                                   jobs=1)), out)
        if not ref.ok or {s.digest for s in samples if s.ok} != {
                _digest(out)}:
            outcome.correct = False
            outcome.problems.append("--jobs output differs from --jobs 1")
    # the other half of the set-ups runs after the window: this host's speed
    # drifts over tens of seconds, and two sampling points steady the median
    setup_times += setup(wl, work, cache, primes, repeats // 2)

    good = [s for s in samples if s.ok] or samples
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in good), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in good), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in good), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return metrics, outcome, samples


def _run_tracer(args: list[str], work: Path, label: str,
                spans: bool) -> tuple[dict, Path, Sample]:
    result = work / f"trace-{label}.json"
    out = work / f"trace-{label}.out"
    cmd = [PYTHON, str(Path(__file__).with_name("tracer.py")),
           "--result", str(result), "--out", str(out)]
    if spans:
        cmd.append("--spans")
    s = run_process(cmd + ["--", *args], work / f"trace-{label}.log")
    data = json.loads(result.read_text()) if s.ok else None
    return data, out, s


def traced(wl: Workload, quick: bool,
           work: Path) -> tuple[dict, Outcome, list[Sample]]:
    """Per-layer metrics from one traced run (and its untraced twin)."""
    primes = wl.quick_primes if quick else wl.primes
    cache = work / "bernoulli.cache" if wl.warm_cache else None
    if wl.warm_cache:
        setup(wl, work, cache, primes, 1)
    args = _verify_args(wl, primes, cache)
    untraced, _, _ = _run_tracer(args, work, "plain", False)
    data, out, s_traced = _run_tracer(args, work, "spans", True)
    outcome = Outcome()
    samples = [s_traced]
    serial = None
    if wl.jobs > 1:
        serial, serial_out, s_serial = _run_tracer(
            _verify_args(wl, primes, cache, jobs=1), work, "serial", True)
        samples.append(s_serial)
    if untraced is None or data is None or (wl.jobs > 1 and serial is None):
        outcome.correct = False
        outcome.problems.append("a traced run failed")
    elif wl.jobs > 1 and serial_out.read_bytes() != out.read_bytes():
        outcome.correct = False
        outcome.problems.append("--jobs output differs from --jobs 1")
    if s_traced.ok:
        s_traced.digest = _digest(out)
        outputs = {s_traced.digest: out}
    else:
        outputs = {}
    _check_outputs(wl, primes, [s_traced], outputs, outcome)
    if cache is not None:
        _check_cache(cache, primes, outcome)
    if not outcome.correct:
        return {}, outcome, samples
    with open(out) as handle:
        points = sum(1 for _ in handle)
    values = tracer.layer_metrics(
        data, untraced, serial, wl.jobs, ALL_IDS,
        report_bytes=out.stat().st_size,
        cache_bytes=cache.stat().st_size if cache else 0, points=points)
    return ({name: (values[name], unit)
             for name, unit in tracer.per_layer_names(ALL_IDS)},
            outcome, samples)


def _stamp(args: argparse.Namespace) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "start_method": multiprocessing.get_start_method(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def run_workload(wl: Workload, args: argparse.Namespace) -> dict:
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        metrics, outcome, samples = traced(wl, args.quick, work)
    else:
        metrics, outcome, samples = measure(wl, args.seconds, args.quick,
                                            work)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": wl.name, "stamp": _stamp(args), **result,
              "samples": [vars(s) for s in samples],
              "problems": outcome.problems}
    name = f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n")
    for problem in outcome.problems:
        print(f"{wl.name}: {problem}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny prime ranges, to smoke-test the harness")
    args = parser.parse_args()
    if not (SRC / "bernmod" / "__init__.py").is_file():
        print(f"no bernmod sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args) for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:16} {metric:40} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
