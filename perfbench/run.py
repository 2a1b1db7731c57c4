"""mjlstab benchmark: wall time of `mjls-stab` calls on named workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every call runs in a fresh interpreter, as a user runs the CLI, with
`--out` set so the artifact and its manifest are written, and is checked
against the stored references (check.py, refs.json). The program comes
from `src/` through PYTHONPATH; MJLS_STAB_THREADS and OPENBLAS_NUM_THREADS
are removed from the calls' environment so the program runs at its
defaults.

`--trace 0` runs every call of the workload once, then shares the rest of
`--seconds` among the subcommands (see `run_shared`), so a short call gets
many samples; it reports the end-to-end metrics from per-call medians. `--trace 1` runs one
plain pass over the calls, then traced passes (spans.py), and reports the
per-layer metrics (medians over traced passes) and the tracing overhead.
The last line of standard output is the result object; the line before it
is the run record (environment, failure share, outcome of the
known-failing models, and the problems found).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 10
# A median of three samples rejects one slow sample; a call that takes a
# fifth of the run or more averages the machine's noise within itself.
MIN_ROUNDS = 3
CALL_TIMEOUT_S = 60
RECORD_TIMEOUT_S = 4

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "inspect_s": "s",
    "robust_s": "s",
    "simulate_s": "s",
    "peak_rss_mb": "MB",
    "radii_off_ref": "count",
}

# Same entry point as the `mjls-stab` console script.
CLI = ["-c", "import sys; from mjlstab.cli import main; sys.exit(main())"]

BLAS_PROBE = r"""
import ctypes, json, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as fh:
    libs = {l.split()[-1] for l in fh if "blas" in l.lower() and ".so" in l}
for lib in sorted(libs):
    for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None and threads is None:
            threads = fn()
print(json.dumps({"numpy": np.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


class Call(NamedTuple):
    key: str        # reference key, also the call's label in the run record
    command: str
    argv: list
    ref: dict


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MJLS_STAB_THREADS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def run_process(argv, env, cwd, stdout_path, timeout):
    """Run argv to completion; returns (wall_s, exit_code, max_rss_mb).

    A call still running after `timeout` seconds is killed (exit code -9).
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_call(call: Call, i: int, env, work: Path, traced: bool) -> dict:
    """Run one call and check its output; returns one sample."""
    command, argv = call.command, call.argv
    out = work / f"call{i}.{'csv' if command == 'simulate' else 'json'}"
    stdout_path = work / f"call{i}.stdout"
    span_path = work / f"call{i}.spans.json"
    prog = ([sys.executable, str(HERE / "traced_cli.py"), str(span_path)]
            if traced else [sys.executable, *CLI])
    wall, code, rss = run_process(prog + [command, *argv, "--out", str(out)],
                                  env, work, stdout_path, CALL_TIMEOUT_S)
    problems, off = check.check_call(
        command, call.ref, code, stdout_path.read_text(errors="replace"), out)
    sample = {"wall": wall, "rss": rss, "off": off, "problems": problems}
    if traced:
        sample["spans"] = json.loads(span_path.read_text()) if span_path.exists() else []
    for path in (out, Path(f"{out}.manifest.json"), stdout_path, span_path):
        path.unlink(missing_ok=True)
    return sample


def run_passes(calls, env, work: Path, traced: bool, seconds: float, start: float) -> list:
    """Passes over all calls, the first always, the others while the next
    pass is expected to end within `seconds` of `start`. A pass holds one
    sample per call."""
    done = []
    while True:
        t = time.perf_counter()
        done.append([run_call(call, i, env, work, traced) for i, call in enumerate(calls)])
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return done


def run_shared(calls, env, work: Path, seconds: float, start: float) -> list:
    """Samples per call. Every call runs once. Then, of the subcommands
    whose calls' median wall times add up to less than the time left before
    `seconds` after `start`, one runs each of its calls again: first the
    subcommands with fewer than MIN_ROUNDS rounds that take under a fifth of
    `seconds` a round (fewest rounds first, then the longest round, so the
    short ones fill the end), then the one with the least time spent so
    far. Returns one sample list per call."""
    samples = [[run_call(call, i, env, work, False)] for i, call in enumerate(calls)]
    groups = {}
    for i, call in enumerate(calls):
        groups.setdefault(call.command, []).append(i)

    def spent(group):
        return sum(s["wall"] for i in group for s in samples[i])

    def need(group):
        return sum(statistics.median(s["wall"] for s in samples[i]) for i in group)

    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [group for group in groups.values() if need(group) < left]
        if not fits:
            return samples
        few = [group for group in fits
               if len(samples[group[0]]) < MIN_ROUNDS and need(group) < seconds / 5]
        if few:
            group = min(few, key=lambda group: (len(samples[group[0]]), -need(group)))
        else:
            group = min(fits, key=spent)
        for i in group:
            samples[i].append(run_call(calls[i], i, env, work, False))


def time_imports(env, work: Path, repeats: int) -> list:
    """Wall times of fresh interpreters importing mjlstab.cli."""
    argv = [sys.executable, "-c", "import mjlstab.cli"]
    times = []
    for _ in range(repeats):
        wall, code, _ = run_process(argv, env, work, work / "setup.stdout", CALL_TIMEOUT_S)
        if code != 0:
            raise RuntimeError("importing mjlstab.cli failed")
        times.append(wall)
    return times


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(env, work: Path) -> dict:
    probe = work / "probe.stdout"
    _, code, _ = run_process([sys.executable, "-c", BLAS_PROBE], env, work, probe, 60)
    info = json.loads(probe.read_text()) if code == 0 else {}
    sources = b"".join(p.read_bytes() for p in sorted((SRC / "mjlstab").glob("*.py")))
    return {
        "git_rev": git_rev(),
        "source_sha256": check.sha256(sources),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **info,
        "env_set": {k: k in os.environ for k in ("MJLS_STAB_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def record_outcomes(env, work: Path, variant: int) -> dict:
    """Outcome of `analyze --dedup` on the models that do not pass yet."""
    outcomes = {}
    paths = workloads.write_inputs(work, variant, workloads.RECORD_INPUTS)
    for name, path in paths.items():
        span_path = work / f"{name}.spans.json"
        stdout_path = work / f"{name}.stdout"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_path),
                "analyze", "--dedup", "--model", path, "--out", str(work / f"{name}.out")]
        wall, code, _ = run_process(argv, env, work, stdout_path, RECORD_TIMEOUT_S)
        if code == -9:
            outcomes[name] = {"outcome": "timeout", "limit_s": RECORD_TIMEOUT_S}
            continue
        try:
            doc = json.loads(stdout_path.read_text())
            errors = [s["error"] for s in json.loads(span_path.read_text())
                      if s["name"] == "cli.cmd_analyze" and "error" in s]
        except (ValueError, OSError):
            doc, errors = {}, []
        outcomes[name] = {"exit": code, "wall_s": wall, "verdict": doc.get("overall"),
                          "error_class": errors[0] if errors else None,
                          "error": doc.get("error")}
    return outcomes


def resolve_calls(workload: str, work: Path, variant: int, refs: dict) -> list:
    paths = workloads.write_inputs(work, variant)
    calls = []
    for command, template in workloads.WORKLOADS[workload]:
        key = workloads.ref_key(command, template, variant)
        calls.append(Call(key, command, workloads.expand(template, paths, variant),
                          refs[key]))
    return calls


def pass_wall(one_pass) -> float:
    return sum(s["wall"] for s in one_pass)


def call_metrics(calls, samples) -> dict:
    """End-to-end metrics: per call, the median wall time of its samples,
    summed per subcommand; the largest per-call median RSS; the radii off
    the reference, counted once per call."""
    wall = [statistics.median(s["wall"] for s in done) for done in samples]
    values = {f"{c}_s": sum(w for w, call in zip(wall, calls) if call.command == c)
              for c in workloads.SUBCOMMANDS}
    values["peak_rss_mb"] = max(statistics.median(s["rss"] for s in done)
                                for done in samples)
    values["radii_off_ref"] = sum(statistics.median(s["off"] for s in done)
                                  for done in samples)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mjlstab" / "cli.py").is_file():
        print(f"perfbench: no mjlstab sources under {SRC}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    variant = args.seed % workloads.VARIANTS
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        env = child_env()
        calls = resolve_calls(args.workload, work, variant, refs)
        record = {"workload": args.workload, "seed": args.seed, "variant": variant,
                  "trace": args.trace, **environment(env, work)}
        record["outcomes"] = record_outcomes(env, work, variant)
        if args.trace:
            start = time.perf_counter()
            base = run_passes(calls, env, work, False, 0, start)
            traced = run_passes(calls, env, work, True, args.seconds, start)
            layers = [spans.layer_metrics([s["spans"] for s in p]) for p in traced]
            units = dict(spans.LAYER_METRICS, **{"trace.overhead_s": "s"})
            values = {name: statistics.median(m[name] for m in layers)
                      for name in spans.LAYER_METRICS}
            values["trace.overhead_s"] = (
                statistics.median(pass_wall(p) for p in traced) - pass_wall(base[0]))
            samples = [list(done) for done in zip(*base, *traced)]
        else:
            # half the imports before the calls and half after, so a load
            # change on the machine during the run shows in both halves;
            # the first import is untimed and writes the bytecode caches
            setup = time_imports(env, work, 1 + SETUP_REPEATS // 2)[1:]
            samples = run_shared(calls, env, work, args.seconds, time.perf_counter())
            setup += time_imports(env, work, SETUP_REPEATS - len(setup))
            units = END_TO_END
            values = call_metrics(calls, samples)
            values["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(done) for done in samples)
    failed = sum(bool(s["problems"]) for done in samples for s in done)
    record.update(
        call_wall_s={c.key: [round(s["wall"], 4) for s in done]
                     for c, done in zip(calls, samples)},
        failed_frac={"value": failed / attempted, "unit": "ratio", "base": attempted},
        problems=[{"call": c.key, "problems": s["problems"]}
                  for c, done in zip(calls, samples) for s in done if s["problems"]][:20],
    )
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        metrics[name] = {"value": round(value) if unit in ("count", "bytes") else value,
                         "unit": unit}
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
