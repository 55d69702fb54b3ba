#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the skelcube command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Closed loop with one client: the harness starts one
`python -m skelcube.cli ...` child at a time, waits for it, checks its
answer and starts the next until the time budget is spent.  Every child
is a fresh interpreter, so the library's lru_cache memos start cold.

Times are reported in reference seconds.  The harness and its child are
pinned to one CPU, and while the child runs the harness repeats a fixed
calibration loop on that CPU.  The two share the core at millisecond
granularity, so both see the same core speed; the child's CPU time is
scaled by how fast the calibration loop ran meanwhile.  On a shared host
whose core speed drifts by tens of percent, this keeps the figures of
identical code within a few percent of each other.

--trace 0 reports the end-to-end metrics (medians over the children).
--trace 1 alternates untraced children with children run through
traced.py, and reports per-layer medians plus the tracing overhead.
The last line of stdout is one JSON object; see README.md for the
metrics and which layer should move which number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # before the first child and after each child
SETUP_MIN_CPU_S = 0.02  # one setup sample repeats the build for at least this long
STARTUP_REPEATS = 5
MIN_SAMPLES = 2  # per kind of child, traced or not
CHILD_TIMEOUT_S = 40.0  # 2 traced + 2 untraced timeouts still end within 180 s
REF_UNIT_S = 0.001  # nominal CPU seconds of one calibration_unit(): 1 ms by definition


# the graph of the 3-cube, as adjacency lists
CUBE_GRAPH = ((1, 3, 4), (0, 2, 5), (1, 3, 6), (0, 2, 7), (0, 5, 7), (1, 4, 6), (2, 5, 7), (3, 4, 6))


def calibration_unit() -> int:
    """Fixed pure-Python work, under 1 ms on a 2-vCPU Xeon VM.

    Counts the proper 3-colourings of the cube graph by recursive
    backtracking, then a few bit counts.  Of the loops tried (dict and
    string churn, integer row reduction, this), this one tracked the
    speed of all four workloads best.  It never touches skelcube, so no
    change to the program moves it.
    """
    colour = [-1] * 8
    used = set()

    def place(i: int) -> int:
        if i == 8:
            return 1
        total = 0
        for c in range(3):
            if any(colour[u] == c for u in CUBE_GRAPH[i] if u < i):
                continue
            colour[i] = c
            used.add((i, c))
            total += place(i + 1)
            used.discard((i, c))
            colour[i] = -1
        return total

    bits = [x.bit_count() for x in range(256) if (x ^ (x >> 1)) & 1]
    return place(0) + len(bits)


def calibrate(min_cpu_s: float) -> tuple[int, float]:
    """Run calibration units for at least min_cpu_s of CPU time: (units, CPU seconds)."""
    n = 0
    c0 = time.process_time()
    while True:
        calibration_unit()
        n += 1
        spent = time.process_time() - c0
        if spent >= min_cpu_s:
            return n, spent


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child it starts, to one CPU; None where unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    scale: float  # reference seconds per CPU second while the child ran
    error: str | None = None
    spans: dict | None = None

    @property
    def ref_s(self) -> float:
        return self.cpu_s * self.scale


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(cmd: list[str], workdir: Path) -> tuple[Sample, str]:
    """Run one child to completion, calibrating on the shared CPU until it exits.

    rusage comes from os.wait4 on the child's pid.
    """
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        units = 0
        c0 = time.process_time()
        timed_out = False
        try:
            while True:
                calibration_unit()
                units += 1
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not timed_out and time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                    timed_out = True
                    proc.kill()
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        scale = REF_UNIT_S * units / (time.process_time() - c0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    error = f"timed out after {CHILD_TIMEOUT_S:.0f} s" if timed_out else None
    cpu = usage.ru_utime + usage.ru_stime
    sample = Sample(wall, cpu, usage.ru_maxrss / 1024.0, code, scale, error)
    return sample, out_path.read_text()


def run_cli(prep: workloads.Prepared, workdir: Path, traced: bool) -> Sample:
    if prep.output_path is not None and os.path.exists(prep.output_path):
        os.remove(prep.output_path)
    spans_path = workdir / "spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), "--", *prep.argv]
    else:
        cmd = [sys.executable, "-m", "skelcube.cli", *prep.argv]
    sample, stdout = run_child(cmd, workdir)
    if sample.error is None:
        output = None
        if prep.output_path is not None and os.path.exists(prep.output_path):
            output = Path(prep.output_path).read_text()
        sample.error = workloads.check(prep, sample.exit_code, stdout, output)
    if traced and sample.error is None:
        sample.spans = json.loads(spans_path.read_text())
    return sample


def startup_s(workdir: Path, repeats: int) -> float:
    """Median reference time of a fresh interpreter importing skelcube.cli; the first also writes bytecode."""
    cmd = [sys.executable, "-c", "import skelcube.cli"]
    times = []
    for _ in range(repeats):
        sample, _ = run_child(cmd, workdir)
        if sample.exit_code != 0:
            raise RuntimeError("python -c 'import skelcube.cli' failed; see stderr.txt")
        times.append(sample.ref_s)
    return statistics.median(times)


# metric, span it is read from, how
LAYER_METRICS = (
    ("complex.delete_s", "complex.delete", "self"),
    ("complex.delete_faces", "complex.delete", "value"),
    ("complex.components_s", "complex.components", "self"),
    ("homology.profile_s", "homology.profile", "self"),
    ("homology.profile_calls", "homology.profile", "calls"),
    ("homology.gf2_rank_s", "homology.gf2_rank", "self"),
    ("homology.gf2_rank_calls", "homology.gf2_rank", "calls"),
    ("homology.relative_s", "homology.relative", "self"),
    ("homology.integer_rank_s", "homology.integer_rank", "self"),
    ("homology.integer_rank_entries", "homology.integer_rank", "value"),
    ("homology.snf_s", "homology.snf", "self"),
    ("homology.snf_entries", "homology.snf", "value"),
    ("reconstruct.enumerate_s", "reconstruct.enumerate", "self"),
    ("reconstruct.criterion_self_s", "reconstruct.criterion", "self"),
    ("reconstruct.candidates", "reconstruct.criterion", "calls"),
    ("reconstruct.accept_ratio", "reconstruct.criterion", "ratio"),
    ("manifold.local_profile_self_s", "manifold.local_profile", "self"),
    ("manifold.faces_scanned", "manifold.local_profile", "value"),
    ("embedding.search_s", "embedding.search", "self"),
    ("io.parse_s", "io.parse", "self"),
    ("io.serialize_s", "io.serialize", "self"),
)


def layer_metrics(trace: dict, scale: float) -> dict[str, float]:
    """Per-layer values of one traced child; self time = span minus its child spans.

    Spans are CPU seconds of the child; scale turns them into reference seconds.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    value: dict[str, int] = {}
    for i, (name, start, end, _, v) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + ((end - start) - child_time[i]) * scale
        calls[name] = calls.get(name, 0) + 1
        value[name] = value.get(name, 0) + (v or 0)
    installed = set(trace["installed"])
    out: dict[str, float] = {}
    for metric, span, kind in LAYER_METRICS:
        if span not in installed:
            continue  # the traced function is gone: absent, not zero
        n = calls.get(span, 0)
        if kind == "self":
            out[metric] = self_s.get(span, 0.0)
        elif kind == "calls":
            out[metric] = n
        elif kind == "value":
            out[metric] = value.get(span, 0)
        else:  # share of calls whose value is 1
            out[metric] = value.get(span, 0) / n if n else 0.0
    if trace["memo"] is not None:
        hits, lookups = trace["memo"]
        out["homology.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    return out


UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio", "_frac": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def timed_setup(sk, name: str, seed: int, workdir: Path, smoke: bool) -> tuple[workloads.Prepared, float]:
    """Build the inputs; the time of one build in reference seconds.

    The build is repeated until it has taken SETUP_MIN_CPU_S, so that the
    smallest inputs are not timed at the clock's grain.  Calibration runs
    just before and just after, for as much CPU time as the builds took,
    so all three see the same speed of the core.
    """
    builds = 0
    c0 = time.process_time()
    while True:
        prep = workloads.prepare(sk, name, seed, workdir, smoke)
        builds += 1
        spent = time.process_time() - c0
        if spent >= SETUP_MIN_CPU_S:
            break
    before = calibrate(spent)
    after = calibrate(spent)
    scale = REF_UNIT_S * (before[0] + after[0]) / (before[1] + after[1])
    return prep, spent * scale / builds


def run_workload(sk, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    setup_times: list[float] = []

    def set_up() -> workloads.Prepared:
        # Repeated between children, so the samples span the whole run.
        for _ in range(SETUP_SAMPLES):
            prep, spent = timed_setup(sk, name, seed, workdir, smoke)
            setup_times.append(spent)
        return prep

    try:
        prep = set_up()
        startup = startup_s(workdir, STARTUP_REPEATS if trace else 1)
        plain: list[Sample] = []
        traced: list[Sample] = []
        t_start = time.perf_counter()
        while True:
            side = traced if trace and len(traced) < len(plain) else plain
            side.append(run_cli(prep, workdir, traced=side is traced))
            prep = set_up()
            done = [*plain, *traced]
            elapsed = time.perf_counter() - t_start
            enough = len(plain) >= MIN_SAMPLES and (not trace or len(traced) >= MIN_SAMPLES)
            if enough and elapsed + elapsed / len(done) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    done = [*plain, *traced]
    errors = [s.error for s in done if s.error is not None]
    cli = statistics.median(s.ref_s for s in plain)
    if trace:
        per_child = [layer_metrics(s.spans, s.scale) for s in traced if s.spans is not None]
        names = sorted({m for layer in per_child for m in layer})
        values = {m: statistics.median(layer[m] for layer in per_child if m in layer) for m in names}
        values["cli.startup_s"] = startup
        values["trace.overhead_frac"] = statistics.median(s.ref_s for s in traced) / cli - 1.0
    else:
        values = {
            "cli_ref_s": cli,
            "peak_rss_mb": statistics.median(s.rss_mb for s in plain),
            "setup_s": statistics.median(setup_times),
        }
    raw = {
        "wall_s": statistics.median(s.wall_s for s in plain),
        "cpu_s": statistics.median(s.cpu_s for s in plain),
        "core_speed": statistics.median(s.scale for s in plain),
    }
    return {
        "correct": not errors,
        "attempted": len(done),
        "failed": len(errors),
        "errors": errors,
        "samples": {"untraced": len(plain), "traced": len(traced), "setup": len(setup_times)},
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in values.items()},
        "raw": raw,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
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


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def print_table(name: str, result: dict) -> None:
    n = result["samples"]
    print(f"{name}: {n['untraced']} untraced + {n['traced']} traced children, {n['setup']} setups")
    rows = [(metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
    rows.append(("failed_frac", result["failed"] / result["attempted"], "ratio"))
    raw = result["raw"]
    rows.append(("wall_s (core shared, raw)", raw["wall_s"], "s"))
    rows.append(("cpu_s (raw)", raw["cpu_s"], "s"))
    rows.append(("core_speed (vs reference)", raw["core_speed"], "ratio"))
    for metric, value, unit in rows:
        print(f"  {metric:<32} {value:>14.6g} {unit}")
    for error in result["errors"]:
        print(f"  failed: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs on the same CLI paths")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "skelcube" / "cli.py").is_file():
        print(f"perfbench: no skelcube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skelcube as sk

    env = environment()
    env["cpu_pinned"] = pin_to_one_cpu()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(sk, name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print_table(name, results[name])
    print("env " + json.dumps(env))
    if args.workload == "all":
        print(json.dumps({name: {**r, "env": env} for name, r in results.items()}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    r = results[args.workload]
    print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
