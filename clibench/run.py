"""Fresh-process CLI benchmark for parlines.

Usage (from the checkout root):

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop: each CLI command runs in a fresh interpreter
(``child.py``) that imports ``parlines`` from this checkout's ``src/`` and
times ``main()`` from inside.  Passes of the workload run until the next
would overrun ``--seconds``.  Every output is checked by ``refs``.
The second-to-last stdout line is a full report (environment, per-command
medians with tail and sample count, fail ratio, notes); the last line is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``, where each
command also runs traced and its stdout must equal the untraced one).
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
import time
from importlib import metadata

import refs
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
TIME_LIMIT_S = 160.0  # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Refused(RuntimeError):
    """The benchmark cannot run against this checkout."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in THREAD_VARS})
    return env


class Context:
    """Runs commands for the passes and keeps every sample and failure."""

    def __init__(self, trace: bool, workdir: str, deadline: float) -> None:
        self.trace = trace
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.first_stdout: dict[tuple, str] = {}
        self.setup_s: list[float] = []
        self.traced_main_s = 0.0
        self.untraced_main_s = 0.0
        self.traces: list[dict] = []
        self.notes: set[str] = set()
        # per distinct argv: its end-to-end metric and the samples of each
        # successful untraced run
        self.commands: dict[tuple, dict] = {}

    def _spawn(self, argv: list[str], trace: bool) -> dict:
        spawn_t = time.monotonic()
        if spawn_t >= self.deadline:
            raise TimeoutError("the run's time limit is reached")
        spec = {"root": ROOT, "argv": argv, "trace": trace, "spawn_t": spawn_t}
        proc = subprocess.run(  # on timeout, run() kills the child and waits for it
            [sys.executable, "-s", CHILD, json.dumps(spec)],
            capture_output=True, text=True, env=self.env, cwd=ROOT,
            timeout=self.deadline - spawn_t,
        )
        if proc.returncode == 3:
            raise Refused(proc.stderr.strip())
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        report = json.loads(proc.stdout)
        report["wall_s"] = time.monotonic() - spawn_t
        return report

    def run(self, metric: str, argv: list[str], check) -> None:
        """One command: spawn, time, check, compare with earlier passes."""
        key = tuple(argv)
        cmd = self.commands.setdefault(
            key, {"metric": metric, "wall_s": [], "main_s": [], "maxrss_mb": []})
        for traced in (False, True) if self.trace else (False,):
            self.attempted += 1
            label = ("traced " if traced else "") + " ".join(argv)
            try:
                rep = self._spawn(argv, traced)
                errs = check(rep["code"], rep["stdout"])
            except Refused:
                raise
            except Exception as exc:  # a crash or bad output is a failed command
                self.failures.append(f"{label}: {exc!r}")
                continue
            stripped = refs.strip_wall_time(rep["stdout"])
            if self.first_stdout.setdefault(key, stripped) != stripped:
                errs.append("stdout differs from the first run of this command"
                            + (" (traced vs untraced)" if traced else ""))
            if errs:
                self.failures.append(f"{label}: " + "; ".join(errs[:5]))
            if traced:
                self.traced_main_s += rep["main_s"]
                self.traces.append(rep["trace"])
                self.notes.update(rep["trace"]["notes"])
                continue
            self.untraced_main_s += rep["main_s"]
            self.setup_s.append(rep["setup_s"])
            for field in ("wall_s", "main_s", "maxrss_mb"):
                cmd[field].append(rep[field])

    def per_pass(self, field: str, metric: str | None = None) -> float:
        """Seconds per pass: the sum over the pass's commands (those of
        ``metric`` only, if given) of each one's median over its runs."""
        return sum(
            statistics.median(cmd[field]) for cmd in self.commands.values()
            if cmd[field] and metric in (None, cmd["metric"])
        )

    def peak_rss_mb(self) -> float:
        """The largest of the commands' median peak RSS."""
        return max((statistics.median(c["maxrss_mb"]) for c in self.commands.values()
                    if c["maxrss_mb"]), default=0.0)


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (None below 11 samples), and the sample count."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals) if vals else None, "n": n, "tail": None}
    if n >= 11:
        pct = 100 * (n - 10) // n
        out["tail"] = {"pct": pct, "value": vals[max(0, -(-pct * n // 100) - 1)]}
    return out


# (metric, tracer table, span group, counter): ``calls``, ``total_s`` and
# ``self_s`` are read at the group, ``counts`` at the counter.
LAYER_METRICS = [
    ("f2ring.mul_calls", "calls", "f2ring.mul", None),
    ("f2ring.mul_term_pairs", "counts", "f2ring.mul", "f2ring.mul_term_pairs"),
    ("f2ring.mul_s", "total_s", "f2ring.mul", None),
    ("f2ring.invert_calls", "calls", "f2ring.invert", None),
    ("f2ring.invert_terms_out", "counts", "f2ring.invert", "f2ring.invert_terms_out"),
    ("f2ring.invert_s", "total_s", "f2ring.invert", None),
    ("f2ring.ring_builds", "calls", "f2ring.ring_build", None),
    ("f2ring.ring_build_s", "total_s", "f2ring.ring_build", None),
    ("charclass.check_calls", "calls", "charclass.check", None),
    ("charclass.check_s", "total_s", "charclass.check", None),
    ("charclass.check_self_s", "self_s", "charclass.check", None),
    ("charclass.prop_q_max_degree_s", "total_s", "charclass.prop_q_max_degree", None),
    ("charclass.oracle_calls", "calls", "charclass.oracle", None),
    ("charclass.oracle_s", "total_s", "charclass.oracle", None),
    ("maps.eval_map_calls", "calls", "maps.eval_map", None),
    ("maps.eval_points", "counts", "maps.eval_map", "maps.eval_points"),
    ("maps.eval_map_s", "total_s", "maps.eval_map", None),
    ("witness.search_calls", "calls", "witness.search", None),
    ("witness.search_s", "total_s", "witness.search", None),
    ("witness.restarts", "counts", "witness.search", "witness.restarts"),
    ("witness.minimize_calls", "calls", "witness.minimize", None),
    ("witness.nfev", "counts", "witness.minimize", "witness.nfev"),
    ("witness.nit", "counts", "witness.minimize", "witness.nit"),
    ("witness.minimize_s", "total_s", "witness.minimize", None),
    ("witness.residual_calls", "calls", "witness.residual", None),
    ("witness.residual_s", "total_s", "witness.residual", None),
    ("witness.optimizer_self_s", "self_s", "witness.minimize", None),
    ("witness.singularity_s", "total_s", "witness.singularity", None),
    ("witness.verify_calls", "calls", "witness.verify", None),
    ("witness.verify_s", "total_s", "witness.verify", None),
    ("jsonio.canonical_json_calls", "calls", "jsonio.canonical_json", None),
    ("jsonio.canonical_json_s", "total_s", "jsonio.canonical_json", None),
    ("jsonio.bytes_out", "counts", "jsonio.canonical_json", "jsonio.bytes_out"),
    ("cli.commands", "calls", "cli.main", None),
    ("cli.self_s", "self_s", "cli.main", None),
]


def per_layer(ctx: Context, passes: int) -> dict:
    """Per-pass averages of the summed traces of every traced command;
    ``None`` for a group whose names no longer exist."""
    summed = {"calls": {}, "total_s": {}, "self_s": {}, "counts": {}}
    absent = set()
    for tr in ctx.traces:
        for table, dst in summed.items():
            for k, v in tr[table].items():
                dst[k] = dst.get(k, 0) + v
        absent.update(tr["absent"])
    out = {
        name: None if group in absent else summed[table].get(counter or group, 0) / passes
        for name, table, group, counter in LAYER_METRICS
    }
    counts = summed["counts"]
    tried = counts.get("witness.singularity_tried", 0)
    out["witness.singularity_accept_ratio"] = (
        None if "witness.singularity" in absent
        else counts.get("witness.singularity_accepted", 0) / tried if tried else 0.0
    )
    out["trace.overhead_ratio"] = (
        ctx.traced_main_s / ctx.untraced_main_s if ctx.untraced_main_s else None
    )
    return out


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def git_sha():
    """HEAD of the checkout, or None when it is not a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = time.monotonic()
    run_pass = WORKLOADS[name](seed)
    workdir = os.path.join(ROOT, ".clibench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(trace, workdir, start + TIME_LIMIT_S)
    passes = 0
    try:
        while True:
            run_pass(ctx)
            passes += 1
            elapsed = time.monotonic() - start
            if elapsed * (passes + 1) / passes > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    e2e = {
        "setup_s": statistics.median(ctx.setup_s) if ctx.setup_s else 0.0,
        "wall_s": ctx.per_pass("wall_s"),
        "main_s": ctx.per_pass("main_s"),
        "peak_rss_mb": ctx.peak_rss_mb(),
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "elapsed_s": time.monotonic() - start,
        "environment": environment(),
        "end_to_end": e2e,
        "setup_s": summary(ctx.setup_s),
        "commands_main_s": {
            metric: ctx.per_pass("main_s", metric)
            for metric in sorted({c["metric"] for c in ctx.commands.values()})
        },
        "argv_main_s": {" ".join(k): summary(c["main_s"]) for k, c in ctx.commands.items()},
        "attempted": ctx.attempted,
        "failed": len(ctx.failures),
        "fail_ratio": len(ctx.failures) / max(1, ctx.attempted),
        "failures": ctx.failures[:20],
        "notes": sorted(ctx.notes),
    }
    return report, per_layer(ctx, max(1, passes)) if trace else e2e


def declared_units() -> dict[str, dict[str, str]]:
    """{"end_to_end" | "per_layer": {metric: unit}} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "parlines", "cli.py")):
        sys.stderr.write(f"no parlines sources under {ROOT}/src; nothing to benchmark\n")
        return 2
    units = declared_units()["per_layer" if args.trace else "end_to_end"]
    try:
        report, values = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refused as exc:
        sys.stderr.write(f"refusing to run: {exc}\n")
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
