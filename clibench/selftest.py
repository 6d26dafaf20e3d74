"""Self-test of the benchmark at tiny sizes; run from the checkout root:

    python3 clibench/selftest.py

Positive cases run real CLI commands through the benchmark's own runner and
must pass every check; negative cases doctor those outputs (a flipped key
coefficient, a wrong prop_q top degree, a witness point nudged by 1e-6, ...)
and must each be flagged.  The tracer is checked for restoring every name,
one span per outermost recursive call, null metrics for a missing name,
traced stdout equal to untraced stdout, and counts that repeat exactly.
Prints one line per case and exits 1 if any case fails.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import refs
import run
import workloads
from tracer import Tracer, _resolve

RESULTS: list[tuple[str, bool]] = []


def case(name: str, ok: bool) -> None:
    RESULTS.append((name, bool(ok)))
    print(f"[{'PASS' if ok else 'FAIL'}] {name}", flush=True)


def spawn(argv: list[str], trace: bool = False) -> dict:
    ctx = run.Context(trace, WORK, time.monotonic() + 120)
    return ctx._spawn(argv, trace)


def edit_line(stdout: str, index: int, fn) -> str:
    lines = stdout.splitlines()
    obj = json.loads(lines[index])
    fn(obj)
    lines[index] = json.dumps(obj)
    return "\n".join(lines) + "\n"


def symbolic() -> None:
    argv = ["verify-classes", "--m-max", "8"]
    rep = spawn(argv)
    out = rep["stdout"]
    check = lambda o: refs.check_verify_classes(0, o, argv, range(1, 9))  # noqa: E731
    case("verify-classes --m-max 8 matches the closed forms", not check(out))
    for idx, name in ((1, "theorem_b"), (3, "theorem_a_v2"), (4, "corollary")):
        bad = edit_line(out, 6 * 4 + idx, lambda o: o.update(coefficient=1 - o["coefficient"]))
        case(f"flipped {name} key coefficient is flagged", check(bad))
    bad = edit_line(out, 6 * 4 + 5, lambda o: o.update(
        detail=o["detail"].replace("max nonzero degree ", "max nonzero degree 1")))
    case("wrong prop_q top degree in verify-classes is flagged", check(bad))
    bad = edit_line(out, 6 * 6 + 2, lambda o: o.update(passed=True))  # m=7: m+1 = 8
    case("theorem_a passing at a power-of-two boundary is flagged", check(bad))
    case("a missing report line is flagged", check("\n".join(out.splitlines()[1:])))
    case("a wrong key monomial is flagged",
         check(edit_line(out, 1, lambda o: o.update(key_monomial="t*y"))))
    case("a wrong r is flagged", check(edit_line(out, 2, lambda o: o.update(r=o["r"] + 1))))
    case("a failed manifest outcome is flagged",
         check(edit_line(out, -1, lambda o: o["manifest"].update(outcome="failed"))))
    case("a non-zero exit code is flagged", refs.check_verify_classes(1, out, argv, range(1, 9)))

    margv = ["verify-classes", "--m", "15"]
    rep = spawn(margv)
    case("verify-classes --m 15 (boundary) matches", not refs.check_verify_classes(
        rep["code"], rep["stdout"], margv, [15]))

    targv = ["table", "--m-max", "8"]
    rep = spawn(targv)
    out = rep["stdout"]
    case("table --m-max 8 matches", not refs.check_table(rep["code"], out, targv, 8))
    lines = out.splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",99"
    case("wrong prop_q top in table is flagged",
         refs.check_table(0, "\n".join(lines), targv, 8))
    lines = out.splitlines()
    lines[3] = lines[3].replace(",na,", ",1,")  # m=3: m+1 = 4
    case("theorem_a not 'na' at m+1 = 4 is flagged",
         refs.check_table(0, "\n".join(lines), targv, 8))

    oargv = ["oracles", "--m1-max", "1", "--m2-max", "1", "--n-max", "2",
             "--dual-k", "4", "--dual-n-max", "3"]
    rep = spawn(oargv)
    counts = (2 * 2 * 2 * 16, 3)
    case("small oracle grid matches", not refs.check_oracles(
        rep["code"], rep["stdout"], oargv, *counts))
    bad = edit_line(rep["stdout"], 0, lambda o: o.update(failures=1))
    case("an oracle failure is flagged", refs.check_oracles(0, bad, oargv, *counts))
    case("a wrong instance count is flagged",
         refs.check_oracles(0, rep["stdout"], oargv, counts[0] + 1, counts[1]))


def witness() -> None:
    m, n, degree, seed = workloads.MAP_B
    margs = workloads._map_args(m, n, degree, seed)
    coords = refs.random_poly_coords(m, n, degree, seed)
    digest = refs.coords_digest(coords, m + 1)
    recs = {}
    for case_name, flag, extra in (("parallel_b", "b", ["--restarts", "200"]),
                                   ("collinear", "collinear", ["--restarts", "2"])):
        path = os.path.join(WORK, f"{flag}.json")
        argv = ["find-witness", *margs, "--case", flag, *extra, "--out", path]
        rep = spawn(argv)
        errs = refs.check_find_witness(rep["code"], rep["stdout"], argv, case_name, coords, digest)
        case(f"find-witness --case {flag} passes the record checks", not errs)
        with open(path, encoding="utf-8") as fh:
            recs[flag] = (path, json.load(fh))

    path, rec = recs["b"]
    vargv = ["verify-witness", *margs, "--record", path]
    rep = spawn(vargv)
    case("verify-witness accepts the case b record",
         not refs.check_verify_witness(rep["code"], rep["stdout"], vargv, rec))

    nudged = json.loads(json.dumps(rec))
    nudged["points"][0][0] += 1e-6
    case("a point nudged by 1e-6 is flagged by the record check",
         refs.check_record(nudged, "parallel_b", coords, digest))
    npath = os.path.join(WORK, "nudged.json")
    with open(npath, "w", encoding="utf-8") as fh:
        json.dump(nudged, fh)
    nargv = ["verify-witness", *margs, "--record", npath]
    rep = spawn(nargv)
    case("a point nudged by 1e-6 is flagged through CLI verify-witness",
         refs.check_verify_witness(rep["code"], rep["stdout"], nargv, nudged))
    other = refs.random_poly_coords(m, n, degree, seed + 1)
    case("a record checked against another map is flagged",
         refs.check_record(rec, "parallel_b", other, refs.coords_digest(other, m + 1)))
    case("found = false is flagged", refs.check_record(
        dict(rec, found=False), "parallel_b", coords, digest))
    stretched = json.loads(json.dumps(rec))
    stretched["config"]["x"] = [1.01 * a for a in stretched["config"]["x"]]
    case("a configuration off the unit sphere is flagged",
         refs.check_record(stretched, "parallel_b", coords, digest))

    cpath, crec = recs["collinear"]
    sargv = ["singularity", *margs, "--record", cpath, "--samples", "8"]
    rep = spawn(sargv)
    scheck = lambda o: refs.check_singularity(0, o, sargv, crec, m + 1, n + 1)  # noqa: E731
    case("singularity --samples 8 reaches the lower bound", not scheck(rep["stdout"]))
    bad = edit_line(rep["stdout"], 0, lambda o: o.update(estimated_dim=o["expected_lower_bound"] - 1))
    case("an estimate below the lower bound is flagged", scheck(bad))

    fargv = ["find-1d", "--builtin", "parabola"]
    rep = spawn(fargv)
    case("find-1d on the parabola passes", not refs.check_find_1d(rep["code"], rep["stdout"], fargv))
    bad = edit_line(rep["stdout"], 0, lambda o: o["points"].__setitem__(
        slice(2, 4), o["points"][3:1:-1]))
    case("find-1d with y0 > y1 is flagged", refs.check_find_1d(0, bad, fargv))


def runner() -> None:
    """Context accounting, with canned child reports instead of processes."""
    ctx = run.Context(False, WORK, time.monotonic() + 60)
    replies = iter([
        {"code": 0, "stdout": 'a\n{"manifest":{"wall_time_s":1.0}}\n'},
        {"code": 0, "stdout": 'a\n{"manifest":{"wall_time_s":2.0}}\n'},
        {"code": 0, "stdout": 'b\n{"manifest":{"wall_time_s":3.0}}\n'},
        ValueError("unparsable child output"),
    ])

    def fake(argv, trace):
        reply = next(replies)
        if isinstance(reply, Exception):
            raise reply
        return dict(reply, setup_s=0.1, main_s=0.2, wall_s=0.3, maxrss_mb=1.0, trace=None)

    ctx._spawn = fake
    for _ in range(4):
        ctx.run("x", ["cmd"], lambda c, o: [])
    case("wall time alone does not break byte identity; changed stdout does",
         len(ctx.failures) == 2 and "differs" in ctx.failures[0])
    case("a crashed command counts as failed", "unparsable" in ctx.failures[1])
    case("every failure counts in fail_ratio", ctx.attempted == 4 and len(ctx.failures) == 2)

    # two passes of "a" then "b", and a third "a"; "b" belongs to metric "y"
    ctx = run.Context(False, WORK, time.monotonic() + 60)
    times = iter([1.0, 5.0, 3.0, 4.0, 20.0])
    ctx._spawn = lambda argv, trace: {"code": 0, "stdout": argv[0], "setup_s": 0.1,
                                      "main_s": next(times), "wall_s": 0.0, "maxrss_mb": 1.0}
    for argv in (["a"], ["b"], ["a"], ["b"], ["a"]):
        ctx.run("y" if argv == ["b"] else "x", argv, lambda c, o: [])
    case("a pass is the sum of each command's median over its own runs",
         ctx.per_pass("main_s") == 3.0 + 4.5 and ctx.per_pass("main_s", "y") == 4.5)


def tracing() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import parlines.cli
    import parlines.jsonio

    tr = Tracer()
    before = {(id(o), a): o.__dict__[a] for spec in tr.spans for o, a in _owners(spec)}
    tr.install()
    patched = all(o.__dict__[a] is not before[(id(o), a)] for spec in tr.spans for o, a in _owners(spec))
    parlines.jsonio.canonical_json({"a": [1, {"b": [2.5, "c"]}]})
    parlines.jsonio.canonical_json([1])
    tr.uninstall()
    restored = all(o.__dict__[a] is before[(id(o), a)] for spec in tr.spans for o, a in _owners(spec))
    case("tracer patches every name and restores each on exit", patched and restored)
    case("a recursive canonical_json is one span per outermost call",
         tr.calls["jsonio.canonical_json"] == 2)

    spans = [("ghost.layer", [("cli", "no_such_function")], None)]
    ghost = Tracer(spans=spans)
    ghost.install()
    ghost.uninstall()
    ctx = run.Context(True, WORK, 0)
    ctx.traces = [ghost.snapshot()]
    ctx.traces[0]["absent"].append("f2ring.mul")
    layer = run.per_layer(ctx, 1)
    case("a missing public name gives a null metric with a note, not a crash",
         "ghost.layer" in ghost.absent and ghost.notes and layer["f2ring.mul_calls"] is None)

    argv = ["verify-classes", "--m-max", "4"]
    wargv = ["find-witness", *workloads._map_args(*workloads.MAP_B), "--case", "b",
             "--restarts", "200"]
    ctx = run.Context(True, WORK, time.monotonic() + 120)
    counts = []
    for _ in range(2):
        ctx.traces = []
        ctx.run("v", argv, lambda c, o: [])
        ctx.run("w", wargv, lambda c, o: [])
        counts.append(run.per_layer(ctx, 1))
    case("traced stdout equals untraced stdout", not ctx.failures)
    keys = ["f2ring.mul_calls", "f2ring.mul_term_pairs", "witness.nfev", "maps.eval_points",
            "witness.restarts", "charclass.check_calls", "jsonio.bytes_out"]
    case("count metrics repeat exactly between two traced runs",
         all(counts[0][k] == counts[1][k] and counts[0][k] > 0 for k in keys))


def _owners(spec):
    _, names, _ = spec
    for mod, path in names:
        yield _resolve(importlib.import_module(f"parlines.{mod}"), path)


def bare_directory() -> None:
    """In a directory holding only BENCHMARK.json and clibench/, the
    benchmark must exit non-zero without printing a result."""
    bare = os.path.join(WORK, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "clibench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", "oracle_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    case("a directory without the sources exits non-zero and prints no result",
         proc.returncode != 0 and not proc.stdout.strip())


WORK = os.path.join(run.ROOT, ".clibench_work", f"selftest-{os.getpid()}")


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    try:
        for part in (symbolic, witness, runner, tracing, bare_directory):
            part()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} self-test cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
