"""The benchmark's three workloads, each a pass of CLI commands.

``WORKLOADS[name](seed)`` builds the pass from the seed; a run repeats it
unchanged, so every run of a seed measures the same inputs however many
passes fit in its time.  A pass calls ``ctx.run(metric, argv, check)`` once
per command, in order; ``check(code, stdout)`` returns failure messages
from ``refs``.
"""

from __future__ import annotations

import json
import os
import random

import refs

M_MAX = 40
# The series cost jumps where m+1 passes a power of two (m = 127, 255) and
# grows with m in between; the large m is drawn from a short range inside
# one such band, so its cost depends little on the seed.
LARGE_M = range(136, 144)
ORACLE_ARGV = ["oracles", "--m1-max", "6", "--m2-max", "6", "--n-max", "10",
               "--dual-k", "24", "--dual-n-max", "20"]
ORACLE_COUNTS = (7 * 7 * 10 * 16, 20)
# (m, n, degree, base map seed) of the two random_poly maps: R^2 -> R^5 is
# the critical dimension of theorem B (cases b, collinear, lindep), R^3 ->
# R^6 one where separated pairs (case a) are guaranteed.
MAP_B = (1, 4, 3, 42)
MAP_A = (2, 5, 2, 7)
# Consecutive map seeds per exact case: cases a/b stop after a restart or
# two, so one map alone gives a short time that depends on that map's luck.
EXACT_MAP_SEEDS = 2
# Collinear and lindep searches run every restart, and singularity runs a
# search per sample: these sizes keep a pass short enough to repeat.  Two
# map shifts (s = 38, 41) need 14 collinear restarts; every shift finds a
# lindep witness within 8.
COLLINEAR_RESTARTS = 16
LINDEP_RESTARTS = 8
SINGULARITY_SAMPLES = 12
WITNESS_SEEDS = 64


def classes_sweep(seed: int):
    """The large m is drawn from LARGE_M by the seed."""
    large_m = random.Random(seed).choice(LARGE_M)
    return lambda ctx: _classes_pass(ctx, large_m)


def _classes_pass(ctx, large_m: int) -> None:
    argv = ["verify-classes", "--m-max", str(M_MAX)]
    ctx.run("verify_classes_s", argv,
            lambda c, o: refs.check_verify_classes(c, o, argv, range(1, M_MAX + 1)))
    targv = ["table", "--m-max", str(M_MAX)]
    ctx.run("table_s", targv, lambda c, o: refs.check_table(c, o, targv, M_MAX))
    largv = ["verify-classes", "--m", str(large_m)]
    ctx.run("classes_large_m_s", largv,
            lambda c, o: refs.check_verify_classes(c, o, largv, [large_m]))


def oracle_grid(seed: int):
    """A fixed pass; the seed is unused."""
    return lambda ctx: ctx.run(
        "oracles_s", ORACLE_ARGV,
        lambda c, o: refs.check_oracles(c, o, ORACLE_ARGV, *ORACLE_COUNTS))


def witness_suite(seed: int):
    """A pass on maps shifted by s = seed mod WITNESS_SEEDS.  Every search
    here is a bounded multi-start heuristic; all its commands were checked
    to succeed for s in 0..63, so any seed gives a workload that can pass."""
    return lambda ctx: _witness_pass(ctx, seed % WITNESS_SEEDS)


def _map_args(m: int, n: int, degree: int, map_seed: int) -> list[str]:
    return ["--builtin", "random_poly", "--m", str(m), "--n", str(n),
            "--degree", str(degree), "--map-seed", str(map_seed)]


def _witness_pass(ctx, s: int) -> None:
    jobs = []  # (metric, record case, --case flag, map, map seed offset, flags)
    for j in range(EXACT_MAP_SEEDS):
        jobs.append(("find_witness_exact_s", "parallel_b", "b", MAP_B, j, ["--restarts", "200"]))
        jobs.append(("find_witness_exact_s", "parallel_a", "a", MAP_A, j, []))
    jobs.append(("find_witness_full_s", "collinear", "collinear", MAP_B, 0,
                 ["--restarts", str(COLLINEAR_RESTARTS)]))
    jobs.append(("find_witness_full_s", "linear_dependence", "lindep", MAP_B, 0,
                 ["--restarts", str(LINDEP_RESTARTS)]))
    records = []
    for metric, case, flag, (m, n, degree, base), j, extra in jobs:
        margs = _map_args(m, n, degree, base + s + j)
        coords = refs.random_poly_coords(m, n, degree, base + s + j)
        digest = refs.coords_digest(coords, m + 1)
        path = os.path.join(ctx.workdir, f"{flag}-{j}.json")
        argv = ["find-witness", *margs, "--case", flag, *extra, "--out", path]
        ctx.run(metric, argv,
                lambda c, o, argv=argv, case=case, coords=coords, digest=digest:
                refs.check_find_witness(c, o, argv, case, coords, digest))
        records.append((margs, path, m + 1, n + 1))
    for margs, path, _, _ in records:
        argv = ["verify-witness", *margs, "--record", path]
        ctx.run("verify_witness_s", argv,
                lambda c, o, argv=argv, path=path:
                refs.check_verify_witness(c, o, argv, _load(path)))
    margs, path, d, c = records[2 * EXACT_MAP_SEEDS]  # the collinear record
    argv = ["singularity", *margs, "--record", path, "--samples", str(SINGULARITY_SAMPLES)]
    ctx.run("singularity_s", argv,
            lambda code, o: refs.check_singularity(code, o, argv, _load(path), d, c))
    argv = ["find-1d", "--builtin", "parabola"]
    ctx.run("find_1d_s", argv, lambda c, o: refs.check_find_1d(c, o, argv))


def _load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


WORKLOADS = {
    "classes_sweep": classes_sweep,
    "oracle_grid": oracle_grid,
    "witness_suite": witness_suite,
}
