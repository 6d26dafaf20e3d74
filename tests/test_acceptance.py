"""The acceptance gate: every release criterion, one [PASS]/[FAIL] line each.

Each test exercises one criterion at its stated tolerance and time budget
and records the outcome line; the collected lines are replayed in the
terminal summary.  Budgets are wall-clock on the machine running the suite.
"""

from __future__ import annotations

import contextlib
import doctest
import io
import json
import time
from pathlib import Path

import conftest
import pytest

from parlines.charclass import (
    LINE_SPECS,
    DimensionParams,
    check_corollary,
    check_prelude,
    check_theorem_a,
    check_theorem_a_v2,
    check_theorem_b,
    expected_outcome,
    oracle_umkehr_dual,
    oracle_umkehr_product,
    prop_q_max_degree,
)
from parlines.cli import main
from parlines.maps import builtin_map
from parlines.witness import (
    CASES,
    SearchConfig,
    WitnessRecord,
    estimate_singularity_dim,
    find_1d,
    search,
    theorem_guarantee,
    verify_witness,
)


def criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def case_b_map():
    return builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)


def test_key_coefficient_mixed_pairs():
    start = time.perf_counter()
    ok = True
    for m in range(1, 65):
        rep = check_theorem_b(m)
        ok = ok and rep.passed and rep.key_coefficient == 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    criterion(
        "theorem_b key coefficient = 1 and top part nonzero, m = 1..64",
        ok,
        f"{elapsed:.2f}s",
    )


def test_separated_pairs_boundary_and_agreement():
    start = time.perf_counter()
    ok = True
    for m in range(1, 65):
        rep = check_theorem_a(m)
        boundary = (m + 1) == (1 << (DimensionParams(m).r - 1))
        ok = ok and rep.passed == (not boundary)
        if boundary:
            with pytest.raises(ValueError):
                check_theorem_a_v2(m)
        else:
            ok = ok and check_theorem_a_v2(m).passed == rep.passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    criterion(
        "theorem_a passes iff m+1 != 2^(r-1) and matches theorem_a_v2, m = 1..64",
        ok,
        f"{elapsed:.2f}s",
    )


def test_corollary_sweep():
    ok = all(check_corollary(m).passed for m in range(1, 65))
    criterion("corollary key coefficient = 1, m = 1..64", ok)


def test_prelude_biconditional():
    ok = all(
        check_prelude(m, n).passed == (n <= m)
        for m in range(1, 33)
        for n in range(1, 33)
    )
    criterion("prelude nonzero iff n <= m, 1 <= m, n <= 32", ok)


def test_sharpness_top_degree():
    ok = all(
        prop_q_max_degree(m) == 2 * m + (1 << DimensionParams(m).q) for m in range(1, 32)
    )
    criterion("prop_q top nonzero degree = 2m + 2^q, m+1 = 2..32", ok)


def test_verify_classes_top_of_cli_range():
    # m = 4095 has the largest q (12) the CLI accepts, so the largest
    # prop_q series; m = 4096 is the top of the accepted range.
    start = time.perf_counter()
    ok = True
    reports = 0
    for m in (4095, 4096):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify-classes", "--m", str(m)])
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        checks = [line for line in lines if "check" in line]
        reports += len(checks)
        ok = ok and code == 0 and len(checks) == 6 and all(
            rep["m"] == m and rep["passed"] == expected_outcome(rep["check"], m)
            for rep in checks
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    criterion(
        "verify-classes --m 4095 and --m 4096 exit 0 with the expected outcomes",
        ok,
        f"{reports} reports, {elapsed:.2f}s",
    )


def test_verify_classes_sweep_budget():
    # Each m's prelude inverts 1 + t in P^m on the ring engine, by squaring.
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-classes", "--m-max", "1024"])
    elapsed = time.perf_counter() - start
    checks = [rep for rep in map(json.loads, out.getvalue().splitlines()) if "check" in rep]
    ok = code == 0 and len(checks) == 6 * 1024 and elapsed < 8.0 and all(
        rep["passed"] == expected_outcome(rep["check"], rep["m"]) for rep in checks
    )
    criterion(
        "verify-classes --m-max 1024 exits 0 in under 8 s",
        ok,
        f"{len(checks)} reports, {elapsed:.2f}s",
    )


def test_verify_classes_whole_accepted_range_budget():
    # The top of the accepted range: no series check builds a ring, so the
    # prelude's inverse is the only ring-engine work.
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-classes", "--m-max", "4096"])
    elapsed = time.perf_counter() - start
    checks = [rep for rep in map(json.loads, out.getvalue().splitlines()) if "check" in rep]
    ok = code == 0 and len(checks) == 6 * 4096 and elapsed < 12.0 and all(
        rep["passed"] == expected_outcome(rep["check"], rep["m"]) for rep in checks
    )
    criterion(
        "verify-classes --m-max 4096 exits 0 in under 12 s",
        ok,
        f"{len(checks)} reports, {elapsed:.2f}s",
    )


def test_table_top_sweep_budget():
    # table prints four columns per m, so it must not pay for the reports it
    # leaves out (the prelude's ring-engine inverse above all).
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["table", "--m-max", "1024"])
    elapsed = time.perf_counter() - start
    rows = out.getvalue().splitlines()[1:-1]
    ok = code == 0 and len(rows) == 1024 and elapsed < 8.0
    criterion("table --m-max 1024 exits 0 in under 8 s", ok, f"{len(rows)} rows, {elapsed:.2f}s")
    # The top of the accepted range: every m of one r reads one shared table.
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["table", "--m-max", "4096"])
    elapsed = time.perf_counter() - start
    rows = out.getvalue().splitlines()[1:-1]
    ok = code == 0 and len(rows) == 4096 and elapsed < 10.0
    criterion("table --m-max 4096 exits 0 in under 10 s", ok, f"{len(rows)} rows, {elapsed:.2f}s")


def test_product_direct_image_oracle():
    start = time.perf_counter()
    runs = 0
    ok = True
    for m1 in range(6):
        for m2 in range(6):
            for n in range(1, 9):
                for spec in LINE_SPECS:
                    runs += 1
                    ok = ok and oracle_umkehr_product(m1, m2, n, spec)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    criterion(
        "umkehr product oracle, m1, m2 <= 5, n <= 8, all 16 line classes",
        ok,
        f"{runs} instances, {elapsed:.2f}s",
    )


def test_oracle_grid_budget():
    # The benchmark's oracle grid: the base ring, the line inverses, the
    # inverse classes made from them and the line powers are shared per
    # column (m1, m2), and the line Euler classes per grid point, so the
    # 7,840 product instances stay cheap.
    argv = ["oracles", "--m1-max", "6", "--m2-max", "6", "--n-max", "10",
            "--dual-k", "24", "--dual-n-max", "20"]
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    elapsed = time.perf_counter() - start
    summary = json.loads(out.getvalue().splitlines()[-2])
    ok = code == 0 and summary["failures"] == 0 and elapsed < 2.5
    criterion(
        "oracles --m1-max 6 --m2-max 6 --n-max 10 --dual-k 24 --dual-n-max 20 in under 2.5 s",
        ok,
        f"{summary['product_instances']} + {summary['dual_instances']} instances, "
        f"{summary['failures']} failures, {elapsed:.2f}s",
    )


def test_dual_cap_shape_budget():
    # The dual oracle at the CLI's caps: 9,984 instances in P^64, nearly
    # all of whose homogeneous parts ask for a degree past the ring's top,
    # whose mask is 0 without a search.
    argv = ["oracles", "--m1-max", "0", "--m2-max", "0", "--n-max", "1",
            "--dual-k", "64", "--dual-n-max", "9984"]
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    elapsed = time.perf_counter() - start
    summary = json.loads(out.getvalue().splitlines()[-2])
    ok = code == 0 and summary["failures"] == 0 and elapsed < 6.0
    criterion(
        "oracles --m1-max 0 --m2-max 0 --n-max 1 --dual-k 64 --dual-n-max 9984 in under 6 s",
        ok,
        f"{summary['product_instances']} + {summary['dual_instances']} instances, "
        f"{summary['failures']} failures, {elapsed:.2f}s",
    )


def test_dual_power_identity():
    ok = all(oracle_umkehr_dual(20, n) for n in range(1, 17))
    criterion("umkehr dual identity t^(n+1) split, n = 1..16", ok)


def test_witness_case_b():
    f = case_b_map()
    cfg = SearchConfig(restarts=200, seed=7)
    start = time.perf_counter()
    rec = search(f, "b", cfg)
    elapsed = time.perf_counter() - start
    ver = verify_witness(rec, f, tol=1e-10)
    ok = (
        rec.found
        and rec.residual <= 1e-10
        and rec.pair_sets_distinct
        and ver.passed
        and elapsed < 60.0
    )
    criterion(
        "case b witness on random_poly(m=1, n=4, degree=3, map seed 42)",
        ok,
        f"residual {rec.residual:.3g}, {rec.restarts_used} restarts, {elapsed:.2f}s",
    )


def test_witness_case_a():
    f = builtin_map("random_poly", {"m": 2, "n": 5, "degree": 2}, seed=7)
    start = time.perf_counter()
    rec = search(f, "a", SearchConfig())
    elapsed = time.perf_counter() - start
    ok = (
        rec.found
        and rec.residual <= 1e-8
        and rec.min_pairwise_distance >= 0.05
        and elapsed < 300.0
    )
    criterion(
        "case a witness on random_poly(m=2, n=5, degree=2, map seed 7)",
        ok,
        f"residual {rec.residual:.3g}, min distance {rec.min_pairwise_distance:.3f}, "
        f"{elapsed:.2f}s",
    )


def test_witness_case_b_at_m_15():
    # R^16 -> R^47, guaranteed for case b: each term of the random quadric
    # has at most two factors, so eval_map gathers two columns, not 16.
    # Map seed 1, search seed 1 and the CLI's defaults; the 2 s budget was
    # fixed before this test first ran.
    start = time.perf_counter()
    f = builtin_map("random_poly", {"m": 15, "n": 46, "degree": 2}, seed=1)
    rec = search(f, "b", SearchConfig(seed=1))
    elapsed = time.perf_counter() - start
    ver = verify_witness(rec, f)
    ok = rec.found and ver.passed and elapsed < 2.0
    criterion(
        "case b witness on random_poly(m=15, n=46, degree=2, map seed 1) in under 2 s",
        ok,
        f"residual {rec.residual:.3g}, {rec.restarts_used} restarts, {elapsed:.2f}s",
    )


def test_constructive_1d():
    f = builtin_map("parabola")
    start = time.perf_counter()
    rec = find_1d(f, (-2.0, 2.0))
    elapsed = time.perf_counter() - start
    x0, x1, y0, y1 = (float(p[0]) for p in rec.points)
    slope_gap = abs((x0 + x1) - (y0 + y1))
    ok = (
        x0 < y0 < y1 < x1
        and rec.residual <= 1e-12
        and slope_gap <= 1e-10
        and elapsed < 1.0
    )
    criterion(
        "1-d construction on the parabola over [-2, 2]",
        ok,
        f"residual {rec.residual:.3g}, slope gap {slope_gap:.3g}, {elapsed:.3f}s",
    )


def test_determinism_byte_identical():
    f = case_b_map()
    cfg = SearchConfig(restarts=200, seed=7)
    first = search(f, "b", cfg).canonical()
    second = search(f, "b", cfg).canonical()
    ok = first == second
    criterion(
        "repeated search returns byte-identical canonical records",
        ok,
        f"{len(first)} bytes",
    )


def test_singularity_estimate_advisory():
    f = case_b_map()
    cfg = SearchConfig(restarts=20, seed=11)
    start = time.perf_counter()
    base = search(f, "collinear", cfg)
    est = None
    ok = base.found
    if ok:
        est = estimate_singularity_dim(f, base, n_samples=32, cfg=cfg)
        ok = est.expected_lower_bound == 5 and est.estimated_dim >= 5
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.5
    criterion(
        "advisory: estimated singular-set dimension >= 5 on the case b map, "
        "search and estimate in under 1.5 s",
        ok,
        ("base not found" if est is None else
         f"estimated {est.estimated_dim}, {est.samples} samples") + f", {elapsed:.2f}s",
    )


# The distinctness verify_witness must check per case.  The paper asks for
# four distinct points off the boundary m+1 = 2^(r-1), which the separated
# pairs of case a give, and on it only x0 != x1, y0 != y1 and
# {x0, x1} != {y0, y1}, the check of the mixed pairs of case b.
_DISTINCTNESS = {
    "parallel_b": {"pairs_nondegenerate", "pair_sets_distinct"},
    "parallel_a": {"points_distinct"},
    "collinear": {"points_distinct"},
    "linear_dependence": {"points_distinct"},
    "line_1d": {"ordering"},
}


def test_guaranteed_witnesses_across_dimensions():
    # Domain R^(m+1), m = 0..7, at the paper's codomain dimension m + 2^r,
    # with 2^(r-1) <= m+1 < 2^r: every r <= 3 and the first boundary of
    # r = 4; m = 0, 1, 3 and 7 are boundary cases, m = 7 being R^8 -> R^23.
    # The maps are random cubics at map seed 0 and the searches take the
    # CLI's defaults, fixed before this test first ran: a miss is a failure.
    start = time.perf_counter()
    ran, misses = [], []
    for m in range(8):
        r = next(k for k in range(1, 10) if m + 1 < 2**k)
        c = m + 2**r
        margs = ["--builtin", "random_poly", "--m", str(m), "--n", str(c - 1),
                 "--degree", "3", "--map-seed", "0"]
        f = builtin_map("random_poly", {"m": m, "n": c - 1, "degree": 3}, seed=0)
        for case in CASES:
            if not theorem_guarantee(f, case)[0]:
                continue
            if case == "line_1d":
                argv = ["find-1d", *margs]
            else:
                argv = ["find-witness", *margs, "--case", case]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            lines = [json.loads(line) for line in out.getvalue().splitlines()]
            rec = WitnessRecord.from_json_dict(next(line for line in lines if "points" in line))
            ver = verify_witness(rec, f)
            ran.append(f"m={m} {case}")
            if not (code == 0 and rec.found and ver.passed
                    and _DISTINCTNESS[case] <= set(ver.checks)):
                misses.append(f"m={m} {case}: exit {code}, {ver.messages}")
    elapsed = time.perf_counter() - start
    # 29 guaranteed cases: b, collinear and lindep everywhere, the 1-d
    # construction at m = 0 and separated pairs off the boundary, at m = 2,
    # 4, 5 and 6.
    ok = len(ran) == 29 and not misses and elapsed < 60.0
    criterion(
        "find-witness/find-1d succeed and verify_witness passes for every "
        "guaranteed case, R^(m+1) -> R^(m+2^r), m = 0..7",
        ok,
        f"{len(ran)} cases, {len(misses)} misses {misses}, {elapsed:.2f}s",
    )


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    criterion(
        "README >>> examples run as written",
        result.attempted > 0 and result.failed == 0,
        f"{result.attempted - result.failed}/{result.attempted} pass",
    )
