"""End-to-end CLI tests driven through main(argv) with captured stdout."""

from __future__ import annotations

import csv
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import parlines
from parlines import charclass, cli
from parlines.charclass import DimensionParams, all_checks
from parlines.cli import main
from parlines.jsonio import canonical_json
from parlines.maps import MapDescriptor, builtin_map, eval_map, map_digest
from parlines.witness import Configuration, collinear_residual, record_points


def run_cli(capsys, *argv, parse_lines=True):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = None
    if parse_lines:
        lines = [json.loads(line) for line in out.strip().splitlines()]
    return code, lines, out


def write_json(path, obj) -> str:
    path.write_text(canonical_json(obj) + "\n", encoding="utf-8")
    return str(path)


def scalar_map_file(tmp_path):
    # R^2 -> R^1: every image difference is "parallel", so searches close fast.
    return write_json(
        tmp_path / "scalar.json",
        {
            "domain_dim": 2,
            "codomain_dim": 1,
            "coords": [[{"c": 1.0, "e": [1, 0]}, {"c": 0.5, "e": [0, 1]}]],
        },
    )


def linear_r2_r3() -> MapDescriptor:
    return MapDescriptor(
        2, 3,
        (((1.0, (1, 0)),), ((1.0, (0, 1)),), ((1.0, (1, 0)), (1.0, (0, 1)))),
    )


def exact_collinear_record_dict(f: MapDescriptor) -> dict:
    e1 = np.array([1.0, 0.0])
    config = Configuration(x=e1, u=e1, v=e1, delta=0.25)
    pts = record_points("collinear", config)
    residual = collinear_residual(*eval_map(f, np.stack(pts)))
    return {
        "case": "collinear",
        "found": True,
        "points": [[float(a) for a in p] for p in pts],
        "residual": residual,
        "min_pairwise_distance": 0.5,
        "pair_sets_distinct": True,
        "config": config.to_json_dict(),
        "map_digest": map_digest(f),
        "seed": 0,
        "restarts_used": 0,
    }


# -- verify-classes ---------------------------------------------------------------


def test_verify_classes_single_m(capsys):
    code, lines, _ = run_cli(capsys, "verify-classes", "--m", "2")
    assert code == 0
    reports, manifest = lines[:-1], lines[-1]
    assert [rep["check"] for rep in reports] == [
        "prelude", "theorem_b", "theorem_a", "theorem_a_v2", "corollary", "prop_q",
    ]
    assert all(rep["passed"] for rep in reports)
    assert [rep["key_monomial"] for rep in reports] == [
        "t^2", "y^2*x", "t*y^2*x", "t*y^2", "y^2", "s^5",
    ]
    assert manifest["manifest"]["outcome"] == "ok"
    assert manifest["manifest"]["tool"] == "parlines"


def test_verify_classes_boundary_m_still_exits_zero(capsys):
    code, lines, _ = run_cli(capsys, "verify-classes", "--m", "1")
    assert code == 0
    by_check = {rep["check"]: rep for rep in lines[:-1]}
    assert not by_check["theorem_a"]["passed"]
    assert "not applicable" in by_check["theorem_a"]["detail"]
    assert not by_check["theorem_a_v2"]["passed"]
    assert by_check["theorem_b"]["passed"]


def test_verify_classes_sweep(capsys):
    code, lines, _ = run_cli(capsys, "verify-classes", "--m-max", "4")
    assert code == 0
    assert len(lines) == 4 * 6 + 1
    assert [rep["m"] for rep in lines[:-1]] == [m for m in (1, 2, 3, 4) for _ in range(6)]


def test_verify_classes_rejects_bad_m(capsys):
    code, lines, _ = run_cli(capsys, "verify-classes", "--m", "0")
    assert code == 2
    assert lines[0] == {"error": "m must lie in 1..4096"}
    assert lines[-1]["manifest"]["outcome"].startswith("invalid input")


def test_verify_classes_group_is_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["verify-classes", "--m", "2", "--m-max", "3"])
    capsys.readouterr()


# -- table -------------------------------------------------------------------------


def test_table_csv(capsys):
    code, _, out = run_cli(capsys, "table", "--m-max", "8", parse_lines=False)
    # The trailing manifest line is JSON; everything before it is the CSV.
    csv_lines = out.strip().splitlines()
    assert code == 0
    assert csv_lines[0] == "m,r,q,n,theorem_a,theorem_b,corollary,prop_q_top"
    assert csv_lines[1] == "1,2,1,4,na,1,1,4"
    assert csv_lines[3] == "3,3,2,10,na,1,1,10"
    assert csv_lines[8] == "8,4,0,23,1,1,1,17"
    assert json.loads(csv_lines[9])["manifest"]["outcome"] == "ok"


def test_table_jsonl(capsys):
    code, lines, _ = run_cli(capsys, "table", "--m-max", "3", "--format", "jsonl")
    assert code == 0
    rows = lines[:-1]
    assert [row["prop_q_top"] for row in rows] == [4, 5, 10]
    assert rows[0]["theorem_a"] == "na" and rows[1]["theorem_a"] == "1"


def _row_from_reports(m: int) -> dict:
    """A table row as the six reports of verify-classes give it."""
    reps = {rep.check: rep for rep in all_checks(m)}
    b = reps["theorem_b"]
    # A passing prop_q report is queried at the top nonzero degree.
    assert reps["prop_q"].passed
    return {
        "m": m,
        "r": b.r,
        "q": b.q,
        "n": b.n,
        "theorem_a": "na" if DimensionParams(m).boundary else str(int(reps["theorem_a"].passed)),
        "theorem_b": str(int(b.passed)),
        "corollary": str(int(reps["corollary"].passed)),
        "prop_q_top": reps["prop_q"].n,
    }


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_table_rows_match_the_verify_classes_reports(capsys, fmt):
    code, _, out = run_cli(capsys, "table", "--m-max", "128", "--format", fmt,
                           parse_lines=False)
    assert code == 0
    lines = out.strip().splitlines()[:-1]
    if fmt == "csv":
        rows = list(csv.DictReader(lines))
        expected = [{k: str(v) for k, v in _row_from_reports(m).items()} for m in range(1, 129)]
    else:
        rows = [json.loads(line) for line in lines]
        expected = [_row_from_reports(m) for m in range(1, 129)]
    assert rows == expected


def test_table_runs_only_the_checks_it_prints(capsys, monkeypatch):
    _, _, before = run_cli(capsys, "table", "--m-max", "40", parse_lines=False)

    def unused(*args):
        raise AssertionError("table does not print this check")

    for name in ("check_prelude", "check_theorem_a_v2", "check_prop_q"):
        monkeypatch.setattr(charclass, name, unused)
    code, _, after = run_cli(capsys, "table", "--m-max", "40", parse_lines=False)
    assert code == 0
    assert after.splitlines()[:-1] == before.splitlines()[:-1]


# -- oracles -----------------------------------------------------------------------


def test_oracles_narrow_grid(capsys):
    code, lines, _ = run_cli(
        capsys, "oracles", "--m1-max", "1", "--m2-max", "1", "--n-max", "2",
        "--dual-n-max", "4", "--dual-k", "6",
    )
    assert code == 0
    summary, manifest = lines[-2], lines[-1]
    assert summary == {
        "check": "oracles",
        "product_instances": 2 * 2 * 2 * 16,
        "dual_instances": 4,
        "failures": 0,
    }
    assert len(lines) == 2  # no per-instance failure lines
    assert manifest["manifest"]["outcome"] == "ok"


def test_oracles_failure_path(capsys, monkeypatch):
    bad = (1, 0, 2, ((1, 0), (0, 1)))
    real = cli.oracle_umkehr_product
    monkeypatch.setattr(
        cli,
        "oracle_umkehr_product",
        lambda m1, m2, n, spec: (m1, m2, n, spec) != bad and real(m1, m2, n, spec),
    )
    code, lines, _ = run_cli(
        capsys, "oracles", "--m1-max", "1", "--m2-max", "1", "--n-max", "2",
        "--dual-n-max", "4", "--dual-k", "6",
    )
    assert code == 1
    failed = [line for line in lines if line.get("agrees") is False]
    assert failed == [
        {
            "oracle": "umkehr_product",
            "m1": 1,
            "m2": 0,
            "n": 2,
            "line_spec": [[1, 0], [0, 1]],
            "agrees": False,
        }
    ]
    summary, manifest = lines[-2], lines[-1]
    assert summary["failures"] == 1
    assert summary["product_instances"] == 2 * 2 * 2 * 16
    assert manifest["manifest"]["outcome"] == "failed"
    assert len(lines) == 3


# -- find-witness / verify-witness ---------------------------------------------------


def test_find_witness_instant_collinear(tmp_path, capsys):
    path = scalar_map_file(tmp_path)
    code, lines, _ = run_cli(
        capsys, "find-witness", "--map", path, "--case", "collinear",
        "--restarts", "3", "--max-iters", "60", "--seed", "4",
    )
    assert code == 0
    note, rec, manifest = lines
    assert note["note"] in ("guaranteed", "exploratory")
    assert rec["found"] and rec["residual"] == 0.0
    assert rec["restarts_used"] == 1  # a residual within tol, here 0, stops the search
    assert manifest["manifest"]["seed"] == 4


def test_find_witness_out_file_matches_stdout(tmp_path, capsys):
    path = scalar_map_file(tmp_path)
    out_file = tmp_path / "rec.json"
    code, _, out = run_cli(
        capsys, "find-witness", "--map", path, "--case", "b",
        "--restarts", "2", "--max-iters", "60", "--out", str(out_file),
    )
    assert code == 0
    record_line = out.strip().splitlines()[1]
    assert out_file.read_text(encoding="utf-8") == record_line + "\n"


def test_find_witness_deterministic_across_runs(tmp_path, capsys):
    path = scalar_map_file(tmp_path)
    outs = []
    for name in ("a.json", "b.json"):
        out_file = tmp_path / name
        code, _, _ = run_cli(
            capsys, "find-witness", "--map", path, "--case", "b",
            "--restarts", "2", "--max-iters", "60", "--seed", "3",
            "--out", str(out_file),
        )
        assert code == 0
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]


def test_find_witness_map_source_validation(tmp_path, capsys):
    code, lines, _ = run_cli(capsys, "find-witness", "--case", "b")
    assert code == 2 and "map is required" in lines[0]["error"]

    path = scalar_map_file(tmp_path)
    code, lines, _ = run_cli(
        capsys, "find-witness", "--map", path, "--builtin", "parabola",
        "--case", "b",
    )
    assert code == 2 and "not both" in lines[0]["error"]

    code, lines, _ = run_cli(
        capsys, "find-witness", "--builtin", "random_poly", "--m", "1",
        "--n", "2", "--degree", "2", "--case", "b", "--restarts", "2",
    )
    assert code == 2 and "seed" in lines[0]["error"]


def test_verify_witness_roundtrip(tmp_path, capsys):
    path = scalar_map_file(tmp_path)
    rec_file = tmp_path / "rec.json"
    code, _, _ = run_cli(
        capsys, "find-witness", "--map", path, "--case", "collinear",
        "--restarts", "2", "--max-iters", "60", "--out", str(rec_file),
    )
    assert code == 0
    code, lines, _ = run_cli(
        capsys, "verify-witness", "--map", path, "--record", str(rec_file),
    )
    assert code == 0
    assert lines[0]["passed"] is True
    assert lines[0]["checks"]["digest_matches"] is True

    data = json.loads(rec_file.read_text(encoding="utf-8"))
    data["points"][0][0] += 0.5
    tampered = write_json(tmp_path / "tampered.json", data)
    code, lines, _ = run_cli(
        capsys, "verify-witness", "--map", path, "--record", tampered,
    )
    assert code == 1
    assert lines[0]["passed"] is False


def test_verify_witness_malformed_record(tmp_path, capsys):
    path = scalar_map_file(tmp_path)
    bad = write_json(tmp_path / "bad.json", {"case": "collinear"})
    code, lines, _ = run_cli(capsys, "verify-witness", "--map", path, "--record", bad)
    assert code == 2
    assert "malformed" in lines[0]["error"]


README_MAP_FLAGS = (
    "--builtin", "random_poly", "--m", "1", "--n", "4", "--degree", "3",
    "--map-seed", "42",
)


@pytest.mark.parametrize("dim", [1, 3])
def test_verify_witness_config_of_another_dimension_exits_2(tmp_path, capsys, dim):
    # A config whose dimension is not the map's is bad input, whether it
    # would broadcast against the points (1-d) or not (3-d).
    f = linear_r2_r3()
    data = exact_collinear_record_dict(f)
    unit = [1.0] + [0.0] * (dim - 1)
    data["config"] = {"x": unit, "u": unit, "v": unit, "delta": 0.25}
    code, lines, _ = run_cli(
        capsys, "verify-witness", "--map", write_json(tmp_path / "f.json", f.to_json_dict()),
        "--record", write_json(tmp_path / "rec.json", data),
    )
    assert code == 2
    assert lines[0] == {"error": "record config must have the map's domain dimension"}


@pytest.mark.parametrize(
    "argv",
    [
        [*README_MAP_FLAGS, "--case", "b", "--zero-eps", "100", "--restarts", "5"],
        [*README_MAP_FLAGS, "--case", "collinear", "--zero-eps", "100", "--restarts", "5"],
        ["--builtin", "parabola", "--case", "b", "--zero-eps", "1e-13"],
    ],
)
def test_find_witness_has_no_zero_eps_option(capsys, argv):
    # The zero threshold is fixed: the record does not carry it, so
    # verify-witness could not recompute a residual taken under another.
    with pytest.raises(SystemExit) as exc:
        main(["find-witness", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_witness_nested_params_map_file(tmp_path, capsys):
    # The map-file form the README documents nests the builtin parameters.
    rec_file = tmp_path / "rec.json"
    code, _, _ = run_cli(
        capsys, "find-witness", *README_MAP_FLAGS, "--case", "collinear",
        "--restarts", "2", "--out", str(rec_file),
    )
    assert code == 0
    map_file = write_json(
        tmp_path / "map.json",
        {"builtin": "random_poly", "params": {"m": 1, "n": 4, "degree": 3}, "seed": 42},
    )
    reports = []
    for source in (("--map", map_file), README_MAP_FLAGS):
        code, lines, _ = run_cli(capsys, "verify-witness", *source, "--record", str(rec_file))
        assert code == 0
        reports.append(lines[0])
    assert reports[0] == reports[1]
    assert reports[0]["passed"] is True
    assert reports[0]["checks"]["digest_matches"] is True


@pytest.mark.parametrize(
    "content",
    [
        "5",
        '{"builtin": "random_poly", "params": [1, 4, 3], "seed": 42}',
        '{"builtin": "random_poly", "params": {"m": [1], "n": 4, "degree": 3}, "seed": 42}',
        '{"builtin": "random_poly", "params": {"m": 1, "n": 4, "degree": 3}, "seed": "x"}',
        '{"builtin": "moment", "m": 1, "params": {"m": 1, "n": 2}}',
        '{"coords": [[{"c": 1.0, "e": [1]}], [{"c": 1.0, "e": [1, 0]}]]}',
        '{"coords": [[], []]}',
    ],
    ids=["not-an-object", "params-not-object", "param-not-int", "seed-not-int",
         "flat-and-nested", "exponent-lengths-differ", "no-term"],
)
def test_malformed_map_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "map.json"
    path.write_text(content, encoding="utf-8")
    code, lines, _ = run_cli(capsys, "find-1d", "--map", str(path))
    assert code == 2
    assert lines[0]["error"].startswith("malformed map descriptor: ")
    assert lines[-1]["manifest"]["outcome"].startswith("invalid input: ")


def _overflow_map(power: int, coeff: float = 1e308) -> dict:
    # R^2 -> R^5 with first coordinate coeff (x^p + y^p): finite values, but
    # chord norms, or near the unit circle the images, overflow.
    return {
        "domain_dim": 2,
        "codomain_dim": 5,
        "coords": [
            [{"c": coeff, "e": [power, 0]}, {"c": coeff, "e": [0, power]}],
            [{"c": 1.0, "e": [1, 0]}],
            [{"c": 1.0, "e": [0, 1]}],
            [{"c": 1.0, "e": [1, 1]}],
            [{"c": 1.0, "e": [3, 0]}, {"c": 0.5, "e": [0, 2]}],
        ],
    }


def exact_parallel_residual(f: MapDescriptor, pts) -> Fraction:
    """The parallel residual of the chords f(p1)-f(p0), f(p3)-f(p2), in
    rational arithmetic: floats are rationals, and the map a polynomial."""
    def image(p):
        return [sum(Fraction(c) * math.prod(Fraction(x) ** e for x, e in zip(p, exps))
                    for c, exps in coord) for coord in f.coords]

    q = [image(p) for p in pts]
    a = [y - x for x, y in zip(q[0], q[1])]
    b = [y - x for x, y in zip(q[2], q[3])]
    a2, b2, ab = (sum(s * t for s, t in zip(u, v)) for u, v in ((a, a), (b, b), (a, b)))
    return (a2 * b2 - ab * ab) / (a2 * b2)


def test_overflowing_chords_give_no_false_witness(tmp_path, capsys):
    # The chords of _overflow_map(2) are finite, but their squared norms
    # overflow.  Scaled by their largest entries they give the true
    # residual: the case b record's float residual is 0, and its exact one
    # is below 1e-600, so the 0 is no overflow clamped to 0.
    path = write_json(tmp_path / "map.json", _overflow_map(2))
    out = str(tmp_path / "found.json")
    code, lines, _ = run_cli(capsys, "find-witness", "--map", path, "--case", "b",
                             "--restarts", "3", "--out", out)
    assert code == 0
    rec = lines[1]
    assert rec["found"] is True and rec["residual"] <= 1e-10
    f = MapDescriptor.from_json_dict(_overflow_map(2))
    assert exact_parallel_residual(f, rec["points"]) < Fraction(1, 10**600)
    code, lines, _ = run_cli(capsys, "verify-witness", "--map", path, "--record", out)
    assert code == 0 and lines[0]["passed"] is True
    # Images beyond the float range still give NaN, never 0: at 1.5e308 the
    # first two points of this record overflow to inf.
    false_witness = {
        "case": "parallel_b", "found": True,
        "points": [[-0.83563077822540421, 0.82306917254444234],
                   [0.86422436352202725, -0.6957340682030061],
                   [-0.54319681702316625, 0.62566629764362625],
                   [0.51460323172654321, -0.75300140198506249]],
        "residual": 0, "min_pairwise_distance": 0.35282505109974727,
        "pair_sets_distinct": True,
        "config": {"x": [0.68941379762428523, -0.72436773509403429],
                   "u": [0.6992422635909683, 0.11453466756411267],
                   "v": [-0.58486792240447594, 0.39480574980163219], "delta": 0.25},
        "map_digest": "",
        "seed": 0, "restarts_used": 1,
    }
    huge = _overflow_map(2, 1.5e308)
    path = write_json(tmp_path / "huge.json", huge)
    false_witness["map_digest"] = map_digest(MapDescriptor.from_json_dict(huge))
    record = write_json(tmp_path / "rec.json", false_witness)
    code, lines, _ = run_cli(capsys, "verify-witness", "--map", path, "--record", record)
    assert code == 1
    report = lines[0]
    assert report["passed"] is False and report["residual"] is None
    assert report["checks"]["digest_matches"] is True
    assert report["checks"]["residual_within_tol"] is False
    assert any("not finite" in msg for msg in report["messages"])


def test_case_b_on_a_map_beyond_1e154(tmp_path, capsys):
    # random_poly(1, 4, 3) with every coefficient times 1e160: the squared
    # chord norms overflow, yet the search finds and verifies a witness.
    f = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    big = {"domain_dim": 2, "codomain_dim": 5, "coords": [
        [{"c": c * 1e160, "e": list(e)} for c, e in coord] for coord in f.coords]}
    path = write_json(tmp_path / "map.json", big)
    out = str(tmp_path / "rec.json")
    code, lines, _ = run_cli(capsys, "find-witness", "--map", path, "--case", "b",
                             "--seed", "7", "--out", out)
    assert code == 0
    rec = lines[1]
    assert rec["found"] is True and rec["residual"] <= 1e-10
    code, lines, _ = run_cli(capsys, "verify-witness", "--map", path, "--record", out)
    assert code == 0 and lines[0]["passed"] is True


def test_overflowing_images_do_not_abort_the_search(tmp_path, capsys):
    # Images that overflow to inf used to reach the SVD, which raised "SVD
    # did not converge" and ended the search.  Now such configurations score
    # 1.5 and the search goes on.
    path = write_json(tmp_path / "map.json", _overflow_map(4))
    code, lines, _ = run_cli(capsys, "find-witness", "--map", path, "--case", "collinear",
                             "--restarts", "3")
    assert code == 0 and lines[1]["found"] is True
    # Near the unit circle every image norm's sum of squares overflows, but
    # the images are finite, so their normalised forms and residual are too.
    code, lines, _ = run_cli(capsys, "find-witness", "--map", path, "--case", "lindep",
                             "--restarts", "3", "--out", str(tmp_path / "rec.json"))
    assert code == 0
    rec = lines[1]
    assert rec["found"] is True and rec["residual"] == 0
    assert rec["min_pairwise_distance"] == 0.5
    code, lines, _ = run_cli(capsys, "verify-witness", "--map", path,
                             "--record", str(tmp_path / "rec.json"))
    assert code == 0 and lines[0]["passed"] is True
    assert all("SVD" not in line.get("error", "") for line in lines)


# -- find-1d -------------------------------------------------------------------------


def test_find_1d_parabola_cli(capsys):
    code, lines, _ = run_cli(capsys, "find-1d", "--builtin", "parabola")
    assert code == 0
    rec = lines[0]
    assert rec["case"] == "line_1d" and rec["found"]
    xs = [p[0] for p in rec["points"]]
    assert xs[0] < xs[2] < xs[3] < xs[1]


@pytest.mark.parametrize("coeff", [1e160, 1e200, 1e307])
def test_find_1d_maps_beyond_1e154(tmp_path, capsys, coeff):
    # Their squared images overflow; unscaled, 1e307 * t gave overflow
    # warnings and 1e200 * t a non-finite residual.
    path = write_json(tmp_path / "map.json",
                      {"coords": [[{"c": coeff, "e": [1]}], [{"c": 1.0, "e": [2]}]]})
    code, lines, _ = run_cli(capsys, "find-1d", "--map", path)
    assert code == 0
    assert lines[0]["found"] is True and lines[0]["residual"] == 0


def test_find_1d_ambiguity_exit_code(tmp_path, capsys):
    path = write_json(
        tmp_path / "flat.json",
        {
            "domain_dim": 1,
            "codomain_dim": 2,
            "coords": [[{"c": 1.0, "e": [1]}], [{"c": 3e-6, "e": [2]}]],
        },
    )
    code, lines, _ = run_cli(capsys, "find-1d", "--map", path)
    assert code == 1
    assert "ambiguity" in lines[0]["error"]


def test_find_1d_wrong_shape_map(capsys):
    code, lines, _ = run_cli(
        capsys, "find-1d", "--builtin", "moment", "--m", "1", "--n", "2",
    )
    assert code == 2
    assert "R -> R^2" in lines[0]["error"]


# -- singularity ----------------------------------------------------------------------


def test_singularity_cli(tmp_path, capsys):
    f = linear_r2_r3()
    map_file = write_json(tmp_path / "lin.json", f.to_json_dict())
    rec_file = write_json(tmp_path / "base.json", exact_collinear_record_dict(f))
    code, lines, _ = run_cli(
        capsys, "singularity", "--map", map_file, "--record", rec_file,
        "--samples", "4",
    )
    assert code == 0
    est = lines[0]
    assert est["expected_lower_bound"] == 4 * 2 - (3 - 2)
    assert 0 <= est["samples"] <= 4
    assert est["singular_values"] == sorted(est["singular_values"], reverse=True)


def test_singularity_rejects_wrong_case(tmp_path, capsys):
    path = scalar_map_file(tmp_path)
    rec_file = tmp_path / "rec.json"
    run_cli(
        capsys, "find-witness", "--map", path, "--case", "b",
        "--restarts", "2", "--max-iters", "60", "--out", str(rec_file),
    )
    code, lines, _ = run_cli(
        capsys, "singularity", "--map", path, "--record", str(rec_file),
        "--samples", "2",
    )
    assert code == 2
    assert "collinear" in lines[0]["error"]


# -- non-finite numbers ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, name",
    [
        (["find-witness", "--builtin", "parabola", "--case", "b", "--tol", "nan"], "tol"),
        (["find-witness", "--builtin", "parabola", "--case", "b", "--tol", "inf"], "tol"),
        (["singularity", "--tol", "inf"], "tol"),
        (["singularity", "--noise-scale", "nan"], "noise_scale"),
        (["singularity", "--noise-scale", "inf"], "noise_scale"),
        (["singularity", "--tol", "nan"], "tol"),
        (["singularity", "--ratio-threshold", "nan"], "ratio_threshold"),
        (["verify-witness", "--tol", "inf"], "tol"),
        (["find-1d", "--builtin", "parabola", "--tol", "nan"], "tol"),
        (["find-1d", "--builtin", "parabola", "--interval", "0", "inf"], "interval"),
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, argv, name):
    if argv[0] in ("singularity", "verify-witness"):
        f = linear_r2_r3()
        argv = argv[:1] + [
            "--map", write_json(tmp_path / "lin.json", f.to_json_dict()),
            "--record", write_json(tmp_path / "base.json", exact_collinear_record_dict(f)),
        ] + argv[1:]
    code = main(argv)
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 2
    assert lines[0]["error"].startswith(f"{name} must be")
    assert len(lines) == 2 and lines[1]["manifest"]["outcome"].startswith("invalid input")
    assert captured.err == ""


# -- runtime dependencies -------------------------------------------------------------

_NO_SCIPY_SCRIPT = """
import sys
import parlines.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [], loaded
sys.modules["scipy"] = None  # any later "import scipy..." now fails
main = parlines.cli.main
codes = [
    main(["find-witness", "--builtin", "parabola", "--case", "b", "--restarts", "2"]),
    main(["find-witness", "--builtin", "parabola", "--case", "collinear", "--out", "col.json"]),
    main(["verify-witness", "--builtin", "parabola", "--record", "col.json"]),
    main(["singularity", "--builtin", "parabola", "--record", "col.json", "--samples", "2"]),
]
assert codes == [0, 0, 0, 0], codes
"""


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: the CLI must neither import it nor
    # need it, in a fresh interpreter where the tests have not loaded it.
    src = str(Path(parlines.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"outcome":"ok"') == 4


def _readme_cli_commands() -> list:
    """The ``parlines ...`` lines of the README's CLI block, continuations
    joined, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("parlines ")]


def test_readme_cli_block_runs(tmp_path):
    # Each example in order, as the installed entry point runs it: a fresh
    # interpreter calling console_main, whose exit code is main()'s.
    commands = _readme_cli_commands()
    assert [argv[0] for argv in commands] == [
        "verify-classes", "table", "oracles", "find-witness", "verify-witness",
        "find-1d", "find-witness", "singularity",
    ]
    src = str(Path(parlines.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c", "from parlines.cli import console_main; console_main()",
             *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stdout[-500:], proc.stderr)
        assert '"outcome":"ok"' in proc.stdout.splitlines()[-1]


def test_closed_pipe_ends_without_traceback(tmp_path):
    # A reader that stops early (as "| head -c 100" does) closes the pipe;
    # the CLI then exits 1 quietly instead of printing a BrokenPipeError.
    src = str(Path(parlines.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from parlines.cli import console_main; console_main()",
         "verify-classes", "--m-max", "300"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in err.decode() and err == b""


# -- config file ------------------------------------------------------------------------


def test_config_file_defaults_and_override(tmp_path, capsys):
    path = scalar_map_file(tmp_path)
    cfg = write_json(tmp_path / "cfg.json",
                     {"seed": 5, "restarts": 2, "max_iters": 50})
    code, lines, _ = run_cli(
        capsys, "--config", cfg, "find-witness", "--map", path, "--case", "b",
    )
    assert code == 0
    rec = lines[1]
    assert rec["seed"] == 5 and rec["restarts_used"] <= 2

    code, lines, _ = run_cli(
        capsys, "--config", cfg, "find-witness", "--map", path, "--case", "b",
        "--seed", "9",
    )
    assert code == 0
    assert lines[1]["seed"] == 9  # explicit flag beats the config default


def test_config_file_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    code, lines, _ = run_cli(
        capsys, "--config", str(cfg), "verify-classes", "--m", "2",
    )
    assert code == 2
    assert "bad config file" in lines[0]["error"]


def test_config_file_unreadable(tmp_path, capsys):
    code, lines, _ = run_cli(
        capsys, "--config", str(tmp_path / "missing.json"),
        "verify-classes", "--m", "2",
    )
    assert code == 2
    assert "bad config file" in lines[0]["error"]


def test_config_file_supplies_required_options(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"m_max": 3, "format": "jsonl"})
    code, lines, _ = run_cli(capsys, "--config", cfg, "table")
    assert code == 0
    assert [row["m"] for row in lines[:-1]] == [1, 2, 3]
    code, lines, _ = run_cli(capsys, "--config", cfg, "table", "--m-max", "2")
    assert code == 0
    assert [row["m"] for row in lines[:-1]] == [1, 2]  # the flag wins

    path = scalar_map_file(tmp_path)
    rec_file = tmp_path / "rec.json"
    cfg = write_json(
        tmp_path / "fw.json",
        {"map": path, "case": "collinear", "restarts": 2, "max_iters": 60,
         "record": str(rec_file)},
    )
    code, lines, _ = run_cli(capsys, "--config", cfg, "find-witness", "--out", str(rec_file))
    assert code == 0 and lines[1]["case"] == "collinear"
    code, lines, _ = run_cli(capsys, "--config", cfg, "verify-witness")
    assert code == 0 and lines[0]["passed"] is True


def test_config_file_rejects_keys_of_no_option(tmp_path, capsys):
    # A misspelt or stale key exits 2; a key of another subcommand's option
    # is allowed, so one file can serve several subcommands.
    cfg = write_json(tmp_path / "cfg.json", {"zero_eps": 100, "restart": 2})
    code, lines, _ = run_cli(capsys, "--config", cfg, "find-witness", "--builtin", "parabola",
                             "--case", "b")
    assert code == 2 and len(lines) == 1
    assert lines[0]["error"] == "bad config file: unknown keys ['restart', 'zero_eps']"
    cfg = write_json(tmp_path / "shared.json", {"restarts": 2, "m_max": 3, "record": "r.json"})
    code, lines, _ = run_cli(capsys, "--config", cfg, "find-witness", "--builtin", "parabola",
                             "--case", "b")
    assert code == 0 and lines[1]["restarts_used"] <= 2


def test_config_file_leaves_verify_classes_group_to_the_command_line(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"m": 5, "m_max": 3})
    code, lines, _ = run_cli(capsys, "--config", cfg, "verify-classes", "--m-max", "2")
    assert code == 0
    assert {rep["m"] for rep in lines[:-1]} == {1, 2}
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "verify-classes"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "defaults, argv",
    [
        ({"format": "xml"}, ["table", "--m-max", "2"]),
        ({"case": "diagonal"}, ["find-witness", "--builtin", "parabola"]),
    ],
)
def test_config_file_values_are_checked_against_choices(tmp_path, capsys, defaults, argv):
    cfg = write_json(tmp_path / "cfg.json", defaults)
    code, lines, _ = run_cli(capsys, "--config", cfg, *argv)
    assert code == 2
    assert len(lines) == 1
    key, value = next(iter(defaults.items()))
    assert "bad config file" in lines[0]["error"]
    assert key in lines[0]["error"] and repr(value) in lines[0]["error"]


@pytest.mark.parametrize(
    "defaults, argv, expected",
    [
        ({"restarts": 2.5}, ["find-witness", "--builtin", "parabola", "--case", "b"],
         "an integer"),
        ({"m_max": 2.5}, ["table"], "an integer"),
        ({"m_max": True}, ["table"], "an integer"),
        ({"interval": [1]}, ["find-1d", "--builtin", "parabola"], "a list of 2 numbers"),
        ({"interval": "-1 1"}, ["find-1d", "--builtin", "parabola"], "a list of 2 numbers"),
        ({"tol": [1e-9]}, ["find-1d", "--builtin", "parabola"], "a number"),
        ({"out": 5}, ["find-witness", "--builtin", "parabola", "--case", "b"], "a string"),
        ({"tol": 10**400}, ["find-1d", "--builtin", "parabola"], "a number in float range"),
        ({"interval": [-1, 10**400]}, ["find-1d", "--builtin", "parabola"],
         "a number in float range"),
    ],
)
def test_config_file_values_are_checked_against_types(tmp_path, capsys, defaults, argv, expected):
    cfg = write_json(tmp_path / "cfg.json", defaults)
    code, lines, _ = run_cli(capsys, "--config", cfg, *argv)
    assert code == 2
    assert len(lines) == 1
    key, value = next(iter(defaults.items()))
    assert lines[0]["error"] == f"bad config file: {key}: expected {expected}, got {value!r}"


def test_config_file_integer_beyond_float_range(tmp_path, capsys):
    # An int option takes a JSON integer as it is, without a float round
    # trip that would overflow; the command's own range check then applies.
    cfg = write_json(tmp_path / "cfg.json", {"m_max": 10**400})
    code, lines, _ = run_cli(capsys, "--config", cfg, "table")
    assert code == 2
    assert lines[0]["error"] == "m-max must lie in 1..4096"


def test_config_file_numbers_take_the_option_type(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"m_max": 2.0, "format": "jsonl"})
    code, lines, _ = run_cli(capsys, "--config", cfg, "table")
    assert code == 0
    assert [row["m"] for row in lines[:-1]] == [1, 2]

    cfg = write_json(tmp_path / "interval.json", {"interval": [-1, 1], "tol": 1})
    code, lines, _ = run_cli(capsys, "--config", cfg, "find-1d", "--builtin", "parabola")
    explicit = run_cli(capsys, "find-1d", "--builtin", "parabola", "--interval", "-1", "1",
                       "--tol", "1")[1]
    assert code == 0
    assert lines[0] == explicit[0]
