"""End-to-end CLI tests driven through main(argv) with captured stdout."""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import exact_collinear_record_dict, linear_r2_r3

import parlines
from parlines import charclass, cli, maps, witness
from parlines.charclass import DimensionParams, all_checks
from parlines.cli import main
from parlines.jsonio import canonical_json
from parlines.maps import MapDescriptor, builtin_map, eval_map, map_digest
from parlines.witness import collinear_residual


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


@pytest.mark.parametrize(
    "grid",
    [
        # 16 * 625 product instances + 1 dual instance: one past the cap.
        ("--m1-max", "0", "--m2-max", "0", "--n-max", "625", "--dual-n-max", "1"),
        ("--m1-max", "0", "--m2-max", "0", "--n-max", "1", "--dual-n-max", "9985"),
        ("--m1-max", "4", "--m2-max", "4", "--n-max", "25", "--dual-n-max", "1"),
        ("--dual-k", str(cli._ORACLE_DUAL_K_CAP + 1)),
    ],
)
def test_oracles_refuses_grids_above_the_caps(capsys, monkeypatch, grid):
    def no_ring(*args, **kwargs):
        raise AssertionError("a ring was built")

    for name in ("ring_truncated", "ring_adjoin_x", "ring_proj_bundle"):
        monkeypatch.setattr(charclass, name, no_ring)
    monkeypatch.setattr(cli, "oracle_umkehr_product", no_ring)
    monkeypatch.setattr(cli, "oracle_umkehr_dual", no_ring)
    code, lines, _ = run_cli(capsys, "oracles", *grid)
    assert code == 2 and len(lines) == 2
    cap = "dual-k" if "--dual-k" in grid else str(cli._ORACLE_INSTANCE_CAP)
    assert cap in lines[0]["error"]
    assert lines[1]["manifest"]["outcome"].startswith("invalid input")


def test_oracles_default_grid_lies_inside_the_caps(capsys):
    code, lines, _ = run_cli(capsys, "oracles")
    assert code == 0
    assert lines[-2] == {
        "check": "oracles", "product_instances": 6 * 6 * 8 * 16, "dual_instances": 16,
        "failures": 0,
    }


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


def test_find_witness_hashes_the_map_once(tmp_path, capsys, monkeypatch):
    # Counts, not times: the note line and the record share one digest of
    # the map, and verify-witness takes one as well.
    hashed = []
    real_sha = maps.sha256_of

    def counting_sha(text):
        hashed.append(text)
        return real_sha(text)

    monkeypatch.setattr(maps, "sha256_of", counting_sha)
    margs = ["--builtin", "random_poly", "--m", "1", "--n", "4", "--degree", "3",
             "--map-seed", "42"]
    rec_file = tmp_path / "rec.json"
    code, lines, _ = run_cli(capsys, "find-witness", *margs, "--case", "b", "--seed", "7",
                             "--out", str(rec_file))
    assert code == 0 and len(hashed) == 1
    assert lines[0]["map_digest"] == lines[1]["map_digest"] == real_sha(hashed[0])
    code, lines, _ = run_cli(capsys, "verify-witness", *margs, "--record", str(rec_file))
    assert code == 0 and lines[0]["passed"] is True and len(hashed) == 2


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
    # A record or a config that is no JSON object gets a message of its own.
    config_not_object = {**exact_collinear_record_dict(linear_r2_r3()), "config": "abc"}
    for record, message in [
        ([1, 2], "malformed witness record: expected a JSON object"),
        (config_not_object, "malformed witness record: config must be a JSON object or null"),
    ]:
        bad = write_json(tmp_path / "bad.json", record)
        code, lines, _ = run_cli(capsys, "verify-witness", "--map", path, "--record", bad)
        assert code == 2
        assert lines[0] == {"error": message}


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


def _exit_2_with(capsys, argv, message: str) -> None:
    """main(argv) exits 2 with one error line holding ``message``, then the
    manifest, and nothing on stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 2
    assert message in lines[0]["error"]
    assert len(lines) == 2 and lines[1]["manifest"]["outcome"].startswith("invalid input")
    assert captured.err == ""


_HUGE = "1" + "0" * 400  # a JSON integer beyond the float range
_PLANE = '[{"c": 1.0, "e": [2]}]'  # a second coordinate, so the map is R -> R^2


@pytest.mark.parametrize(
    "content, message",
    [
        (f'{{"coords": [[{{"c": {_HUGE}, "e": [1]}}], {_PLANE}]}}',
         "c must be a number in the float range"),
        (f'{{"coords": [[{{"c": 1.0, "e": [{10**30}]}}], {_PLANE}]}}',
         "exponents must lie in 0..2^63-1"),
        (f'{{"builtin": "moment", "m": {10**30}, "n": 1}}', "more than 1000000 exponents"),
        (f'{{"builtin": "affine_graph", "m": {10**30}}}', "more than 1000000 exponents"),
        (f'{{"coords": [[{{"c": 1.0, "e": [1.5]}}], {_PLANE}]}}',
         "e[0] must be an integer, got 1.5"),
        (f'{{"coords": [[{{"c": true, "e": [1]}}], {_PLANE}]}}', "c must be a number, got True"),
        (f'{{"coords": [[{{"c": NaN, "e": [1]}}], {_PLANE}]}}',
         "c must be a number in the float range"),
        ('{"builtin": "affine_graph", "m": 0.5}', "m must be an integer, got 0.5"),
        (f'{{"domain_dim": true, "coords": [[{{"c": 1.0, "e": [1]}}], {_PLANE}]}}',
         "domain_dim must be an integer, got True"),
    ],
    ids=["huge-coefficient", "huge-exponent", "huge-moment", "huge-affine-graph",
         "float-exponent", "bool-coefficient", "nan-coefficient", "float-builtin-param",
         "bool-dimension"],
)
def test_map_file_numbers_are_neither_coerced_nor_overflowing(tmp_path, capsys, content, message):
    path = tmp_path / "map.json"
    path.write_text(content, encoding="utf-8")
    _exit_2_with(capsys, ["find-1d", "--map", str(path)], message)


@pytest.mark.parametrize(
    "field, message",
    [
        ("points", "points[0][0] must be a number in the float range"),
        ("residual", "residual must be a number in the float range"),
        ("delta", "delta must be a number in the float range"),
    ],
)
def test_record_numbers_beyond_the_float_range_exit_2(tmp_path, capsys, field, message):
    f = linear_r2_r3()
    data = exact_collinear_record_dict(f)
    if field == "points":
        data["points"][0][0] = 10**400
    elif field == "delta":
        data["config"]["delta"] = 10**400
    else:
        data[field] = 10**400
    _exit_2_with(capsys, [
        "verify-witness", "--map", write_json(tmp_path / "lin.json", f.to_json_dict()),
        "--record", write_json(tmp_path / "rec.json", data),
    ], f"malformed witness record: {message}")


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize(
    "field, message",
    [
        ("points", "points[0][0]"),
        ("residual", "residual"),
        ("min_pairwise_distance", "min_pairwise_distance"),
        ("x", "x[0]"),
        ("delta", "delta"),
    ],
)
def test_record_non_finite_numbers_exit_2(tmp_path, capsys, field, message, literal):
    # json.load reads these literals as inf or nan; no record holds them.
    f = linear_r2_r3()
    data = exact_collinear_record_dict(f)
    slot = "@non-finite@"
    if field == "points":
        data["points"][0][0] = slot
    elif field == "x":
        data["config"]["x"][0] = slot
    elif field == "delta":
        data["config"]["delta"] = slot
    else:
        data[field] = slot
    record = tmp_path / "rec.json"
    record.write_text(canonical_json(data).replace(f'"{slot}"', literal) + "\n", encoding="utf-8")
    _exit_2_with(capsys, [
        "verify-witness", "--map", write_json(tmp_path / "lin.json", f.to_json_dict()),
        "--record", str(record),
    ], f"malformed witness record: {message} must be a number in the float range")


@pytest.mark.parametrize(
    "field, value",
    [("min_pairwise_distance", 123.0), ("pair_sets_distinct", False)],
)
def test_verify_witness_recomputes_the_stored_distances(tmp_path, capsys, field, value):
    rec_file = tmp_path / "rec.json"
    code, _, _ = run_cli(
        capsys, "find-witness", *README_MAP_FLAGS, "--case", "b", "--seed", "7",
        "--out", str(rec_file),
    )
    assert code == 0
    code, lines, _ = run_cli(capsys, "verify-witness", *README_MAP_FLAGS,
                             "--record", str(rec_file))
    assert code == 0 and lines[0]["checks"]["distances_agree_with_record"] is True
    data = json.loads(rec_file.read_text(encoding="utf-8"))
    data[field] = value
    tampered = write_json(tmp_path / "tampered.json", data)
    code, lines, _ = run_cli(capsys, "verify-witness", *README_MAP_FLAGS, "--record", tampered)
    assert code == 1
    checks = lines[0]["checks"]
    assert checks.pop("distances_agree_with_record") is False
    assert all(checks.values())
    assert "vs recorded" in lines[0]["messages"][0]


def test_verify_witness_reads_the_stored_found_flag(tmp_path, capsys):
    # The README's case b record with "found": false put in by hand says it
    # is no witness, while its residual lies within the default --tol.
    rec_file = tmp_path / "rec.json"
    code, _, _ = run_cli(capsys, "find-witness", *README_MAP_FLAGS, "--case", "b",
                         "--seed", "7", "--out", str(rec_file))
    assert code == 0
    data = json.loads(rec_file.read_text(encoding="utf-8"))
    assert data["found"] is True
    data["found"] = False
    tampered = write_json(tmp_path / "tampered.json", data)
    code, lines, _ = run_cli(capsys, "verify-witness", *README_MAP_FLAGS, "--record", tampered)
    assert code == 1 and lines[0]["passed"] is False
    checks = lines[0]["checks"]
    assert checks.pop("found_agrees_with_record") is False
    assert all(checks.values())
    assert lines[0]["messages"] == ["recorded found False vs True at --tol 1e-10"]


@pytest.mark.parametrize("case", ["collinear", "parallel_b"])
def test_verify_witness_reports_every_failed_check_in_order(tmp_path, capsys, case):
    # One record that fails every check it can: another map's digest, a
    # config off the manifold, moved points, false distances and residual,
    # --tol exceeded (collinear; case b's coincident chords give residual
    # 0), a false found flag (true over tol, false within it) and
    # coincident points.  The report lists its checks, and the messages of
    # the failed ones, in a fixed order.
    f = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    tiny = 2.0**-31  # below the 1e-9 distinctness threshold
    if case == "collinear":
        # The config gives (2, .25), (2, -.25), (-1.75, 0), (-2.25, 0).
        points = [[2.0, 0.25], [2.0, 0.25 + tiny], [-1.75, 0.0], [-2.25, 0.0]]
        residual = collinear_residual(*eval_map(f, np.array(points)))
        assert residual > 1e-30
        found = True
        last = [f"residual {residual!r} exceeds tol 1e-30",
                "recorded found True vs False at --tol 1e-30",
                "the four points are not pairwise distinct"]
        last_checks = {"residual_within_tol": False, "found_agrees_with_record": False,
                       "points_distinct": False}
        dev, distances = "0.5000000004656613", "(4.656612873077393e-10, True)"
    else:
        # The config gives (-1.75, 0), (2, .25), (-2.25, 0), (2, -.25).
        points = [[-1.75, 0.0], [-1.75, tiny], [-1.75, 0.0], [-1.75, tiny]]
        residual = 0.0
        found = False
        last = ["recorded found False vs True at --tol 1e-30",
                "a pair has coincident endpoints", "the two pairs coincide as sets"]
        last_checks = {"residual_within_tol": True, "found_agrees_with_record": False,
                       "pairs_nondegenerate": False, "pair_sets_distinct": False}
        dev, distances = "3.75", "(0.0, False)"
    record = {
        "case": case, "found": found, "points": points, "residual": 0.5,
        "min_pairwise_distance": 123.0, "pair_sets_distinct": True,
        "config": {"x": [2.0, 0.0], "u": [0.0, 1.0], "v": [1.0, 0.0], "delta": 0.25},
        "map_digest": map_digest(builtin_map("parabola")), "seed": 0, "restarts_used": 1,
    }
    code, lines, _ = run_cli(capsys, "verify-witness", *README_MAP_FLAGS, "--tol", "1e-30",
                             "--record", write_json(tmp_path / "rec.json", record))
    expected = {
        "passed": False,
        "residual": residual,
        "checks": {
            "digest_matches": False, "config_norms": False, "points_match_config": False,
            "distances_agree_with_record": False, "residual_agrees_with_record": False,
            **last_checks,
        },
        "messages": [
            "map digest differs from the supplied map",
            f"x lies 1 off the {case} manifold",
            f"points deviate from configuration by {dev}",
            f"recomputed (min_pairwise_distance, pair_sets_distinct) {distances} "
            "vs recorded (123.0, True)",
            f"recomputed residual {residual!r} vs recorded 0.5",
            *last,
        ],
    }
    assert code == 1
    # Dict equality ignores the order of the keys: compare the items.
    assert list(lines[0].items()) == list(expected.items())
    assert list(lines[0]["checks"].items()) == list(expected["checks"].items())


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


@pytest.mark.parametrize(
    "field, failed, messages",
    [
        ("points",
         ["points_match_config", "distances_agree_with_record", "residual_agrees_with_record",
          "residual_within_tol", "found_agrees_with_record"],
         ["points deviate from configuration by 1e+308",
          "recomputed (min_pairwise_distance, pair_sets_distinct) (inf, True) "
          "vs recorded (0.5, True)",
          "recomputed residual nan vs recorded 0.0",
          "residual is not finite: the map's values overflow the float range",
          "recorded found True vs False at --tol 1e-10"]),
        ("x", ["config_norms", "points_match_config"],
         ["x lies inf off the collinear manifold",
          "points deviate from configuration by 1e+200"]),
    ],
)
def test_verify_witness_at_the_float_limit_fails_without_warnings(
    tmp_path, capsys, field, failed, messages
):
    # Points at +-1e308 overflow their differences, and a config x of
    # [1e200, 1e200] its squared norm: the checks fail on the inf and NaN
    # that come out, and numpy prints nothing.
    f = linear_r2_r3()
    data = exact_collinear_record_dict(f)
    if field == "points":
        data["points"] = [[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308], [0.0, -1e308]]
    else:
        data["config"]["x"] = [1e200, 1e200]
    code = main([
        "verify-witness", "--map", write_json(tmp_path / "lin.json", f.to_json_dict()),
        "--record", write_json(tmp_path / "rec.json", data),
    ])
    captured = capsys.readouterr()
    report = json.loads(captured.out.splitlines()[0])
    assert code == 1 and captured.err == ""
    assert report["passed"] is False
    assert [name for name, ok in report["checks"].items() if not ok] == failed
    assert report["messages"] == messages


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


@pytest.mark.parametrize("low", ["-1e1", "-1E1"])
def test_find_1d_interval_takes_negative_exponent_spellings(capsys, low):
    # argparse on Python 3.10-3.13 reads "-1e1" as an unknown option unless
    # told otherwise, and then --interval stops short of its two values.
    code, _, out = run_cli(capsys, "find-1d", "--builtin", "parabola", "--interval", low, "1e1")
    assert code == 0
    _, _, plain = run_cli(capsys, "find-1d", "--builtin", "parabola", "--interval", "-10", "10")
    assert out.splitlines()[0] == plain.splitlines()[0]


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


@pytest.mark.parametrize("samples", ["32769", "10000000000000"])
def test_find_1d_samples_are_capped(capsys, samples):
    # The widest-chord scan is quadratic in the samples.
    _exit_2_with(capsys, ["find-1d", "--builtin", "parabola", "--samples", samples],
                 "samples must lie in 8..32768")


@pytest.mark.parametrize("interval", [("1", "1.0000000000000002"), ("0", "5e-324")])
def test_find_1d_interval_too_narrow_for_its_samples(capsys, interval):
    # np.linspace would collapse the samples onto the interval's two floats,
    # and the four "witness" points with them.
    _exit_2_with(capsys, ["find-1d", "--builtin", "parabola", "--interval", *interval],
                 "not strictly increasing")


def test_find_1d_interval_too_wide_for_a_float_width(capsys):
    # b - a overflows: np.linspace would warn and give no samples at all.
    _exit_2_with(capsys, ["find-1d", "--builtin", "parabola", "--interval", "-1e308", "1e308"],
                 "interval (-1e+308, 1e+308) is too wide: its width b - a overflows")


def test_negative_map_seed_exits_2(tmp_path, capsys):
    flags = ["--builtin", "random_poly", "--m", "1", "--n", "4", "--degree", "2"]
    _exit_2_with(capsys, ["find-witness", *flags, "--map-seed", "-1", "--case", "b"],
                 "seed must be >= 0")
    path = write_json(tmp_path / "map.json",
                      {"builtin": "random_poly", "m": 1, "n": 4, "degree": 2, "seed": -1})
    _exit_2_with(capsys, ["find-witness", "--map", path, "--case", "b"], "seed must be >= 0")


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


def test_singularity_at_a_huge_noise_scale_fails_its_samples_quietly(tmp_path, capsys):
    # Perturbations of scale 1e308 overflow: those samples fail, and numpy
    # prints nothing.
    f = linear_r2_r3()
    code = main([
        "singularity", "--map", write_json(tmp_path / "lin.json", f.to_json_dict()),
        "--record", write_json(tmp_path / "base.json", exact_collinear_record_dict(f)),
        "--samples", "4", "--noise-scale", "1e308",
    ])
    captured = capsys.readouterr()
    est = json.loads(captured.out.splitlines()[0])
    assert code == 0 and captured.err == ""
    assert (est["samples"], est["singular_values"], est["estimated_dim"]) == (0, [], 0)


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


def _bench_workloads(monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "clibench"
    monkeypatch.syspath_prepend(str(bench))  # workloads imports refs beside it
    spec = importlib.util.spec_from_file_location("clibench_workloads", bench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_singularity_samples_are_capped(tmp_path, capsys, monkeypatch):
    # The sample counts in use lie inside the cap: the default, the
    # README's and the benchmark's.
    cap = witness._MAX_SINGULARITY_SAMPLES
    default = cli.build_parser()[1]["singularity"].fill().get_default("samples")
    [readme] = [argv for argv in _readme_cli_commands() if argv[0] == "singularity"]
    counts = [default, int(readme[readme.index("--samples") + 1])]
    counts.append(_bench_workloads(monkeypatch).SINGULARITY_SAMPLES)
    assert 1 <= min(counts) and max(counts) <= cap

    # Each sample is a Newton projection: the cap refuses before any search.
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(witness, "minimize", no_search)
    f = linear_r2_r3()
    argv = [
        "singularity", "--map", write_json(tmp_path / "lin.json", f.to_json_dict()),
        "--record", write_json(tmp_path / "base.json", exact_collinear_record_dict(f)),
    ]
    for samples in (str(cap + 1), "0"):
        _exit_2_with(capsys, [*argv, "--samples", samples], f"samples must lie in 1..{cap}")


def test_find_witness_restarts_and_iterations_are_capped(tmp_path, capsys, monkeypatch):
    # The values in use lie inside the caps: the defaults, the README's and
    # those of the benchmark's witness pass.
    class Ctx:
        workdir = str(tmp_path)
        argvs = []

        def run(self, metric, argv, check):
            self.argvs.append(argv)

    _bench_workloads(monkeypatch).witness_suite(0)(Ctx())
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parser = cli.build_parser()[1]["find-witness"].fill()
    for name, flag, cap in (("restarts", "--restarts", witness._MAX_RESTARTS),
                            ("max_iters", "--max-iters", witness._MAX_ITERS)):
        counts = [parser.get_default(name)]
        counts += [int(n) for n in re.findall(rf"(?:{name}=|{flag}\s+)(\d+)", readme)]
        counts += [int(argv[argv.index(flag) + 1]) for argv in Ctx.argvs if flag in argv]
        assert 1 <= min(counts) and max(counts) <= cap

    # A search that finds nothing runs every restart: the caps refuse before
    # any search.
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(witness, "minimize", no_search)
    argv = ["find-witness", *README_MAP_FLAGS, "--case", "collinear"]
    for value in (str(witness._MAX_RESTARTS + 1), "0"):
        _exit_2_with(capsys, [*argv, "--restarts", value],
                     f"restarts must lie in 1..{witness._MAX_RESTARTS}, got {value}")
    for value in (str(witness._MAX_ITERS + 1), "0"):
        _exit_2_with(capsys, [*argv, "--max-iters", value],
                     f"max_iters must lie in 1..{witness._MAX_ITERS}, got {value}")


@pytest.mark.parametrize(
    "case, delta", [("b", "1e-300"), ("a", "5e-10"), ("collinear", "1e-9"), ("lindep", "1e-300")],
)
def test_find_witness_refuses_a_delta_too_small_to_tell_points_apart(capsys, case, delta):
    # The closest two of the four points lie sqrt(2)*delta or 2*delta
    # apart: at delta <= 1e-9 every record would fail its distinctness
    # check, so no search runs and the command exits 2.
    _exit_2_with(capsys, ["find-witness", *README_MAP_FLAGS, "--case", case, "--delta", delta],
                 f"delta must lie in (1e-09, 1/2), got {float(delta)!r}")


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
        (["find-1d", "--builtin", "parabola", "--interval", "-inf", "1"], "interval"),
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
    # scipy is no dependency of the package: the CLI must neither import it
    # nor need it, in a fresh interpreter where nothing has loaded it.
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


def test_python_m_runs_the_cli(tmp_path):
    # "python -m parlines.cli" runs its command and exits with its code, as
    # the console script does, instead of importing the module and exiting 0.
    src = str(Path(parlines.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs = [
        subprocess.run([sys.executable, "-m", "parlines.cli", *argv], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
        for argv in (["verify-classes", "--m", "2"], ["table"])
    ]
    assert runs[0].returncode == 0, runs[0].stderr
    assert len(runs[0].stdout.splitlines()) == 7
    assert runs[1].returncode == 2
    assert "--m-max" in runs[1].stderr


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


@pytest.mark.parametrize("spelling", [("--conf", "{}"), ("--conf={}",), ("--c", "{}")])
def test_config_file_given_by_an_abbreviation(tmp_path, capsys, spelling):
    # argparse binds an abbreviation of --config to it, so the file it names
    # is read as well, not ignored: its format applies, and it supplies a
    # required option.
    cfg = write_json(tmp_path / "fmt.json", {"format": "jsonl"})
    code, lines, _ = run_cli(capsys, *[a.format(cfg) for a in spelling], "table", "--m-max", "2")
    assert code == 0
    assert [row["m"] for row in lines[:-1]] == [1, 2]
    cfg = write_json(tmp_path / "req.json", {"m_max": 3, "format": "jsonl"})
    code, lines, _ = run_cli(capsys, *[a.format(cfg) for a in spelling], "table")
    assert code == 0
    assert [row["m"] for row in lines[:-1]] == [1, 2, 3]


def test_config_files_given_twice_both_apply(tmp_path, capsys):
    fmt = write_json(tmp_path / "fmt.json", {"format": "jsonl", "m_max": 1})
    req = write_json(tmp_path / "req.json", {"m_max": 2})
    code, lines, _ = run_cli(capsys, "--conf", fmt, "--config", req, "table")
    assert code == 0
    assert [row["m"] for row in lines[:-1]] == [1, 2]  # the later file wins


def test_config_option_without_a_file_is_a_usage_error(capsys):
    # argparse reports the missing file with its usage line; the config
    # action never runs.
    for argv in (["--conf"], ["--config"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage: parlines" in capsys.readouterr().err


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


def test_config_file_is_checked_against_every_subcommand(tmp_path, capsys):
    # The chosen subcommand's parser is the only one a plain run fills, but
    # a config file is checked against every subcommand's options: a key of
    # another one is still allowed, and a key of none still refused.
    cfg = write_json(tmp_path / "cfg.json", {"restarts": 2, "m_max": 2, "format": "jsonl"})
    code, lines, _ = run_cli(capsys, "--conf", cfg, "table")
    assert code == 0 and [row["m"] for row in lines[:-1]] == [1, 2]
    cfg = write_json(tmp_path / "bad.json", {"m_max": 2, "restart": 2})
    code, lines, _ = run_cli(capsys, "--config", cfg, "table")
    assert code == 2
    assert lines[0]["error"] == "bad config file: unknown keys ['restart']"


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(argv, expected, id=argv[0])
        for argv, expected in (
            (["verify-classes", "--m", "2"], {"m": 2, "m_max": None}),
            (["table", "--m-max", "2"], {"m_max": 2, "format": "csv"}),
            (["oracles"], {"m1_max": 5, "dual_k": 20}),
            (["find-witness", "--case", "b"],
             {"case": "b", "restarts": witness.SearchConfig.restarts}),
            (["verify-witness", "--record", "r.json"], {"record": "r.json", "map": None}),
            (["find-1d"], {"interval": (-2.0, 2.0), "samples": 257}),
            (["singularity", "--record", "r.json"], {"record": "r.json", "samples": 32}),
        )
    ],
)
def test_a_run_adds_options_only_for_its_subcommand(argv, expected):
    parser, subs = cli.build_parser()
    assert all(len(p._actions) == 1 for p in subs.values())  # -h alone
    args = parser.parse_args(argv)
    assert args.command == argv[0]
    assert {key: getattr(args, key) for key in expected} == expected
    filled = {name for name, p in subs.items() if len(p._actions) > 1}
    assert filled == {argv[0]}
    # fill() adds the options once.
    sub = subs[argv[0]]
    count = len(sub._actions)
    assert sub.fill() is sub and len(sub._actions) == count


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(argv, expected, id=argv[0])
        for argv, expected in (
            (["table", "--m-m", "2"], {"m_max": 2}),
            (["verify-classes", "--m-m", "3"], {"m": None, "m_max": 3}),
            (["find-witness", "--builtin", "parabola", "--case", "b", "--rest", "2"],
             {"builtin": "parabola", "restarts": 2}),
            (["singularity", "--rec", "r.json", "--noise", "0.1"],
             {"record": "r.json", "noise_scale": 0.1}),
        )
    ],
)
def test_abbreviations_of_the_subcommands_options_parse_to_the_full_option(argv, expected):
    # argparse matches a prefix against the options the parser has when it
    # parses, so the subcommand's options must be there by then.
    args = cli.build_parser()[0].parse_args(argv)
    assert {key: getattr(args, key) for key in expected} == expected


# Every help text and these usage errors, captured at 80 columns when every
# subcommand's options were built up front; Python 3.10 heads the options
# "optional arguments:".
_SURFACE_ARGVS = (
    ["-h"],
    *([name, "-h"] for name in ("verify-classes", "table", "oracles", "find-witness",
                                "verify-witness", "find-1d", "singularity")),
    [],
    ["nope"],
    ["table"],
    ["find-witness", "--case", "z"],
    ["verify-classes", "--m", "1", "--m-max", "2"],
)


def test_help_and_usage_errors_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for argv in _SURFACE_ARGVS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        parts.append(f"$ {' '.join(['parlines', *argv])}\nexit {exc.value.code}\n"
                     f"--- stdout\n{out}--- stderr\n{err}")
    surface = "".join(parts).replace("optional arguments:", "options:")
    pinned = Path(__file__).with_name("cli_surface.txt").read_text(encoding="utf-8")
    assert surface == pinned


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
