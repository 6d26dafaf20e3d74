"""End-to-end CLI tests driven through main(argv) with captured stdout."""

from __future__ import annotations

import json

import numpy as np
import pytest

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
    assert rec["restarts_used"] == 1  # exact zero stops the restart loop
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
    ],
    ids=["not-an-object", "params-not-object", "param-not-int", "seed-not-int",
         "flat-and-nested"],
)
def test_malformed_map_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "map.json"
    path.write_text(content, encoding="utf-8")
    code, lines, _ = run_cli(capsys, "find-1d", "--map", str(path))
    assert code == 2
    assert lines[0]["error"].startswith("malformed map descriptor: ")
    assert lines[-1]["manifest"]["outcome"].startswith("invalid input: ")


# -- find-1d -------------------------------------------------------------------------


def test_find_1d_parabola_cli(capsys):
    code, lines, _ = run_cli(capsys, "find-1d", "--builtin", "parabola")
    assert code == 0
    rec = lines[0]
    assert rec["case"] == "line_1d" and rec["found"]
    xs = [p[0] for p in rec["points"]]
    assert xs[0] < xs[2] < xs[3] < xs[1]


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
