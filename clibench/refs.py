"""Output checks against references computed here, never against frozen bytes.

Symbolic outputs are compared with closed forms: over GF(2) the
coefficient of t^i y^j in (1+t+y)^-1 is C(i+j, i), and in
(1+t)^-1 (1+t+y)^-1 it is sum_{a<=i} C(i-a+j, j) = C(i+j+1, i) (Pascal's
hockey stick), each taken mod 2 by Lucas' theorem.  Witness records are
re-derived from their configuration and re-evaluated on a map rebuilt from
the ``random_poly`` definition; the rebuild is confirmed by the record's
map digest.  Every check returns a list of failure messages, empty when
the output is right.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math

import numpy as np


def binom2(n: int, k: int) -> int:
    """C(n, k) mod 2 by Lucas: odd iff every bit of k is set in n."""
    return int(0 <= k <= n and n & k == k)


def r_of(m: int) -> int:
    return (m + 1).bit_length()


def q_of(m: int) -> int:
    return ((m + 1) & -(m + 1)).bit_length() - 1


def boundary(m: int) -> bool:
    """m+1 is a power of two: the separated-pairs statement is empty."""
    return (m + 1) & m == 0


def mono(**exps: int) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in exps.items() if e]
    return "*".join(parts) or "1"


def expected_reports(m: int) -> list[dict]:
    """The six ``verify-classes`` reports for one m, from closed forms."""
    r, q = r_of(m), q_of(m)
    n = m + (1 << r) - 1
    e = (1 << r) - m - 2
    e1 = e + 1
    na = boundary(m)
    a_coeff = binom2(e1 + m, e1 - 1) if e1 <= m else 0  # t^e1 vanishes above t^m
    v2 = (
        {"key_monomial": "", "coefficient": 0, "passed": False}
        if na
        else {"key_monomial": mono(t=e1, y=m), "coefficient": binom2(e1 + m, e1), "passed": True}
    )
    rows = [
        # (1+t)^-1 = sum_{i<=m} t^i, so t^m has coefficient 1
        ("prelude", m, {"key_monomial": mono(t=m), "coefficient": 1, "passed": True}),
        ("theorem_b", n, {"key_monomial": mono(t=e, y=m, x=1),
                          "coefficient": binom2(e + m + 1, e), "passed": True}),
        ("theorem_a", n, {"key_monomial": mono(t=e1, y=m, x=1),
                          "coefficient": a_coeff, "passed": not na}),
        ("theorem_a_v2", n, v2),
        ("corollary", n, {"key_monomial": mono(t=e, y=m),
                          "coefficient": binom2(e + m + 1, e), "passed": True}),
        ("prop_q", 2 * m + (1 << q), {"coefficient": 1, "passed": True}),
    ]
    return [dict(check=c, m=m, r=r, q=q, n=nn, **fields) for c, nn, fields in rows]


def _manifest(lines: list[str], argv: list[str], outcome: str = "ok") -> list[str]:
    try:
        man = json.loads(lines[-1])["manifest"]
    except (IndexError, KeyError, TypeError, ValueError):
        return ["last line is not a manifest"]
    errs = []
    if man.get("command") != argv:
        errs.append(f"manifest command {man.get('command')!r} != {argv!r}")
    if man.get("outcome") != outcome:
        errs.append(f"manifest outcome {man.get('outcome')!r}")
    return errs


def strip_wall_time(stdout: str) -> str:
    """The stdout with the manifest's wall time removed, for byte comparison."""
    lines = stdout.splitlines()
    try:
        last = json.loads(lines[-1])
        last["manifest"].pop("wall_time_s")
    except (IndexError, KeyError, TypeError, ValueError):
        return stdout
    return "\n".join(lines[:-1] + [json.dumps(last)])


def check_verify_classes(code: int, stdout: str, argv: list[str], ms) -> list[str]:
    lines = stdout.splitlines()
    ms = list(ms)
    if code != 0:
        return [f"exit code {code}"]
    if len(lines) != 6 * len(ms) + 1:
        return [f"{len(lines)} lines, expected {6 * len(ms) + 1}"]
    errs = _manifest(lines, argv)
    got = [json.loads(line) for line in lines[:-1]]
    want = [rep for m in ms for rep in expected_reports(m)]
    for g, w in zip(got, want):
        for key, val in w.items():
            if g.get(key) != val:
                errs.append(f"m={w['m']} {w['check']}: {key} = {g.get(key)!r}, expected {val!r}")
        if w["check"] == "prop_q":
            top = _prop_q_top(g.get("detail", ""))
            if top != w["n"]:
                errs.append(f"m={w['m']} prop_q: top degree {top}, expected 2m+2^q = {w['n']}")
    return errs


def _prop_q_top(detail: str):
    marker = "max nonzero degree "
    if marker not in detail:
        return None
    digits = detail.split(marker, 1)[1].split(";", 1)[0].strip()
    return int(digits) if digits.lstrip("-").isdigit() else None


def check_table(code: int, stdout: str, argv: list[str], m_max: int) -> list[str]:
    lines = stdout.splitlines()
    if code != 0:
        return [f"exit code {code}"]
    if len(lines) != m_max + 2:
        return [f"{len(lines)} lines, expected {m_max + 2}"]
    errs = _manifest(lines, argv)
    rows = list(csv.DictReader(lines[:-1]))
    for m, row in zip(range(1, m_max + 1), rows):
        r, q = r_of(m), q_of(m)
        want = {
            "m": m, "r": r, "q": q, "n": m + (1 << r) - 1,
            "theorem_a": "na" if boundary(m) else "1",
            "theorem_b": "1", "corollary": "1", "prop_q_top": 2 * m + (1 << q),
        }
        for key, val in want.items():
            if row.get(key) != str(val):
                errs.append(f"table m={m}: {key} = {row.get(key)!r}, expected {val!r}")
    return errs


def check_oracles(code: int, stdout: str, argv: list[str], product: int, dual: int) -> list[str]:
    lines = stdout.splitlines()
    if code != 0:
        return [f"exit code {code}"]
    if len(lines) != 2:
        return [f"{len(lines)} lines, expected 2"]
    want = {"check": "oracles", "product_instances": product, "dual_instances": dual, "failures": 0}
    got = json.loads(lines[0])
    errs = _manifest(lines, argv)
    if got != want:
        errs.append(f"oracle summary {got!r}, expected {want!r}")
    return errs


# -- witness side -------------------------------------------------------------


def random_poly_coords(m: int, n: int, degree: int, seed: int) -> list:
    """The ``random_poly`` builtin by its definition: every monomial of
    degree 0..degree over m+1 variables (by degree, then
    combinations-with-replacement order), each coordinate's coefficients
    one draw of uniform(-1, 1) from ``default_rng(seed)``."""
    d = m + 1
    exps = []
    for deg in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), deg):
            e = [0] * d
            for i in combo:
                e[i] += 1
            exps.append(e)
    rng = np.random.default_rng(seed)
    return [
        [(float(c), e) for c, e in zip(rng.uniform(-1.0, 1.0, len(exps)), exps)]
        for _ in range(n + 1)
    ]


def coords_digest(coords: list, d: int) -> str:
    """SHA-256 of the canonical explicit form (``%.17g`` floats, no spaces)."""
    body = ",".join(
        "[" + ",".join('{"c":%s,"e":[%s]}' % (f"{c + 0.0:.17g}", ",".join(map(str, e)))
                       for c, e in coord) + "]"
        for coord in coords
    )
    text = '{"domain_dim":%d,"codomain_dim":%d,"coords":[%s]}' % (d, len(coords), body)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def eval_coords(coords: list, pts: np.ndarray) -> np.ndarray:
    out = np.zeros((len(pts), len(coords)))
    for k, coord in enumerate(coords):
        for c, e in coord:
            out[:, k] += c * np.prod([pts[:, i] ** p for i, p in enumerate(e)], axis=0)
    return out


def residual(case: str, imgs: np.ndarray) -> float:
    """The case's scale-free residual of four images (record point order)."""
    if case in ("parallel_a", "parallel_b"):
        a, b = imgs[1] - imgs[0], imgs[3] - imgs[2]
        aa, bb, ab = a @ a, b @ b, a @ b
        return 0.0 if min(aa, bb) <= 1e-26 else float((aa * bb - ab * ab) / (aa * bb))
    if case == "collinear":
        mat = (imgs[1:] - imgs[0]).T
        k = 2
    else:
        norms = np.linalg.norm(imgs, axis=1)
        if norms.min() <= 1e-13:
            return 0.0
        mat = (imgs / norms[:, None]).T
        k = 3
    s = np.linalg.svd(mat, compute_uv=False)
    return 0.0 if s[0] <= 1e-13 else float((s[k] / s[0]) ** 2)


# Record point order for each case, as (centre sign, offset, offset sign):
# x + d*u, x - d*u, -x + d*v, -x - d*v are the configuration's four points.
_LAYOUT = {
    "parallel_b": [(-1, "v", 1), (1, "u", 1), (-1, "v", -1), (1, "u", -1)],
    "parallel_a": [(1, "u", -1), (1, "u", 1), (-1, "v", -1), (-1, "v", 1)],
    "collinear": [(1, "u", 1), (1, "u", -1), (-1, "v", 1), (-1, "v", -1)],
}
_LAYOUT["linear_dependence"] = _LAYOUT["collinear"]
_OFFSET_NORMS = {"parallel_a": 1 / math.sqrt(2), "collinear": 1.0, "linear_dependence": 1.0}
TOL = 1e-10


def check_record(rec: dict, case: str, coords: list, digest: str) -> list[str]:
    """A ``find-witness`` record: found, consistent with its configuration,
    distinct points, and a residual that re-evaluates to the stored one."""
    errs = []
    d = len(coords[0][0][1])
    if rec.get("case") != case:
        errs.append(f"case {rec.get('case')!r}, expected {case!r}")
    if rec.get("found") is not True:
        errs.append("found is not true")
    if rec.get("map_digest") != digest:
        errs.append("map digest differs from the rebuilt map")
    pts = np.array(rec.get("points", []), dtype=float)
    cfg = rec.get("config") or {}
    if pts.shape != (4, d) or not cfg:
        return errs + ["record needs 4 points and a configuration"]
    x, u, v = (np.array(cfg[k], dtype=float) for k in "xuv")
    delta = float(cfg["delta"])
    off = {"u": u, "v": v}
    want = np.array([s * x + t * delta * off[w] for s, w, t in _LAYOUT[case]])
    dev = float(np.abs(want - pts).max())
    if dev > 1e-12:
        errs.append(f"points deviate from the configuration by {dev:.3g}")
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        errs.append("||x|| is not 1")
    if case == "parallel_b":
        if abs(math.hypot(np.linalg.norm(u), np.linalg.norm(v)) - 1.0) > 1e-9:
            errs.append("||(u, v)|| is not 1")
    elif max(abs(np.linalg.norm(w) - _OFFSET_NORMS[case]) for w in (u, v)) > 1e-9:
        errs.append(f"offset norms are not {_OFFSET_NORMS[case]:.6g}")
    dists = [float(np.linalg.norm(pts[i] - pts[j])) for i, j in itertools.combinations(range(4), 2)]
    if case == "parallel_b":
        if min(dists[0], dists[5]) <= 1e-9 or rec.get("pair_sets_distinct") is not True:
            errs.append("pairs degenerate or coincident")
    elif min(dists) <= 1e-9:
        errs.append("points not pairwise distinct")
    if abs(min(dists) - rec.get("min_pairwise_distance", -1.0)) > 1e-12:
        errs.append("min_pairwise_distance disagrees with the points")
    res = residual(case, eval_coords(coords, pts))
    stored = rec.get("residual", math.inf)
    if not stored <= TOL:
        errs.append(f"stored residual {stored!r} above {TOL}")
    if abs(res - stored) > 1e-12:
        errs.append(f"re-evaluated residual {res:.3g} vs stored {stored!r}")
    return errs


def check_find_witness(code, stdout, argv, case, coords, digest) -> list[str]:
    lines = stdout.splitlines()
    if code != 0 or len(lines) != 3:
        return [f"exit code {code}, {len(lines)} lines (expected 0, 3)"]
    errs = _manifest(lines, argv)
    if json.loads(lines[0]).get("map_digest") != digest:
        errs.append("note map digest differs from the rebuilt map")
    return errs + check_record(json.loads(lines[1]), case, coords, digest)


def check_verify_witness(code, stdout, argv, rec: dict) -> list[str]:
    lines = stdout.splitlines()
    if code != 0 or len(lines) != 2:
        return [f"verify-witness exit code {code}, {len(lines)} lines (expected 0, 2)"]
    errs = _manifest(lines, argv)
    ver = json.loads(lines[0])
    if ver.get("passed") is not True or not all(ver.get("checks", {}).values()):
        errs.append(f"verify-witness rejects the record: {ver.get('messages')}")
    if abs(ver.get("residual", math.inf) - rec.get("residual", math.inf)) > 1e-12:
        errs.append("verify-witness residual differs from the record")
    return errs


def check_find_1d(code, stdout, argv) -> list[str]:
    """Parabola t -> (t, t^2): chord slopes are x0+x1 and y0+y1."""
    lines = stdout.splitlines()
    if code != 0 or len(lines) != 2:
        return [f"exit code {code}, {len(lines)} lines (expected 0, 2)"]
    errs = _manifest(lines, argv)
    rec = json.loads(lines[0])
    x0, x1, y0, y1 = (p[0] for p in rec["points"])
    if not x0 < y0 < y1 < x1:
        errs.append(f"ordering x0<y0<y1<x1 fails: {x0}, {y0}, {y1}, {x1}")
    if abs((x0 + x1) - (y0 + y1)) > 1e-10:
        errs.append("chords of the parabola are not parallel")
    if rec.get("found") is not True or not rec.get("residual", math.inf) <= 1e-12:
        errs.append("find-1d record not found within 1e-12")
    return errs


def check_singularity(code, stdout, argv, base: dict, d: int, c: int) -> list[str]:
    lines = stdout.splitlines()
    if code != 0 or len(lines) != 2:
        return [f"exit code {code}, {len(lines)} lines (expected 0, 2)"]
    errs = _manifest(lines, argv)
    est = json.loads(lines[0])
    bound = 4 * d - (c - 2)
    if est.get("base") != base:
        errs.append("singularity base differs from the collinear record")
    if est.get("expected_lower_bound") != bound:
        errs.append(f"expected_lower_bound {est.get('expected_lower_bound')}, expected {bound}")
    if not est.get("samples", 0) >= 1 or not est.get("estimated_dim", -1) >= bound:
        errs.append(f"estimated_dim {est.get('estimated_dim')} below {bound}")
    sv = est.get("singular_values", [])
    if any(a < b for a, b in zip(sv, sv[1:])):
        errs.append("singular values not in decreasing order")
    return errs
