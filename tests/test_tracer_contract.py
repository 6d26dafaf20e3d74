"""The benchmark's tracer (clibench/tracer.py) wraps parlines functions from
outside, by the (module, attribute path) pairs in its SPANS table.  Its
self-test indexes each pair directly, so a renamed or dropped function must
fail here, in tier-1, rather than as a KeyError inside the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from parlines import charclass, witness
from parlines.cli import main
from parlines.f2ring import RingElement

TRACER = Path(__file__).resolve().parents[1] / "clibench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("clibench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for group, names, _ in tracer.SPANS:
        for mod, path in names:
            owner, attr = tracer._resolve(importlib.import_module(f"parlines.{mod}"), path)
            if owner is None or attr not in owner.__dict__:
                missing.append(f"{group}: parlines.{mod}.{path}")
    assert missing == []


def test_tracer_installs_without_notes_and_restores():
    tracer = _load_tracer()
    owners = [
        tracer._resolve(importlib.import_module(f"parlines.{mod}"), path)
        for _, names, _ in tracer.SPANS
        for mod, path in names
    ]
    before = [owner.__dict__[attr] for owner, attr in owners]
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.notes == [] and tr.absent == set()
        assert all(owner.__dict__[attr] is not old
                   for (owner, attr), old in zip(owners, before))
    finally:
        tr.uninstall()
    assert all(owner.__dict__[attr] is old for (owner, attr), old in zip(owners, before))


def test_minimize_result_carries_the_counts_the_tracer_reads():
    # The tracer's witness.minimize hook adds r.nfev and r.nit to integer
    # counters; a float or numpy scalar there would change the report.  They
    # are the sums over the lanes.  Here F(z) = z - 1 from two starts.
    starts = np.array([[3.0, 1.0], [1.0, -1.0]])
    r = witness.minimize(lambda zs: zs - 1.0, lambda vals: vals,
                         lambda zs, vals: np.sum(vals**2, axis=1),
                         lambda i: starts[i], 2, steps=50, tol=1e-20)
    assert type(r.nfev) is int and type(r.nit) is int
    assert r.nfev == int(r.lane_nfev.sum()) and r.nit == int(r.lane_nit.sum())
    assert (r.lane_nfev >= 3).all() and (r.lane_nit >= 1).all()
    assert r.x.shape == (2, 2)
    assert all(float(f) == float(np.sum((z - 1.0) ** 2)) for f, z in zip(r.fun, r.x))


def test_tracer_sees_the_checks_table_runs(capsys):
    # table calls its checks through the charclass module, where the tracer
    # wraps them.
    tr = _load_tracer().Tracer()
    tr.install()
    try:
        assert main(["table", "--m-max", "4"]) == 0
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert tr.calls["charclass.check"] > 0


def test_verify_classes_multiplies_on_the_ring_engine(capsys, monkeypatch):
    # The self-test's "count metrics repeat exactly" case needs positive
    # f2ring.mul counts from verify-classes --m-max 4; the prelude's
    # inverse of 1 + t is where they come from.
    calls = []
    mul = RingElement.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(RingElement, "__mul__", counting_mul)
    assert main(["verify-classes", "--m-max", "4"]) == 0
    capsys.readouterr()
    assert len(calls) > 0


def test_tracer_counts_one_invert_per_column_line(capsys):
    # f2ring.invert_calls reads one call per (m1, m2, line class) of the
    # product grid and one per k of the dual, as the untraced count test
    # in test_charclass finds.
    caches = (charclass._product_base, charclass._product_rings, charclass._dual_rings)
    for cache in caches:
        cache.cache_clear()
    tr = _load_tracer().Tracer()
    tr.install()
    try:
        assert main(["oracles", "--m1-max", "2", "--m2-max", "2", "--n-max", "4",
                     "--dual-k", "4", "--dual-n-max", "3"]) == 0
    finally:
        tr.uninstall()
        for cache in caches:
            cache.cache_clear()
    capsys.readouterr()
    assert tr.calls["f2ring.invert"] == 3 * 3 * 4 + 1
    assert tr.calls["f2ring.ring_build"] == 3 * 3 + 3 * 3 * 4 + 2
