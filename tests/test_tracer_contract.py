"""The benchmark's tracer (clibench/tracer.py) wraps parlines functions from
outside, by the (module, attribute path) pairs in its SPANS table.  Its
self-test indexes each pair directly, so a renamed or dropped function must
fail here, in tier-1, rather than as a KeyError inside the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
