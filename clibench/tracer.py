"""Per-layer tracing of one parlines CLI command, installed from outside.

The modules bind each other with ``from ... import``, so a function is
wrapped at every name a caller looks it up by (``witness.eval_map``, not
only ``maps.eval_map``).  Wrappers of one group share a depth counter: a
call made while a span of the same group is open (recursion, or
``ring_y0`` calling ``ring_truncated``) is not a new span.  Spans nest in
one stack, so each span's self time is its duration minus the time of the
spans opened directly inside it.  Every patched name is restored by
``uninstall``; a name missing from the imported modules is noted, and a
group with no name found reports ``None`` for its metrics.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

_MISSING = object()


def _points(args, kwargs):
    pts = kwargs.get("points", args[1] if len(args) > 1 else None)
    shape = getattr(pts, "shape", None)
    if shape is None:
        return 0
    return 1 if len(shape) == 1 else int(shape[0])


def _json_bytes(tr, args, kwargs, result):
    # The manifest line is left out: its wall-time digits vary run to run.
    if not (isinstance(args[0], dict) and "manifest" in args[0]):
        tr.add("jsonio.bytes_out", len(result.encode("utf-8")))


def _singularity(tr, args, kwargs, result):
    tr.add("witness.singularity_tried", kwargs.get("n_samples", 32))
    tr.add("witness.singularity_accepted", result.samples)


# (group, [(module, attribute path)], counter hook or None).  The hook runs
# after the span closes, so its own cost is not charged to the span.
SPANS = [
    ("cli.main", [("cli", "main")], None),
    (
        "f2ring.mul",
        [("f2ring", "RingElement.__mul__")],
        lambda tr, a, k, r: tr.add(
            "f2ring.mul_term_pairs", len(a[0].terms) * len(getattr(a[1], "terms", ()))
        ),
    ),
    (
        "f2ring.invert",
        [("f2ring", "invert"), ("charclass", "invert")],
        lambda tr, a, k, r: tr.add("f2ring.invert_terms_out", len(r.terms)),
    ),
    (
        "f2ring.ring_build",
        [
            (mod, name)
            for mod in ("f2ring", "charclass")
            for name in (
                "ring_truncated", "ring_projective", "ring_yhat", "ring_y0",
                "ring_adjoin_x", "ring_proj_bundle",
            )
        ],
        None,
    ),
    (
        "charclass.check",
        [
            ("charclass", name)
            for name in (
                "check_prelude", "check_theorem_b", "check_theorem_a",
                "check_theorem_a_v2", "check_corollary", "check_prop_q",
            )
        ],
        None,
    ),
    (
        "charclass.prop_q_max_degree",
        [("cli", "prop_q_max_degree"), ("charclass", "prop_q_max_degree")],
        None,
    ),
    (
        "charclass.oracle",
        [
            (mod, name)
            for mod in ("cli", "charclass")
            for name in ("oracle_umkehr_product", "oracle_umkehr_dual")
        ],
        None,
    ),
    (
        "maps.eval_map",
        [("witness", "eval_map"), ("maps", "eval_map")],
        lambda tr, a, k, r: tr.add("maps.eval_points", _points(a, k)),
    ),
    (
        "witness.search",
        [("cli", "search"), ("witness", "search")],
        lambda tr, a, k, r: tr.add("witness.restarts", r.restarts_used),
    ),
    (
        "witness.minimize",
        [("witness", "minimize")],
        lambda tr, a, k, r: (tr.add("witness.nfev", r.nfev), tr.add("witness.nit", r.nit)),
    ),
    (
        "witness.residual",
        [
            ("witness", name)
            for name in ("parallel_residual", "collinear_residual", "lin_dep_residual")
        ],
        None,
    ),
    (
        "witness.singularity",
        [("cli", "estimate_singularity_dim"), ("witness", "estimate_singularity_dim")],
        _singularity,
    ),
    (
        "witness.verify",
        [("cli", "verify_witness"), ("witness", "verify_witness")],
        None,
    ),
    (
        "jsonio.canonical_json",
        [(mod, "canonical_json") for mod in ("jsonio", "cli", "witness", "maps")],
        _json_bytes,
    ),
]


def _resolve(module, path):
    """(owner, attribute name) for ``Class.attr`` or ``attr`` in a module."""
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, _MISSING)
        if owner is _MISSING:
            return None, attr
    return owner, attr


class Tracer:
    """Spans and counters for one process; ``install``/``uninstall`` patch names."""

    def __init__(self, spans=SPANS) -> None:
        self.spans = spans
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.notes: list[str] = []
        self.absent: set[str] = set()
        self._depth = defaultdict(int)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def add(self, counter: str, value) -> None:
        self.counts[counter] += value

    def _wrap(self, group, original, hook):
        def traced(*args, **kwargs):
            if self._depth[group]:
                return original(*args, **kwargs)
            self._depth[group] += 1
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._depth[group] -= 1
                self.calls[group] += 1
                self.total_s[group] += elapsed
                self.self_s[group] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for group, names, hook in self.spans:
            found = 0
            for mod_name, path in names:
                try:
                    module = importlib.import_module(f"parlines.{mod_name}")
                except ImportError:
                    self.notes.append(f"module parlines.{mod_name} not found")
                    continue
                owner, attr = _resolve(module, path)
                original = _MISSING if owner is None else owner.__dict__.get(attr, _MISSING)
                if original is _MISSING:
                    self.notes.append(f"{mod_name}.{path} not found")
                    continue
                setattr(owner, attr, self._wrap(group, original, hook))
                self._patches.append((owner, attr, original))
                found += 1
            if not found:
                self.absent.add(group)
                self.notes.append(f"{group}: no traced name exists, metrics are null")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
            "notes": list(self.notes),
        }
