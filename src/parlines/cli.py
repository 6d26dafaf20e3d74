"""Command line interface.

Subcommands emit one canonical JSON object per line on stdout and finish
with a run manifest line.  Exit codes: 0 success, 1 a check failed or no
witness was found, 2 invalid inputs.  Plain JSON only; NO_COLOR is honored
trivially because nothing is ever colored.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import re
import sys
import time

from . import __version__, charclass
from .charclass import (
    LINE_SPECS,
    DimensionParams,
    all_checks,
    expected_outcome,
    oracle_umkehr_dual,
    oracle_umkehr_product,
    prop_q_max_degree,
)
from .jsonio import canonical_json
from .maps import BUILTIN_NAMES, MapDescriptor, builtin_map, map_digest
from .witness import (
    _ALIASES,
    CollinearityAmbiguity,
    SearchConfig,
    WitnessRecord,
    estimate_singularity_dim,
    find_1d,
    search,
    theorem_guarantee,
    verify_witness,
)


def _emit(obj: dict) -> None:
    sys.stdout.write(canonical_json(obj) + "\n")


def _fail(message: str) -> int:
    _emit({"error": message})
    return 2


class _LoadConfig(argparse.Action):
    """``--config FILE``: the file's values become the subcommands'
    defaults when argparse binds the option, which is before it reaches
    the subcommand, so an abbreviation such as ``--conf`` reads the file
    as well."""

    def __init__(self, option_strings, dest, subs: dict, **kwargs) -> None:
        super().__init__(option_strings, dest, **kwargs)
        self.subs = subs

    def __call__(self, parser, namespace, path, option_string=None) -> None:
        setattr(namespace, self.dest, path)
        _load_config_defaults(path, self.subs)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, registered with its name and help line;
    ``fill`` adds its options, once."""

    def __init__(self, add_options, **kwargs) -> None:
        super().__init__(**kwargs)
        self._add_options = add_options

    def fill(self) -> _Subcommand:
        if self._add_options is not None:
            add_options, self._add_options = self._add_options, None
            add_options(self)
        return self


class _Dispatch(argparse._SubParsersAction):
    """The subcommands' positional: argparse calls it with the subcommand's
    name and arguments, and that one parser is filled before it parses
    them."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        # argparse has checked the name against the choices already.
        self.choices[values[0]].fill()
        super().__call__(parser, namespace, values, option_string)


def _verify_classes_options(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--m", type=int, help="single domain parameter m")
    g.add_argument("--m-max", type=int, help="sweep m = 1..m_max")


def _table_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def _oracles_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m1-max", type=int, default=5)
    p.add_argument("--m2-max", type=int, default=5)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--dual-n-max", type=int, default=16)
    p.add_argument("--dual-k", type=int, default=20)


def _map_source_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", metavar="FILE", help="map descriptor JSON file")
    p.add_argument("--builtin", choices=BUILTIN_NAMES, help="named example map")
    p.add_argument("--m", type=int, help="builtin parameter m")
    p.add_argument("--n", type=int, help="builtin parameter n")
    p.add_argument("--degree", type=int, help="builtin parameter degree")
    p.add_argument("--map-seed", type=int, help="builtin parameter seed")


def _find_witness_options(p: argparse.ArgumentParser) -> None:
    _map_source_options(p)
    p.add_argument("--case", required=True,
                   choices=[c for c in _ALIASES if c != "line_1d"])
    for fld in dataclasses.fields(SearchConfig):
        p.add_argument("--" + fld.name.replace("_", "-"), type=type(fld.default),
                       default=fld.default)
    p.add_argument("--out", metavar="FILE", help="also write the record JSON here")


def _verify_witness_options(p: argparse.ArgumentParser) -> None:
    _map_source_options(p)
    p.add_argument("--record", metavar="FILE", required=True)
    p.add_argument("--tol", type=float, default=SearchConfig.tol)


def _find_1d_options(p: argparse.ArgumentParser) -> None:
    _map_source_options(p)
    p.add_argument("--interval", type=float, nargs=2, default=(-2.0, 2.0),
                   metavar=("A", "B"))
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--samples", type=int, default=257)
    # argparse on Python 3.10-3.13 reads -1e1 or -inf as an unknown option;
    # every spelling float() parses that starts with "-" starts like this.
    p._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)


def _singularity_options(p: argparse.ArgumentParser) -> None:
    _map_source_options(p)
    p.add_argument("--record", metavar="FILE", required=True)
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--noise-scale", type=float, default=0.05)
    p.add_argument("--ratio-threshold", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=SearchConfig.tol)
    p.add_argument("--seed", type=int, default=SearchConfig.seed)


# Each subcommand's help line and the function that adds its options.
_SUBCOMMANDS = {
    "verify-classes": ("run the symbolic non-vanishing checks", _verify_classes_options),
    "table": ("tabulate check outcomes over a range of m", _table_options),
    "oracles": ("brute-force direct-image consistency grids", _oracles_options),
    "find-witness": ("multi-start witness search", _find_witness_options),
    "verify-witness": ("re-check a stored witness record", _verify_witness_options),
    "find-1d": ("guaranteed parallel chords for a map R -> R^2", _find_1d_options),
    "singularity": ("local dimension estimate around a collinear witness",
                    _singularity_options),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommands' parsers by name.

    Every subcommand is registered with its name and help line, so the
    top-level help, the choices and the usage errors are complete; a
    subcommand's options are added only when argparse dispatches to it, or
    to every subcommand when ``--config`` checks a file's keys.  A caller
    that reads a subcommand's options itself calls its ``fill()`` first.
    """
    parser = argparse.ArgumentParser(
        prog="parlines",
        description="mod-2 class checks and witness searches for parallel-line configurations",
    )
    subs = {}
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="JSON file of default option values (command line wins)",
        action=_LoadConfig,
        subs=subs,
    )
    sub = parser.add_subparsers(
        dest="command", required=True, action=_Dispatch, parser_class=_Subcommand
    )
    for name, (help_line, add_options) in _SUBCOMMANDS.items():
        subs[name] = sub.add_parser(name, help=help_line, add_options=add_options)
    return parser, subs


def _load_config_defaults(path: str, subs: dict) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise ValueError("config file must contain a JSON object")
    # A key of another subcommand's option is allowed, so that one file can
    # serve several subcommands; a key of no option at all is a mistake.
    # So every subcommand gets its options before the keys are checked.
    for p in subs.values():
        p.fill()
    known = {a.dest for p in subs.values() for a in p._actions if a.dest != "help"}
    unknown = sorted(set(defaults) - known)
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    for p in subs.values():
        # A default for one option of an exclusive group would be read next to
        # the other option given as a flag, so verify-classes' --m/--m-max
        # come from the command line only.
        grouped = {a.dest for g in p._mutually_exclusive_groups for a in g._group_actions}
        for a in p._actions:
            if a.dest not in defaults or a.dest in grouped:
                continue
            value = defaults[a.dest]
            if a.choices is not None and value not in a.choices:
                raise ValueError(
                    f"{a.dest}: invalid choice {value!r} (choose from "
                    f"{', '.join(map(str, a.choices))})"
                )
            a.default = _config_value(a, value)
            a.required = False


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_value(a: argparse.Action, value):
    """A config value as the option would get it from its flag.

    argparse converts only string defaults, so a string is left to it; a
    JSON number must already fit the option's type, and ``--interval``
    takes a list of 2 numbers.
    """
    try:
        if a.nargs == 2:
            if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
                return [float(v) for v in value]
            raise ValueError(f"{a.dest}: expected a list of 2 numbers, got {value!r}")
        if isinstance(value, str):
            return value
        if a.type is int and _is_number(value) and (isinstance(value, int) or value.is_integer()):
            return int(value)
        if a.type is float and _is_number(value):
            return float(value)
    except OverflowError:
        # float() of a JSON integer beyond the float range
        raise ValueError(f"{a.dest}: expected a number in float range, got {value!r}") from None
    kind = {int: "an integer", float: "a number"}.get(a.type, "a string")
    raise ValueError(f"{a.dest}: expected {kind}, got {value!r}")


def _resolve_map(args) -> MapDescriptor:
    if args.map and args.builtin:
        raise ValueError("give either --map or --builtin, not both")
    if args.map:
        with open(args.map, "r", encoding="utf-8") as fh:
            return MapDescriptor.from_json_dict(json.load(fh))
    if args.builtin:
        params = {}
        for key in ("m", "n", "degree"):
            val = getattr(args, key, None)
            if val is not None:
                params[key] = val
        return builtin_map(args.builtin, params, seed=args.map_seed)
    raise ValueError("a map is required: --map FILE or --builtin NAME")


def _load_record(path: str) -> WitnessRecord:
    with open(path, "r", encoding="utf-8") as fh:
        return WitnessRecord.from_json_dict(json.load(fh))


def _run_verify_classes(args) -> int:
    if args.m is not None:
        if not 1 <= args.m <= 4096:
            raise ValueError("m must lie in 1..4096")
        ms = [args.m]
    else:
        if not 1 <= args.m_max <= 4096:
            raise ValueError("m-max must lie in 1..4096")
        ms = range(1, args.m_max + 1)
    ok = True
    for m in ms:
        for rep in all_checks(m):
            _emit(rep.to_json_dict())
            if rep.passed != expected_outcome(rep.check, rep.m):
                ok = False
    return 0 if ok else 1


def _run_table(args) -> int:
    if not 1 <= args.m_max <= 4096:
        raise ValueError("m-max must lie in 1..4096")
    # The checks are looked up on their module, so that wrappers installed
    # there (a profiler's, or clibench's tracer) see these calls.
    rows = []
    for m in range(1, args.m_max + 1):
        p = DimensionParams(m)
        rows.append(
            {
                "m": m,
                "r": p.r,
                "q": p.q,
                "n": p.n,
                "theorem_a": "na" if p.boundary else str(int(charclass.check_theorem_a(m).passed)),
                "theorem_b": str(int(charclass.check_theorem_b(m).passed)),
                "corollary": str(int(charclass.check_corollary(m).passed)),
                "prop_q_top": prop_q_max_degree(m),
            }
        )
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        for row in rows:
            _emit(row)
    return 0


# The oracle grids' caps.  The dual's rings grow as dual-k squared; at the
# caps the slowest shapes, all product instances in the columns (m1-max
# 623) or all instances in dual-n-max at dual-k 64, took 0.24-0.31 s and
# 1.3-2.3 s on a shared 2-vCPU machine.
_ORACLE_INSTANCE_CAP = 10_000
_ORACLE_DUAL_K_CAP = 64


def _run_oracles(args) -> int:
    for name, val in (("m1-max", args.m1_max), ("m2-max", args.m2_max)):
        if val < 0:
            raise ValueError(f"{name} must be >= 0")
    if args.n_max < 1 or args.dual_n_max < 1 or args.dual_k < 1:
        raise ValueError("n-max, dual-n-max and dual-k must be >= 1")
    if args.dual_k > _ORACLE_DUAL_K_CAP:
        raise ValueError(f"dual-k must be <= {_ORACLE_DUAL_K_CAP}")
    product_instances = (args.m1_max + 1) * (args.m2_max + 1) * args.n_max * len(LINE_SPECS)
    instances = product_instances + args.dual_n_max
    if instances > _ORACLE_INSTANCE_CAP:
        raise ValueError(
            f"the grids have {instances} instances, more than the cap of "
            f"{_ORACLE_INSTANCE_CAP}: (m1-max+1)(m2-max+1) n-max 16 + dual-n-max"
        )
    failures = 0
    for m1 in range(args.m1_max + 1):
        for m2 in range(args.m2_max + 1):
            for n in range(1, args.n_max + 1):
                for spec in LINE_SPECS:
                    if not oracle_umkehr_product(m1, m2, n, spec):
                        failures += 1
                        _emit(
                            {
                                "oracle": "umkehr_product",
                                "m1": m1,
                                "m2": m2,
                                "n": n,
                                "line_spec": [list(s) for s in spec],
                                "agrees": False,
                            }
                        )
    for n in range(1, args.dual_n_max + 1):
        if not oracle_umkehr_dual(args.dual_k, n):
            failures += 1
            _emit({"oracle": "umkehr_dual", "k": args.dual_k, "n": n, "agrees": False})
    _emit(
        {
            "check": "oracles",
            "product_instances": product_instances,
            "dual_instances": args.dual_n_max,
            "failures": failures,
        }
    )
    return 0 if failures == 0 else 1


def _run_find_witness(args) -> int:
    f = _resolve_map(args)
    cfg = SearchConfig(**{fld.name: getattr(args, fld.name)
                          for fld in dataclasses.fields(SearchConfig)})
    guaranteed, note = theorem_guarantee(f, args.case)
    _emit(
        {
            "note": "guaranteed" if guaranteed else "exploratory",
            "case": args.case,
            "map_digest": map_digest(f),
            "detail": note,
        }
    )
    rec = search(f, args.case, cfg)
    line = rec.canonical()
    sys.stdout.write(line + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return 0 if rec.found else 1


def _run_verify_witness(args) -> int:
    f = _resolve_map(args)
    rec = _load_record(args.record)
    report = verify_witness(rec, f, tol=args.tol)
    _emit(report.to_json_dict())
    return 0 if report.passed else 1


def _run_find_1d(args) -> int:
    f = _resolve_map(args)
    try:
        rec = find_1d(f, tuple(args.interval), tol=args.tol, samples=args.samples)
    except CollinearityAmbiguity as exc:
        _emit({"error": f"collinearity ambiguity: {exc}"})
        return 1
    _emit(rec.to_json_dict())
    return 0 if rec.found else 1


def _run_singularity(args) -> int:
    f = _resolve_map(args)
    base = _load_record(args.record)
    cfg = SearchConfig(tol=args.tol, seed=args.seed)
    est = estimate_singularity_dim(
        f,
        base,
        n_samples=args.samples,
        cfg=cfg,
        noise_scale=args.noise_scale,
        ratio_threshold=args.ratio_threshold,
    )
    _emit(est.to_json_dict())
    return 0


_RUNNERS = {
    "verify-classes": _run_verify_classes,
    "table": _run_table,
    "oracles": _run_oracles,
    "find-witness": _run_find_witness,
    "verify-witness": _run_verify_witness,
    "find-1d": _run_find_1d,
    "singularity": _run_singularity,
}


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, _ = build_parser()
    try:
        args = parser.parse_args(argv)
    except (OSError, ValueError) as exc:
        # Only --config's action raises these: argparse reports its own
        # errors and exits.
        return _fail(f"bad config file: {exc}")
    start = time.perf_counter()
    try:
        code = _RUNNERS[args.command](args)
        outcome = {0: "ok", 1: "failed"}[code]
    except BrokenPipeError:
        # The reader is gone: there is no one to tell, console_main ends it.
        raise
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc)})
        code, outcome = 2, f"invalid input: {exc}"
    _emit(
        {
            "manifest": {
                "tool": "parlines",
                "version": __version__,
                "command": argv,
                "seed": getattr(args, "seed", None),
                "wall_time_s": time.perf_counter() - start,
                "outcome": outcome,
            }
        }
    )
    return code


def console_main() -> None:
    try:
        code = main()
        # Flush here, so that a closed pipe raises inside this try.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit, into the closed pipe: point
        # it at devnull first, as the Python docs' recipe for SIGPIPE does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
