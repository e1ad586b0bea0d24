"""Command-line front end: verify identities, export series and tables.

Exit status is 0 exactly when every requested check passes, and 2, with one
line on stderr, for bad input.  Default output carries no timings, so two
runs with identical flags print identical bytes; JSON reports include
per-check elapsed milliseconds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from typing import Optional

from . import checks
from .catalog import SeriesCatalog
from .graded import ResidualMismatch, decompose_modular, e_star_poly

__all__ = ["main", "UnknownName"]


class UnknownName(KeyError):
    """The export name matches no series, table, or polynomial."""


def _export_values(name: str, order: int) -> list[str]:
    """Resolve an export name to its exact-rational value strings.

    ``delta8`` is D shifted down by one, ``tau`` is the discriminant, and
    every other name is resolved by ``SeriesCatalog.by_name``: E<2k>,
    E<2k>star, delta, theta3, C, D, r<s>, sigma<odd s> and sigma<odd s>star.
    """
    if name == "delta8":
        return SeriesCatalog(order + 1).D().to_strings()[1:]
    try:
        return SeriesCatalog(order).by_name("delta" if name == "tau" else name).to_strings()
    except KeyError as exc:
        raise UnknownName(name) from exc


def _format(fmt: str, payload: dict, header: tuple, rows) -> str:
    """The payload as indented JSON, or the rows as CSV under the header."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _poly_text(fmt: str, name: str, weight: int, poly) -> str:
    """A polynomial's sorted (a, b, c, value) records, under its name and
    weight in JSON."""
    records = poly.to_records()
    return _format(fmt, {"name": name, "weight": weight, "terms": records},
                   ("a", "b", "c", "value"), records)


def _bad_input(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _unwritable(path: str) -> Optional[str]:
    """Why no file can be written at path, or None; asked before any work, so
    a missing directory fails at once and nothing is created or truncated."""
    if not path:
        return "cannot write to an empty path"
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return f"cannot write {path}: no directory {folder}"
    if os.path.isdir(path):
        return f"cannot write {path}: it is a directory"
    return None


def _write(path: str, text: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _bad_input(f"cannot write {path}: {exc.strerror or exc}")
    return 0


def _cmd_verify(args) -> int:
    for flag in ("order", "nmax", "mmax"):
        if getattr(args, flag) < 0:
            return _bad_input(f"--{flag} must be nonnegative")
    try:
        ids = checks.resolve_ids(args.target)
    except checks.UnknownTheoremId:
        return _bad_input(f"unknown check id {args.target!r}; see `list`")
    problem = args.json not in (None, "-") and _unwritable(args.json)
    if problem:
        return _bad_input(problem)
    reports = checks.run_all(
        order=args.order,
        nmax=args.nmax,
        mmax=args.mmax,
        ids=ids,
    )
    if args.json == "-":
        json.dump([r.to_json_dict() for r in reports], sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for r in reports:
            line = r.line()
            if args.timings:
                line += f"  [{r.elapsed_ms} ms]"
            print(line)
        failed = sum(r.status != "pass" for r in reports)
        print(f"{len(reports) - failed}/{len(reports)} checks passed")
        if args.json is not None:
            text = json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
            if _write(args.json, text):
                return 2
    return 0 if all(r.status == "pass" for r in reports) else 1


def _default_order(name: str) -> int:
    # identity-sized series default to 64; the long arithmetic tables to 1000
    if name == "tau" or re.fullmatch(r"r\d+", name):
        return 1000
    return 64


def _cmd_export(args) -> int:
    m = re.fullmatch(r"E(\d+)star_poly", args.name)
    order = args.order if args.order is not None else _default_order(args.name)
    if order < 0:
        return _bad_input("--order must be nonnegative")
    problem = args.output is not None and _unwritable(args.output)
    if problem:
        return _bad_input(problem)
    try:
        if m:
            weight = int(m.group(1))
            if weight < 4 or weight % 2:
                raise UnknownName(args.name)
            cat = None if args.order is None else SeriesCatalog(order)
            text = _poly_text(args.format, args.name, weight,
                              e_star_poly(weight // 2, cat))
        else:
            values = _export_values(args.name, order)
            text = _format(args.format, {"name": args.name, "order": order,
                                         "coefficients": values},
                           ("n", "value"), enumerate(values))
    except UnknownName:
        return _bad_input(f"unknown export name {args.name!r}; see `list`")
    except ValueError as exc:  # a catalog below the polynomial's compared order
        return _bad_input(str(exc))
    if args.output is not None:
        return _write(args.output, text)
    sys.stdout.write(text)
    return 0


def _cmd_decompose(args) -> int:
    order = args.order if args.order is not None else max(64, args.weight // 2 + 8)
    if order < 0:
        return _bad_input("--order must be nonnegative")
    cat = SeriesCatalog(order)
    try:
        series = cat.by_name(args.name)
    except KeyError:
        return _bad_input(f"unknown series name {args.name!r}")
    try:
        poly = decompose_modular(series, args.weight, cat)
    except ValueError as exc:  # weight not even, or order below the window
        return _bad_input(str(exc))
    except ResidualMismatch as exc:
        print(f"{args.name} is not modular of weight {args.weight}: {exc}",
              file=sys.stderr)
        return 1
    sys.stdout.write(_poly_text(args.format, args.name, args.weight, poly))
    return 0


def _cmd_list(_args) -> int:
    print("checks:")
    for id in checks.registry_ids():
        print(f"  {id:18} {checks.REGISTRY[id].description}")
    print()
    print("exports:")
    print("  series  E<2k>, E<2k>star, delta, theta3, C, D")
    print("  tables  tau, delta8, r<s>, sigma<odd s>, sigma<odd s>star")
    print("  polys   E<2m>star_poly")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eisen2",
        description="exact verification of Eisenstein-series identities "
        "(levels 1 and 2) over rational q-expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one check, a family, or all")
    p_verify.add_argument("target", help='check id, family prefix, or "all"')
    p_verify.add_argument("--order", type=int, default=64,
                          help="series truncation order (default 64)")
    p_verify.add_argument("--nmax", type=int, default=200,
                          help="index range for convolution identities (default 200)")
    p_verify.add_argument("--mmax", type=int, default=20,
                          help="largest half-weight for the positivity check (default 20)")
    p_verify.add_argument("--timings", action="store_true",
                          help="append elapsed milliseconds to each line")
    p_verify.add_argument("--json", metavar="PATH",
                          help='write the JSON report to PATH ("-" for stdout)')
    p_verify.set_defaults(fn=_cmd_verify)

    p_export = sub.add_parser("export", help="print a series or table")
    p_export.add_argument("name")
    p_export.add_argument("--order", type=int, default=None,
                          help="truncation order (default 64; 1000 for tau, r<s>; "
                          "for E<2m>star_poly the compared order, at least 2*(m//2)+8)")
    p_export.add_argument("--format", choices=("json", "csv"), default="json")
    p_export.add_argument("--output", metavar="FILE")
    p_export.set_defaults(fn=_cmd_export)

    p_dec = sub.add_parser(
        "decompose", help="coordinates of a series over the modular monomial basis"
    )
    p_dec.add_argument("name", help="series name, resolved as for export")
    p_dec.add_argument("--weight", type=int, required=True)
    p_dec.add_argument("--order", type=int, default=None)
    p_dec.add_argument("--format", choices=("json", "csv"), default="json")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_list = sub.add_parser("list", help="known check ids and export names")
    p_list.set_defaults(fn=_cmd_list)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OverflowError:
        # a size past the platform's index range, so no list that long can
        # exist: name the largest size flag given, or else the export name
        flags = [(v, f"--{flag} {v}") for flag in ("order", "nmax", "mmax", "weight")
                 if (v := getattr(args, flag, None)) is not None]
        size = max(flags)[1] if flags else args.name
        return _bad_input(f"{size} is too large for this platform")


if __name__ == "__main__":
    sys.exit(main())
