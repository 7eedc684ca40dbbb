"""Command-line front end.

Exit codes: 0 success, 1 when a checked property fails (minor/cycle
failures found, or a search exhausts its scope budget), 2 for invalid
invocations including work-budget refusals.  Reports are deterministic:
identical arguments produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import analysis
from .code import CodeSpec, min_field_params
from .code import density as block_density
from .dts import DifferenceTriangleSet, search_min_scope, validate
from .errors import DEFAULT_BUDGET, BudgetExhausted, HorizonTooLarge, Meter, parse_digits
from .formats import matrix_to_json_dict, render_pretty, to_alist
from .gf import GaloisField, make_field

BUDGET_ENV = "DTS_LDPC_BUDGET"


def _parse_field(text: str) -> GaloisField:
    try:
        p, deg = map(parse_digits, text.split("^")) if "^" in text else (parse_digits(text), 1)
    except ValueError:
        raise ValueError(f"field must look like 'p^N' or 'p', got {text!r}") from None
    return make_field(p, deg)


def _load_dts(args: argparse.Namespace) -> DifferenceTriangleSet:
    if getattr(args, "dts", None):
        return DifferenceTriangleSet.from_inline(args.dts)
    with open(args.dts_file, encoding="utf-8") as fh:
        try:
            return DifferenceTriangleSet.from_json_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"cannot parse DTS file {args.dts_file!r}: {exc}") from None


def _build_spec(args: argparse.Namespace) -> CodeSpec:
    return CodeSpec(_load_dts(args), _parse_field(args.field), args.n)


def _budget_value(text: str, name: str) -> int:
    """A work budget: a nonnegative integer, named ``name`` when refused."""
    try:
        return parse_digits(text)
    except ValueError:
        raise ValueError(f"{name} must be a nonnegative integer, got {text!r}") from None


def _integer(text: str) -> int:
    """An integer option: ASCII digits, or ``-`` then digits for the command to refuse."""
    try:
        return -parse_digits(text[1:]) if text.startswith("-") else parse_digits(text)
    except ValueError:  # in argparse's words for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _meter(flag: Optional[str]) -> Meter:
    """One work meter for the whole command: ``--budget``, else the
    environment, else the default."""
    if flag is not None:
        return Meter(_budget_value(flag, "--budget"))
    env = os.environ.get(BUDGET_ENV)
    return Meter(_budget_value(env, BUDGET_ENV) if env else DEFAULT_BUDGET)


def _emit_json(payload: dict) -> None:
    print(_json_text(payload))


def _ints(values) -> bool:
    return {*map(type, values)} == {int}


def _json_text(value, indent: str = "") -> str:
    """The bytes of ``json.dumps(value, indent=2, sort_keys=True)``.

    A list of ints, and a list of nonempty int lists such as the entries
    of a matrix, is joined in one ``str.join`` over ``map(str, ...)``
    instead of element by element.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict) and value:
        body = sep.join(f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                        for k, v in sorted(value.items()))
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        if _ints(value):
            body = sep.join(map(str, value))
        elif {*map(type, value)} == {list} and all(value) and _ints(itertools.chain.from_iterable(value)):
            deeper = inner + "  "
            rows = map((",\n" + deeper).join, map(functools.partial(map, str), value))
            body = f"[\n{deeper}" + f"\n{inner}]{sep}[\n{deeper}".join(rows) + f"\n{inner}]"
        else:
            body = sep.join(_json_text(v, inner) for v in value)
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    return json.dumps(value)  # null, true, false, a float, or an empty container


def _int_list(text: str, allowed: set[int], flag: str) -> list[int]:
    try:
        values = [parse_digits(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of integers, got {text!r}") from None
    out = []
    for v in values:
        if v not in allowed:
            raise ValueError(f"{flag} must be among {sorted(allowed)}, got {v}")
        if v in out:
            raise ValueError(f"{flag} repeats {v}")
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_construct(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    matrix = spec.base if args.j is None else spec.sliding_matrix(args.j)
    if args.out == "json":
        _emit_json(matrix_to_json_dict(matrix))
    elif args.out == "alist":
        sys.stdout.write(to_alist(matrix))
    else:
        print(render_pretty(matrix, zero=args.zero))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    meter = _meter(args.budget)
    j = spec.mu if args.j is None else args.j
    minor_reports = [analysis.check_minors(spec, s, j, meter)
                     for s in _int_list(args.minors, {2, 3}, "--minors")]
    cycle_reports = [analysis.enumerate_cycles(spec, ln, j, meter)
                     for ln in _int_list(args.cycles, {4, 6}, "--cycles")]
    total = sum(len(r.failures) for r in minor_reports)
    total += sum(len(r.frc_failures) for r in cycle_reports)
    if args.json:
        _emit_json({
            "schema": "verify-report/v1",
            "horizon": j,
            "minors": [r.to_json_dict() for r in minor_reports],
            "cycles": [r.to_json_dict() for r in cycle_reports],
            "failures": total,
            "ok": total == 0,
        })
    else:
        strict = "yes" if validate(spec.dts, "strict").valid else "no"
        print(f"dts: {spec.dts.inline()} (strict-valid: {strict})")
        print(f"field: GF({spec.field.q})  n: {spec.n}  horizon: {j}")
        for rep in minor_reports:
            print(f"minors size={rep.size}: checked={rep.checked} "
                  f"failures={len(rep.failures)}")
            for f in rep.failures:
                print(f"  rows={f.rows} cols={f.cols} pattern={f.pattern}")
        for rep in cycle_reports:
            girth = rep.girth if rep.girth is not None else ">6"
            print(f"cycles length={rep.length}: count={len(rep.cycles)} "
                  f"frc_failures={len(rep.frc_failures)} girth={girth}")
            for c in rep.frc_failures:
                print(f"  rows={c.rows} cols={c.cols}")
        print("result: " + ("PASS" if total == 0 else f"FAIL ({total} failures)"))
    return 0 if total == 0 else 1


def _cmd_distance(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    meter = _meter(args.budget)
    if args.horizon is not None and args.horizon < analysis.exact_horizon(spec):
        free = analysis.free_distance(spec, args.horizon, meter)
        if args.json:
            _emit_json({
                "schema": "distance-profile/v1",
                "free_distance_lower_bound": free.value,
                "free_distance_upper_bound": free.upper_bound,
                "horizon": free.horizon,
            })
        else:
            print(f"free_distance: >= {free.value} (horizon {free.horizon}, "
                  f"upper bound {free.upper_bound})")
        return 0
    profile = analysis.distance_profile(spec, budget=meter)
    if args.json:
        _emit_json(profile.to_json_dict())
    else:
        print("column_distances:", " ".join(map(str, profile.column_distances)))
        print("predicted_column:", " ".join(map(str, profile.predicted_column)))
        print(f"free_distance: {profile.free.value} (exact, "
              f"upper bound {profile.free.upper_bound})")
        print(f"predicted_free: {profile.predicted_free}")
        print("assumption_holds:", "yes" if profile.assumption_check.holds else "no")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    try:
        result = search_min_scope(args.sets, args.size, mode=args.mode,
                                  min_element=args.min_element,
                                  scope_budget=args.budget, budget=_meter(None))
    except HorizonTooLarge:
        raise
    except BudgetExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit_json(result.to_json_dict(args.mode))
    else:
        print(f"scope: {result.scope}")
        print(f"sets: {result.dts.inline()}")
        scopes = ",".join(str(s) for s in result.certificate.exhausted_scopes)
        print(f"exhausted_scopes: {scopes}")
        print(f"nodes: {result.certificate.nodes}")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    value = block_density(args.n, args.w, args.mu, args.len)
    if args.json:
        _emit_json({"schema": "density/v1", "density": str(value),
                    "numerator": value.numerator, "denominator": value.denominator})
    else:
        print(value)
    return 0


def _cmd_suggest_field(args: argparse.Namespace) -> int:
    params = min_field_params(args.n, args.scope, args.w)
    if args.json:
        _emit_json({
            "schema": "field-suggestion/v1",
            "q_2x2": params.q_2x2,
            "N_3x3": params.n_3x3,
            "case_ii_q": params.q_case_ii,
            "suggested": f"{params.p}^{params.n}",
            "q": params.q,
        })
    else:
        print(f"q_2x2={params.q_2x2}")
        print(f"N_3x3={params.n_3x3}")
        print(f"case_ii_q={params.q_case_ii}")
        print(f"suggested={params.p}^{params.n}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_spec_arguments(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--dts", help="inline sets, e.g. '1,2,6;1,2,4'")
    group.add_argument("--dts-file", help="JSON file with a 'sets' list")
    sub.add_argument("--n", type=_integer, required=True, help="code block length n")
    sub.add_argument("--field", required=True, help="field order as 'p^N' or a prime")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="dts-ldpc",
        description="Construct and verify convolutional parity checks "
                    "built from difference triangle sets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    construct = subs.add_parser("construct", help="emit the base or sliding matrix")
    _add_spec_arguments(construct)
    construct.add_argument("--j", type=_integer, default=None,
                           help="horizon for the sliding matrix; omit for the base matrix")
    construct.add_argument("--out", choices=("pretty", "json", "alist"), default="pretty")
    construct.add_argument("--zero", default="0", help="token for zero entries in pretty output")
    construct.set_defaults(func=_cmd_construct)

    verify = subs.add_parser("verify", help="check minors and cycle full-rank conditions")
    _add_spec_arguments(verify)
    verify.add_argument("--j", type=_integer, default=None, help="horizon (default: memory)")
    verify.add_argument("--minors", default="2,3", help="comma list from {2,3}")
    verify.add_argument("--cycles", default="4,6", help="comma list from {4,6}")
    verify.add_argument("--budget", default=None, help="work budget in steps")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    distance = subs.add_parser("distance", help="column and free distance profile")
    _add_spec_arguments(distance)
    distance.add_argument("--horizon", type=_integer, default=None,
                          help="restrict the free-distance search horizon")
    distance.add_argument("--budget", default=None, help="work budget in steps")
    distance.add_argument("--json", action="store_true")
    distance.set_defaults(func=_cmd_distance)

    search = subs.add_parser("search", help="minimum-scope difference triangle set")
    search.add_argument("--sets", type=_integer, required=True)
    search.add_argument("--size", type=_integer, required=True)
    search.add_argument("--mode", choices=("relaxed", "strict"), default="relaxed")
    search.add_argument("--min-element", type=_integer, default=1, choices=(0, 1))
    search.add_argument("--budget", type=_integer, default=32, help="largest scope to try")
    search.add_argument("--json", action="store_true")
    search.set_defaults(func=_cmd_search)

    density = subs.add_parser("density", help="sliding-matrix density as a fraction")
    density.add_argument("--n", type=_integer, required=True)
    density.add_argument("--w", type=_integer, required=True)
    density.add_argument("--mu", type=_integer, required=True)
    density.add_argument("--len", type=_integer, required=True, help="message length in symbols")
    density.add_argument("--json", action="store_true")
    density.set_defaults(func=_cmd_density)

    suggest = subs.add_parser("suggest-field", help="field-size bounds for a DTS shape")
    suggest.add_argument("--n", type=_integer, required=True)
    suggest.add_argument("--scope", type=_integer, required=True)
    suggest.add_argument("--w", type=_integer, required=True)
    suggest.add_argument("--json", action="store_true")
    suggest.set_defaults(func=_cmd_suggest_field)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
