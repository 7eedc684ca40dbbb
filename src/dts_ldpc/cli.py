"""Command-line front end.

Exit codes: 0 success, 1 when a checked property fails (minor/cycle
failures found, or a search exhausts its scope budget), 2 for invalid
invocations including work-budget refusals, and 141 (128 + SIGPIPE), with
nothing on stderr, when the reader of stdout has gone.  Reports are
deterministic: identical arguments produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from . import analysis
from .code import CodeSpec, min_field_params
from .code import density as block_density
from .dts import DifferenceTriangleSet, search_min_scope, validate
from .errors import DEFAULT_BUDGET, BudgetExhausted, HorizonTooLarge, Meter, parse_digits
from .formats import _zero_refusal, render_pretty, to_alist, to_json
from .gf import GaloisField, make_field

BUDGET_ENV = "DTS_LDPC_BUDGET"


def _parse_field(text: str) -> GaloisField:
    try:
        p, deg = map(parse_digits, text.split("^")) if "^" in text else (parse_digits(text), 1)
    except ValueError:
        raise ValueError(f"field must look like 'p^N' or 'p', got {text!r}") from None
    return make_field(p, deg)


def _load_dts(args: argparse.Namespace) -> DifferenceTriangleSet:
    if args.dts is not None:
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
    """An integer option: ASCII digits, or ``-`` then digits for ``main`` to refuse."""
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


def _json_text(value, indent: str = "") -> str:
    """The bytes of ``json.dumps(value, indent=2, sort_keys=True)``.

    One type test picks the writer for the exact ``int``, ``str`` and
    nonempty ``dict``, ``list`` and ``tuple`` the payloads hold.  Anything
    else is ``json.dumps``'d: a scalar or empty container without
    ``indent``, which would switch ``json`` to its pure-Python encoder, a
    nonempty container subclass with it, moved to its depth (a JSON
    string holds no raw newline).  A list of ints is joined in one
    ``str.join`` over ``map(str, ...)`` instead of element by element.
    """
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # null, true, false, a float, a str or int subclass, or an empty container
    if kind not in (dict, list, tuple):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is dict:
        body = sep.join(f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                        for k, v in sorted(value.items()))
        return f"{{\n{inner}{body}\n{indent}}}"
    if all(type(v) is int for v in value):
        body = sep.join(map(str, value))
    else:
        body = sep.join(_json_text(v, inner) for v in value)
    return f"[\n{inner}{body}\n{indent}]"


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
    reason = _zero_refusal(args.zero) if args.out == "pretty" else None
    if reason:
        raise ValueError(f"--zero {reason}, got {args.zero!r}")
    spec = _build_spec(args)
    matrix = spec.base if args.j is None else spec.sliding_matrix(args.j)
    size = (matrix.rows * matrix.cols if args.out == "pretty"
            else matrix.rows + matrix.cols + matrix.nonzero_count)
    _meter(None).charge(size)  # the size of the output, before any of it is built
    if args.out == "json":
        print(to_json(matrix))
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
        # the column distance at the horizon bounds the free distance below
        bound = analysis.column_distance(spec, args.horizon, meter)
        if args.json:
            _emit_json({
                "schema": "distance-profile/v1",
                "free_distance_lower_bound": bound,
                "free_distance_upper_bound": spec.w + 1,
                "horizon": args.horizon,
            })
        else:
            print(f"free_distance: >= {bound} (horizon {args.horizon}, upper bound {spec.w + 1})")
        return 0
    profile = analysis.distance_profile(spec, budget=meter)
    if args.json:
        _emit_json(profile.to_json_dict())
    else:
        print("column_distances:", " ".join(map(str, profile.column_distances)))
        print("predicted_column:", " ".join(map(str, profile.predicted_column)))
        print(f"free_distance: {profile.free} (exact, upper bound {profile.predicted_free})")
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
    if args.w > args.mu + 1:
        raise ValueError(f"--w must be <= --mu + 1 = {args.mu + 1}, got {args.w}")
    value = block_density(args.n, args.w, args.mu, args.len)
    if args.json:
        _emit_json({"schema": "density/v1", "density": str(value),
                    "numerator": value.numerator, "denominator": value.denominator})
    else:
        print(value)
    return 0


def _cmd_suggest_field(args: argparse.Namespace) -> int:
    if args.w > args.scope:
        raise ValueError(f"--w must be <= --scope = {args.scope}, got {args.w}")
    params = min_field_params(args.n, args.scope, args.w)
    # str() refuses ints past its digit limit; the exponent is at most
    # N_3x3 or the bit length of q_2x2, so it prints once they do, and
    # q >= 2**n, so a q far past the limit is not computed
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        for name, value in (("q_2x2", params.q_2x2), ("N_3x3", params.n_3x3),
                            ("case_ii_q", params.q_case_ii)):
            if value >= 10**limit:
                raise ValueError(f"{name} has more than {limit} digits to print")
        if args.json and not (params.n < 4 * limit and params.q < 10**limit):
            raise ValueError(f"q = {params.p}^{params.n} has more than {limit} digits to print")
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

class _Option:
    """One option of a subcommand, read by both parsers.

    ``_build_parser`` adds it to argparse and ``_parse_direct`` reads it,
    so the two cannot drift apart.  ``dest`` is the one argparse derives
    from the flag, an option with a ``low`` is an integer (``_integer``)
    that ``main`` refuses below ``low``, a ``store_true`` option takes no
    value, and the ``exclusive`` options of a command form one required
    group, of which exactly one is given.  (A plain class: a
    ``NamedTuple`` would add about 0.4 ms to every start-up.)
    """
    __slots__ = ("flag", "dest", "low", "choices", "default", "required", "store_true",
                 "exclusive", "help")

    def __init__(self, flag: str, *, low: Optional[int] = None,
                 choices: Optional[tuple] = None, default: Any = None, required: bool = False,
                 store_true: bool = False, exclusive: bool = False,
                 help: Optional[str] = None) -> None:
        self.flag, self.dest = flag, flag[2:].replace("-", "_")
        self.low, self.choices, self.default = low, choices, default
        self.required, self.store_true, self.exclusive = required, store_true, exclusive
        self.help = help


_SPEC_OPTIONS = (
    _Option("--dts", exclusive=True, help="inline sets, e.g. '1,2,6;1,2,4'"),
    _Option("--dts-file", exclusive=True, help="JSON file with a 'sets' list"),
    _Option("--n", low=2, required=True, help="code block length n"),
    _Option("--field", required=True, help="field order as 'p^N' or a prime"),
)
_JSON = _Option("--json", default=False, store_true=True)
_BUDGET = _Option("--budget", help="work budget in steps")

# name: (function, help, options in the order argparse lists them)
_COMMANDS = {
    "construct": (_cmd_construct, "emit the base or sliding matrix", (
        *_SPEC_OPTIONS,
        _Option("--j", low=0,
                help="horizon for the sliding matrix; omit for the base matrix"),
        _Option("--out", choices=("pretty", "json", "alist"), default="pretty"),
        _Option("--zero", default="0", help="token for zero entries in pretty output"),
    )),
    "verify": (_cmd_verify, "check minors and cycle full-rank conditions", (
        *_SPEC_OPTIONS,
        _Option("--j", low=0, help="horizon (default: memory)"),
        _Option("--minors", default="2,3", help="comma list from {2,3}"),
        _Option("--cycles", default="4,6", help="comma list from {4,6}"),
        _BUDGET,
        _JSON,
    )),
    "distance": (_cmd_distance, "column and free distance profile", (
        *_SPEC_OPTIONS,
        _Option("--horizon", low=0, help="restrict the free-distance search horizon"),
        _BUDGET,
        _JSON,
    )),
    "search": (_cmd_search, "minimum-scope difference triangle set", (
        _Option("--sets", low=1, required=True),
        _Option("--size", low=1, required=True),
        _Option("--mode", choices=("relaxed", "strict"), default="relaxed"),
        _Option("--min-element", low=0, choices=(0, 1), default=1),
        _Option("--budget", low=0, default=32, help="largest scope to try"),
        _JSON,
    )),
    "density": (_cmd_density, "sliding-matrix density as a fraction", (
        _Option("--n", low=2, required=True),
        _Option("--w", low=1, required=True),
        _Option("--mu", low=0, required=True),
        _Option("--len", low=1, required=True, help="message length in symbols"),
        _JSON,
    )),
    "suggest-field": (_cmd_suggest_field, "field-size bounds for a DTS shape", (
        _Option("--n", low=2, required=True),
        _Option("--scope", low=1, required=True),
        _Option("--w", low=1, required=True),
        _JSON,
    )),
}
# for the direct parse: each command's options by flag, the namespace of
# its defaults, and the dests of its required and of its exclusive options
_DIRECT = {
    name: ({opt.flag: opt for opt in options},
           {"command": name, "func": func, **{opt.dest: opt.default for opt in options}},
           frozenset(opt.dest for opt in options if opt.required),
           frozenset(opt.dest for opt in options if opt.exclusive))
    for name, (func, _, options) in _COMMANDS.items()
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from ``_COMMANDS`` on first use and
    kept for the process."""
    parser = argparse.ArgumentParser(
        prog="dts-ldpc",
        description="Construct and verify convolutional parity checks "
                    "built from difference triangle sets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in _COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        sub.set_defaults(func=func)
        group = None
        for opt in options:
            if opt.exclusive and group is None:
                group = sub.add_mutually_exclusive_group(required=True)
            target = group if opt.exclusive else sub
            if opt.store_true:
                target.add_argument(opt.flag, dest=opt.dest, action="store_true", help=opt.help)
            else:
                kind = None if opt.low is None else _integer
                target.add_argument(opt.flag, dest=opt.dest, type=kind, choices=opt.choices,
                                    default=opt.default, required=opt.required, help=opt.help)
    return parser


def _parse_direct(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace ``parser.parse_args(argv)`` gives, read off
    ``_COMMANDS`` with no argparse, or ``None`` when argparse must decide.

    It takes only a known command followed by exact flags of that
    command, each given once, each valued flag followed by a value that
    does not start with ``-`` and that ``_integer`` (for an option with
    a ``low``) and the choices accept,
    with every required option and exactly one exclusive option given.
    Anything else (help, abbreviations, ``--flag=value``, repeats,
    ``--``, stray or missing values, no command) is argparse's to parse
    or to refuse, in its own words.
    """
    entry = _DIRECT.get(argv[0]) if argv else None
    if entry is None:
        return None
    flags, defaults, required, exclusive = entry
    values = {}
    i, end = 1, len(argv)
    while i < end:
        opt = flags.get(argv[i])
        if opt is None or opt.dest in values:
            return None
        if opt.store_true:
            values[opt.dest] = True
            i += 1
            continue
        if i + 1 == end or argv[i + 1][:1] == "-":
            return None
        value = argv[i + 1]
        if opt.low is not None:
            try:
                value = _integer(value)
            except argparse.ArgumentTypeError:  # argparse words it
                return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
        i += 2
    if not required <= values.keys() or exclusive and len(exclusive & values.keys()) != 1:
        return None
    args = argparse.Namespace()  # filled as argparse.Namespace(**defaults, **values), faster
    vars(args).update(defaults)
    vars(args).update(values)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace ``parser.parse_args(argv)`` gives: well-formed argv
    is read off ``_COMMANDS`` with no argparse, any other is argparse's."""
    return _parse_direct(argv) or _build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for opt in _COMMANDS[args.command][2]:  # each range before the command runs
            value = getattr(args, opt.dest)
            if opt.low is not None and value is not None and value < opt.low:
                raise ValueError(f"{opt.flag} must be >= {opt.low}, got {value}")
        code = args.func(args)
        # flush here, so that a reader gone before the last chunk is
        # written is also caught below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone (`... | head`): exit quietly as a
        # tool killed by SIGPIPE would, and send what is still buffered to
        # the null device, so the flush at interpreter exit raises nothing.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no file descriptor, or closed
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
