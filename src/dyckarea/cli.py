"""Deterministic command-line surface.

Subcommands: eval, scan, enumerate, scaling, partition, validate.
Exit codes: 0 success, 1 verification mismatch, 2 domain error or resource
limit, 3 non-convergence, 64 usage error, 74 I/O error. The parser is built
once per process, with one flag table per command, and ``main()`` may be
called repeatedly. A well-formed ``command --flag value ...`` line is read
from that command's table with argparse's own types and choices; any other
line, and every usage error, ``-h`` and ``--version``, takes one argparse
pass with the parser of the command it names.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import __version__
from .asymptotics import g_scaling, g_uniform, scaling_s, scaling_t
from .datasets import (
    _grid,
    scan_g_vs_t,
    scan_partition,
    scan_phase_boundary,
    scan_scaling_fn,
    write_dataset,
)
from .enumeration import (
    _check_brute_force,
    build_area_polynomials,
    brute_force_area_polynomial,
    eval_G_truncated,
    table_to_csv,
    table_to_json,
)
from .errors import DyckAreaError, NonConvergenceError, ResourceLimitError
from .qseries import (
    EvalSettings,
    _nome,
    contour_h,
    euler_maclaurin_check,
    g_cfrac,
    g_ratio,
    h_series,
    t_infinity,
)
from .special_functions import scaling_F, scaling_F_series

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3
EXIT_USAGE = 64
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # command word -> its parser; set on the top level
    tables: dict[str, tuple]  # command word -> its flag table (``_table``); set on the top level

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}  # option string -> the Action storing its value
        super().__init__(*args, **kwargs)
        # a negative number is a value, not a flag, also as -1e-3 and heading a comma list
        number = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{number}(,-?{number})*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:  # -h and --version store nothing: argparse's
            self.flags.update(dict.fromkeys(action.option_strings, action))
        return action


class _UsageError(Exception):
    """Flag conflicts detected after parsing; maps to exit code 64."""


def _resolve_q(args) -> float:
    if getattr(args, "q", None) is not None and getattr(args, "eps", None) is not None:
        raise _UsageError("--q and --eps are mutually exclusive")
    if getattr(args, "eps", None) is not None:
        return _nome(args.eps)
    if getattr(args, "q", None) is not None:
        return args.q
    raise _UsageError("one of --q or --eps is required")


def _number_list(text: str, kind, flag: str) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag} must be a comma-separated list of numbers, got {text!r}") from None


def _cmd_eval(args) -> int:
    q = _resolve_q(args)
    t = args.t
    method = args.method
    if method == "series":
        # the truncated double series also accepts the q = 1 Catalan limit
        value, tail, certified = eval_G_truncated(t, q, args.n_max, full_output=True)
        provenance = (f"method=series truncation_n={args.n_max} tail_bound={tail:.3e} "
                      f"{'certified' if certified else 'estimated'}")
        print(f"{value!r}")
        print(f"# {provenance}")
        return EXIT_OK
    if method == "ratio":
        res = g_ratio(t, EvalSettings(q=q), full_output=True)
        value = res.value
        provenance = (
            f"method=ratio terms={res.terms_used} "
            f"cancellation_bits={res.bits_lost:.1f} precision_bits={res.precision_bits}"
        )
    elif method == "cfrac":
        value, depth = g_cfrac(t, q, full_output=True)
        provenance = f"method=cfrac depth={depth}"
    elif method == "uniform":
        value = g_uniform(t, q)
        provenance = f"method=uniform eps={-math.log(q):g}"
    elif method == "scaling":
        s = scaling_s(t, q)
        value = g_scaling(s, q)
        provenance = f"method=scaling s={s:.6g} eps={-math.log(q):g}"
    print(f"{value!r}")
    print(f"# {provenance}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    kind = args.kind
    if kind == "g_vs_t":
        q = _resolve_q(args)
        ds = scan_g_vs_t(q, args.t_min, args.t_max, args.steps, stamp=args.stamp)
    elif kind == "phase_boundary":
        ds = scan_phase_boundary(args.q_min, args.q_max, args.steps,
                                 tol=args.tol, stamp=args.stamp)
    elif kind == "scaling_fn":
        if not args.eps_list:
            raise _UsageError("--eps-list is required for scaling_fn scans")
        eps_list = _number_list(args.eps_list, float, "--eps-list")
        ds = scan_scaling_fn(eps_list, args.s_min, args.s_max, args.steps, stamp=args.stamp)
    elif kind == "partition":
        m_values = _number_list(args.m_list, int, "--m-list") if args.m_list else [10, 20, 30, 40]
        ds = scan_partition(args.t, m_values, n_max=args.n_max, stamp=args.stamp)
    write_dataset(ds, args.out, args.format)
    print(f"wrote {ds.n_rows} rows ({kind}) to {args.out}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    verify = args.verify_brute_force
    if verify is not None:
        if not 0 <= verify <= args.n_max:
            raise _UsageError(f"--verify-brute-force must lie in 0..--n-max ({args.n_max}), "
                              f"got {verify}")
        _check_brute_force(verify)  # past the cap: fail before the table is built
    table = build_area_polynomials(args.n_max)
    chunks = [table_to_json(table)] if args.format == "json" else table_to_csv(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        print(f"wrote table n <= {args.n_max} to {args.out}")
    else:
        sys.stdout.writelines(chunks)
    if verify is not None:
        for n in range(verify + 1):
            oracle = brute_force_area_polynomial(n)
            for m, (a, b) in enumerate(zip(table.rows[n].coeffs, oracle.coeffs)):
                if a != b:
                    print(f"FAIL row n={n}: first differing entry m={m} ({a} != {b})")
                    return EXIT_MISMATCH
            print(f"PASS row n={n} ({oracle.total()} paths)")
    return EXIT_OK


def _cmd_scaling(args) -> int:
    # everything is computed before the first line, so a failure prints nothing
    value = scaling_F(args.s)
    series, bound = scaling_F_series(args.s, args.j_max, full_output=True)
    lines = [f"F({args.s:g}) = {value!r}",
             f"series(j_max={args.j_max}) = {series!r}  truncation_bound={bound:.3e}"]
    if args.eps is not None:
        q = _resolve_q(args)
        t = scaling_t(args.s, q)
        lines.append(f"G_scaling(s={args.s:g}, eps={args.eps:g}) = {g_scaling(args.s, q)!r}  (t={t:.8f})")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_partition(args) -> int:
    ds = scan_partition(args.t, [args.m], n_max=args.n_max)
    [value], [asym] = ds.columns["Q_exact"], ds.columns["Q_asymptotic"]
    # the value is exact; the zero tail and ok=True are kept for existing parsers
    print(f"Q_{args.m}({args.t:g}) = {value!r}  (n <= {ds.metadata['n_max']}, tail ~ 0.00e+00, ok=True)")
    if not math.isnan(asym):  # NaN for m < 10, where the finite-size form is undefined
        print(f"asymptotic m^(-4/3) phi(s) = {asym!r}  ratio = {value / asym:.4f}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    results = []

    def report(name: str, ok: bool, detail: str):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        results.append(ok)

    # Euler-Maclaurin remainder bound on a complex grid
    worst = 0.0
    for q in (0.9, 0.99):
        for x in (-0.5, 0.0, 0.3, 0.6, 0.9):
            for y in (-1.0, -0.3, 0.3, 1.0):
                rc = euler_maclaurin_check(complex(x, y), q)
                worst = max(worst, abs(rc.remainder) / rc.bound)
    report("euler_maclaurin_bound", worst <= 1.0, f"max |R|/bound = {worst:.4f} on 40 points")

    # contour representation against the series
    worst = max(abs(contour_h(t, q) - (hs := h_series(t, EvalSettings(q=q)))) / abs(hs)
                for t in (0.1, 0.2) for q in (0.3, 0.5))
    report("contour_vs_series", worst < 1e-8, f"max deviation {worst:.2e} (tol 1e-8)")

    # cross-method agreement and functional equation on the standard grid
    worst_cm, worst_fe = 0.0, 0.0
    for q in (0.3, 0.5, 0.7, 0.9):
        settings = EvalSettings(q=q)
        top = 0.9 * t_infinity(q)
        ts = [0.05 * k for k in range(1, 40) if 0.05 * k <= top]
        for t in ts:
            G = g_cfrac(t, q)
            worst_cm = max(worst_cm, abs(g_ratio(t, settings) - G) / abs(G))
            worst_fe = max(worst_fe, abs(G - 1.0 - t * G * g_cfrac(q * t, q)))
    report("cross_method", worst_cm < 1e-9, f"max rel diff {worst_cm:.2e} (tol 1e-9)")
    report("functional_equation", worst_fe < 1e-8, f"max residual {worst_fe:.2e} (tol 1e-8)")

    # scaling identity (series against Airy ratio inside the disk)
    worst = 0.0
    for s in _grid(-2.0, 2.0, 21):
        worst = max(worst, abs(scaling_F_series(s, 100) - scaling_F(s)))
    report("scaling_identity", worst < 1e-6, f"max |series - ratio| = {worst:.2e} (j_max=100)")

    passed = sum(results)
    print(f"{'OK' if all(results) else 'FAILED'}: {passed}/{len(results)} checks passed")
    return EXIT_OK if all(results) else EXIT_MISMATCH


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser; built on the first call, then shared by every caller."""
    parser = _Parser(prog="dyckarea", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dyckarea {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate G(t, q) by one method; the ratio route's series "
                                    "stop where their dropped tails are certified below 2^-54")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--method", choices=["series", "ratio", "cfrac", "uniform", "scaling"],
                   required=True)
    p.add_argument("--n-max", dest="n_max", type=int, default=60)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("scan", help="write a figure-reproduction dataset")
    p.add_argument("--kind", choices=["g_vs_t", "phase_boundary", "scaling_fn", "partition"],
                   required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--eps-list", dest="eps_list")
    p.add_argument("--t", type=float, default=0.25)
    p.add_argument("--t-min", dest="t_min", type=float, default=0.01)
    p.add_argument("--t-max", dest="t_max", type=float, default=0.45)
    p.add_argument("--q-min", dest="q_min", type=float, default=0.3)
    p.add_argument("--q-max", dest="q_max", type=float, default=0.99)
    p.add_argument("--s-min", dest="s_min", type=float, default=-2.0)
    p.add_argument("--s-max", dest="s_max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--m-list", dest="m_list", help="partition: the areas m (default 10,20,30,40)")
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="partition: >= 2 max(m) (default 2 max(m)); only echoed in the metadata")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="phase_boundary: the t_inf bisection tolerance")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--stamp", action="store_true",
                   help="include a timestamp in metadata (breaks byte-for-byte determinism)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("enumerate", help="write the exact coefficient table")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.add_argument("--verify-brute-force", dest="verify_brute_force", type=int)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("scaling", help="evaluate the scaling function F(s)")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--j-max", dest="j_max", type=int, default=40)
    p.add_argument("--eps", type=float)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("partition", help="exact vs asymptotic fixed-area series; phi stops on a "
                                         "certified tail and exits 3 where its series cancels")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n-max", dest="n_max", type=int,
                   help=">= 2m (default 2m); only echoed in the output")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("validate", help="run the numerical validation suites")
    p.set_defaults(func=_cmd_validate)

    parser.commands = sub.choices
    parser.tables = {word: _table(command) for word, command in parser.commands.items()}
    return parser


def _table(command: _Parser) -> tuple[dict, dict, frozenset]:
    """A command's flag table: its flags (option string -> Action), the
    values of a line that gives none of them, and the flags it requires."""
    actions = set(command.flags.values())
    defaults = {action.dest: action.default for action in actions}
    defaults["func"] = command.get_default("func")
    return command.flags, defaults, frozenset(action for action in actions if action.required)


def _read(table: tuple[dict, dict, frozenset], argv: list[str], number: re.Pattern) -> argparse.Namespace | None:
    """The Namespace argparse would give for ``--flag value ...``, where each
    flag stores one value or, taking none (``--stamp``), its const; or None
    for a line argparse must see: an unknown or abbreviated flag,
    ``--flag=value``, a missing value, a value led by ``-`` that is not a
    ``number``, a value its type or choices reject, a required flag left out."""
    flags, values, required = table
    values, seen, i = dict(values), set(), 0
    while i < len(argv):
        action = flags.get(argv[i])
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            i += 1
        else:
            if i + 1 == len(argv) or (argv[i + 1][:1] == "-" and not number.match(argv[i + 1])):
                return None
            try:
                value = argv[i + 1] if action.type is None else action.type(argv[i + 1])
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
            i += 2
        seen.add(action)
    return argparse.Namespace(**values) if required <= seen else None


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """The arguments of one call.

    A leading command word and a line its flag table reads (``_read``) make
    no argparse pass. Any other line takes one: a leading command word goes
    straight to its own parser, and what that parser leaves over is reported
    as the top-level parse would report it; anything else (no argv, -h,
    --version, an unknown word) takes the top-level parse, which lists the
    commands.
    """
    if not argv or (command := parser.commands.get(argv[0])) is None:
        return parser.parse_args(argv)
    args = _read(parser.tables[argv[0]], argv[1:], parser._negative_number_matcher)
    if args is None:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    """Run the command in ``argv`` (default ``sys.argv[1:]``) and return its
    exit code. A well-formed line makes no argparse pass, any other one
    (``_parse``)."""
    try:
        args = _parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DyckAreaError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
