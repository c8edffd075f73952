"""Command-line entry point.

Commands map one-to-one onto the library layers: `bound` prints the
certified norm bound, `minima` runs exact enumeration, `verify-craig`
chains bound -> verdict -> enumeration -> factorization -> theta
cross-check, `set-e` materializes the characteristic set, and
`theta` / `psi` expose the counting and truncated-sum machinery.

Exit codes: 0 success, 1 verification or self-test failure, 2 bad input
or degenerate simplex, 3 precision failure, 4 node or simplex budget
exceeded, or an ideal norm or bound with more decimal digits than Python
converts to text (sys.get_int_max_str_digits), 141 (128 + SIGPIPE)
standard output closed by its reader.
JSON output carries a "schema": "1" field and is byte-deterministic for
a fixed configuration.

A plain, valid command line is read straight from the flag table
(_COMMANDS, _FLAG_SETS) without importing argparse; help, usage, errors,
abbreviations and --flag=value go to an argparse parser built from the
same table.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import lattice, svp, theta
from .bound import (
    BoundReport,
    Verdict,
    ideal_bound,
    norm_gap_verdict,
    theorem_bound,
    with_verdict,
)
from .embeddings import normalize_weights, weights_are_equal_rational
from .errors import (
    BudgetExceededError,
    CmsvpError,
    DegenerateSimplexError,
    InputError,
    NonPrimeConductorError,
    NotPositiveDefiniteError,
    PrecisionError,
    SelfTestError,
)
from .field import CMField, is_prime, real_norm
from .interval import (
    DEFAULT_PRECISION,
    MAX_BITS,
    MIN_BITS,
    PrecisionConfig,
    RealInterval,
    decimal_str,
    interval_json,
    sum_str,
)
from .units import UnitBasis, cyclotomic_unit_basis, load_unit_basis

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECISION = 3
EXIT_BUDGET = 4
EXIT_BROKEN_PIPE = 141

THETA_CHECK_NORM = Fraction(12)


def _fmt(iv: RealInterval, digits: int = 15) -> str:
    return f"[{decimal_str(iv.lo, digits, 'floor')}, {decimal_str(iv.hi, digits, 'ceil')}]"


def _fmt_mu(mu) -> str:
    if isinstance(mu, RealInterval):
        return _fmt(mu)
    return str(mu)


def _emit(payload: dict, text, as_json: bool) -> None:
    """Print payload as one JSON line under --json, else the lines that
    text() yields; the text lines are built only then."""
    if as_json:
        print(json.dumps({"schema": "1", **payload}, sort_keys=True, separators=(",", ":")))
    else:
        for line in text():
            print(line)


# ---------------------------------------------------------------------------
# config extraction


def _field_from(args) -> CMField:
    if args.cyclotomic is None:
        raise InputError("--cyclotomic N is required for this command")
    return CMField(args.cyclotomic)


def _basis_from(field: CMField, args) -> UnitBasis:
    if args.units:
        return load_unit_basis(field, args.units)
    try:
        return cyclotomic_unit_basis(field)
    except NonPrimeConductorError as exc:
        raise InputError(
            f"conductor {field.conductor} has no built-in unit basis; supply --units FILE"
        ) from exc


def _rational(text: str, what: str) -> Fraction:
    """`text` as an exact rational; InputError naming `what` if it is not one."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {what} {text!r}") from exc


def _weights_from(args):
    if args.weights is None:
        return None
    return tuple(_rational(p, "weight") for p in args.weights.split(","))


def _kappa_from(field: CMField, args):
    """Ideal generator from --ideal-exp r (kappa = (1 - zeta)^r) or
    --ideal-gen coords; None when neither is given or r = 0."""
    if args.ideal_exp is not None:
        r = args.ideal_exp
        if r < 0:
            raise InputError("--ideal-exp must be nonnegative")
        return _one_minus_zeta_power(field, r)
    if args.ideal_gen is not None:
        gen = field.parse(args.ideal_gen)
        if gen.is_zero():
            raise InputError("ideal generator must be nonzero")
        return gen
    return None


def _one_minus_zeta_power(field: CMField, r: int):
    """(1 - zeta)^r, the ideal generator of --ideal-exp and of Craig's
    lattices; None at r = 0, where the ideal is O_F itself."""
    return (field.one() - field.zeta(1)) ** r if r else None


# ---------------------------------------------------------------------------
# commands


def _bound_payload(report: BoundReport) -> dict:
    payload = {
        "command": "bound",
        "conductor": report.conductor,
        "k": report.k,
        "basis": report.basis_provenance,
        "bound": interval_json(report.bound),
        "simplices": [
            {
                "perm": list(s.perm),
                "detA": interval_json(s.det_a),
                "detB": [interval_json(b) for b in s.det_b],
                "value": interval_json(s.value),
            }
            for s in report.simplices
        ],
    }
    if report.ideal_norm is not None:
        payload["ideal_norm"] = report.ideal_norm
        payload["ideal_bound"] = interval_json(report.ideal_bound)
    if report.verdict is not None:
        payload["verdict"] = report.verdict.value
    return payload


def cmd_bound(args) -> int:
    field = _field_from(args)
    basis = _basis_from(field, args)
    kappa = _kappa_from(field, args)
    if kappa is None:
        report = theorem_bound(field, basis, args.prec)
    else:
        report = ideal_bound(field, basis, kappa, args.prec)
    if is_prime(field.conductor):
        report = with_verdict(report, norm_gap_verdict(report, field.conductor))
    # Python prints no integer of more digits than its limit (0: none), so
    # a large ideal is refused here, from the exact sizes, not mid-output
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    ideal = report.ideal_norm is not None
    if limit and ideal and max(report.ideal_norm, math.ceil(report.ideal_bound.hi)) >= 10**limit:
        print(
            f"budget exceeded: the ideal norm or bound has more than {limit} decimal digits, "
            "the limit of Python's integer-to-text conversion (sys.get_int_max_str_digits)",
            file=sys.stderr,
        )
        return EXIT_BUDGET

    def text():
        yield f"conductor {report.conductor}  k {report.k}  basis {report.basis_provenance}"
        yield f"bound {_fmt(report.bound, 25)}"
        for s in report.simplices:
            yield f"simplex {s.perm}: value {_fmt(s.value, 25)}"
            yield f"  det A {_fmt(s.det_a)}"
            for l, b in enumerate(s.det_b):
                yield f"  det B_{l} {_fmt(b)}"
        if report.ideal_norm is not None:
            yield f"ideal norm {report.ideal_norm}"
            yield f"ideal bound {_fmt(report.ideal_bound, 25)}"
        if report.verdict is not None:
            yield f"verdict {report.verdict.value}"

    _emit(_bound_payload(report), text, args.json)
    return EXIT_OK


def cmd_minima(args) -> int:
    field = _field_from(args)
    w = _weights_from(args)
    kappa = _kappa_from(field, args)
    mv = svp.minimal_vectors(field, w, kappa, args.prec, args.budget)

    def text():
        yield f"mu {_fmt_mu(mv.mu)}"
        yield f"count {mv.count}  radius {mv.radius}  nodes {mv.nodes}"
        yield from ("  " + ",".join(str(c) for c in v) for v in mv.vectors)

    _emit({"command": "minima", **mv.to_json()}, text, args.json)
    return EXIT_OK


def cmd_set_e(args) -> int:
    field = _field_from(args)
    basis = _basis_from(field, args)
    report = theorem_bound(field, basis, args.prec)
    ch = svp.characteristic_set_E(field, basis, report, args.prec, args.budget)

    def text():
        yield f"size {ch.size}  norm bound {_fmt(report.bound, 25)}"
        yield from ("  " + ",".join(str(c) for c in e.coords) for e in ch.elements)

    _emit({"command": "set-e", **ch.to_json()}, text, args.json)
    return EXIT_OK


def _parse_circulant(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("--circulant expects 'n,r'")
    try:
        n, r = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"bad --circulant value {text!r}") from exc
    return n, r


def cmd_theta(args) -> int:
    max_norm = _rational(args.max_norm, "--max-norm value")
    if args.circulant is not None:
        if args.weights is not None or args.ideal_exp is not None or args.ideal_gen is not None:
            raise InputError("--circulant takes no --weights, --ideal-exp or --ideal-gen")
        n, r = _parse_circulant(args.circulant)
        g = svp.craig_circulant(n, r)
        source = f"circulant {n},{r}"
    else:
        field = _field_from(args)
        w, kappa = _weights_from(args), _kappa_from(field, args)
        if not weights_are_equal_rational(normalize_weights(field, w)):
            raise InputError("theta counting needs equal rational weights")
        g = svp.gram_matrix(field, w, kappa)
        source = f"cyclotomic {field.conductor}"
    tp = theta.theta_prefix(g, max_norm, args.budget)

    def text():
        yield f"{source}  scale {tp.scale}"
        yield from (f"  norm {m * tp.scale}: {c}" for m, c in tp.coefficients)

    _emit({"command": "theta", **tp.to_json()}, text, args.json)
    return EXIT_OK


def cmd_psi(args) -> int:
    field = _field_from(args)
    t = _rational(args.t, "--t value")
    sample = theta.psi_truncated(field, _weights_from(args), t, args.prec, args.budget)

    def text():
        yield f"t {sample.t}  truncation radius {sample.radius}"
        yield f"value {_fmt(sample.value, 40)}"
        yield f"tail  [0, {decimal_str(sample.tail.hi, 40, 'ceil')}]"
        upper = sum_str((sample.value.hi, sample.tail.hi), 40, "ceil")
        yield f"enclosure [{decimal_str(sample.value.lo, 40, 'floor')}, {upper}]"

    _emit({"command": "psi", **sample.to_json()}, text, args.json)
    return EXIT_OK


def _parse_r_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise InputError(f"bad -r range {text!r}") from exc
    if lo < 0 or hi < lo:
        raise InputError(f"bad -r range {text!r}")
    return lo, hi


def _craig_check(field: CMField, p: int, r: int, prec, budget) -> tuple[dict, object]:
    """One verify-craig leg: enumerate, factor out (1 - zeta)^r, cross-check
    theta counts against the circulant model (A_(p-1)^* at r = 0).  Returns
    the leg's JSON record and its minimum."""
    kappa = _one_minus_zeta_power(field, r)
    mv = svp.minimal_vectors(field, None, kappa, prec, budget)
    # a minimal vector is alpha = kappa * v with v its coordinates in the
    # basis kappa zeta^i, so alpha / kappa is v itself; the multiples
    # +-zeta^k v are units together and share v conj(v), so one v per
    # distinct v conj(v) decides them all, a unit exactly when its norm is 1
    betas = {v.times_conj() for v in map(field.element, mv.vectors)}
    factored = all(real_norm(b) == 1 for b in betas)
    # the circulant's table to THETA_CHECK_NORM is compared with that of
    # the ideal's form times 2/p: the ideal's own table to
    # THETA_CHECK_NORM p/2, every norm times 2/p
    tc = theta.theta_prefix(svp.craig_circulant(p - 1, r), THETA_CHECK_NORM, budget)
    ti = theta.theta_prefix(svp.gram_matrix(field, None, kappa, prec), THETA_CHECK_NORM * p / 2, budget)
    scale = Fraction(2, p)
    match = tc.norm_counts() == {scale * q: c for q, c in ti.norm_counts().items()}
    check = {
        "r": r,
        "mu": mv.to_json()["mu"],
        "count": mv.count,
        "factorization": "pass" if factored else "fail",
        "theta": "pass" if match else "fail",
        "status": "pass" if factored and match else "fail",
    }
    return check, mv.mu


def cmd_verify_craig(args) -> int:
    p = args.p
    if not is_prime(p) or p < 5:
        raise InputError(f"-p must be a prime >= 5, got {p}")
    r_lo, r_hi = _parse_r_range(args.r)
    field = CMField(p)
    basis = cyclotomic_unit_basis(field)
    report = theorem_bound(field, basis, args.prec)
    verdict = norm_gap_verdict(report, p)
    legs = []
    if verdict is Verdict.INCONCLUSIVE:
        status = "inconclusive"
    else:
        legs = [_craig_check(field, p, r, args.prec, args.budget) for r in range(r_lo, r_hi + 1)]
        status = "pass" if all(check["status"] == "pass" for check, _ in legs) else "fail"
    payload = {
        "command": "verify-craig",
        "p": p,
        "bound": interval_json(report.bound),
        "verdict": verdict.value,
        "checks": [check for check, _ in legs],
        "status": status,
    }

    def text():
        yield f"p {p}  bound {_fmt(report.bound, 25)}  verdict {verdict.value}"
        if status == "inconclusive":
            yield (
                "bound does not separate units from higher-norm elements; "
                "minimal-vector checks are not certified for this conductor"
            )
            return
        for check, mu in legs:
            yield (
                f"r={check['r']}: mu {_fmt_mu(mu)}  count {check['count']}  "
                f"factorization {check['factorization'].upper()}  "
                f"theta {check['theta'].upper()}  {check['status'].upper()}"
            )
        yield "all checks PASS" if status == "pass" else "FAIL"

    _emit(payload, text, args.json)
    return EXIT_VERIFY_FAIL if status == "fail" else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _node_budget(text: str) -> int:
    """--budget value: a nonnegative node count."""
    if not text.isdigit():
        import argparse

        raise argparse.ArgumentTypeError(f"expected a nonnegative node count, got {text!r}")
    return int(text)


def _precision(text: str) -> PrecisionConfig:
    """--bits value: the starting precision, checked against its range."""
    try:
        return PrecisionConfig(int(text))
    except ValueError as exc:
        import argparse

        raise argparse.ArgumentTypeError(
            f"expected an integer from {MIN_BITS} to {MAX_BITS} bits, got {text!r}"
        ) from exc


def _flag(name: str, **keywords) -> tuple:
    """One flag of _FLAG_SETS: its name and add_argument keywords."""
    return name, keywords


_CYCLOTOMIC = _flag("--cyclotomic", type=int, metavar="N", help="cyclotomic conductor")

# Named sets of flags; the sets in _EXCLUSIVE are mutually exclusive groups.
_FLAG_SETS = {
    "field": [_CYCLOTOMIC],
    "source": [_CYCLOTOMIC, _flag("--circulant", metavar="N,R", help="circulant Gram instead of a field")],
    "units": [_flag("--units", metavar="FILE", help="unit-basis file")],
    "weights": [_flag("--weights", metavar="CSV", help="comma-separated positive rationals")],
    "ideal": [
        _flag("--ideal-exp", type=int, metavar="R", help="ideal (1 - zeta)^R"),
        _flag("--ideal-gen", metavar="COORDS", help="ideal generator coordinates"),
    ],
    "run": [
        _flag(
            "--bits", dest="prec", type=_precision, default=DEFAULT_PRECISION, metavar="B",
            help="working precision bits",
        )
    ],
    "out": [_flag("--json", action="store_true", help="machine-readable output")],
    "budget": [
        _flag(
            "--budget", type=_node_budget, default=lattice.DEFAULT_BUDGET, metavar="N",
            help="enumeration node budget",
        )
    ],
    "craig": [
        _flag("-p", type=int, required=True, help="prime conductor"),
        _flag("-r", default="0..2", metavar="RANGE", help="exponent range, e.g. 0..3 or 1"),
    ],
    "max-norm": [_flag("--max-norm", default="12", metavar="M", help="count vectors with norm <= M")],
    "t": [_flag("--t", required=True, metavar="T", help="imaginary-axis parameter")],
}
_EXCLUSIVE = {"source", "ideal"}

# Each command's help, function and flag sets, in the order of its usage line.
_COMMANDS = {
    "bound": ("certified norm bound", cmd_bound, ("field", "units", "ideal", "run", "out")),
    "minima": ("exact minimal vectors", cmd_minima, ("field", "weights", "ideal", "run", "out", "budget")),
    "verify-craig": ("full verification pipeline", cmd_verify_craig, ("run", "out", "budget", "craig")),
    "set-e": ("characteristic set E", cmd_set_e, ("field", "units", "run", "out", "budget")),
    "theta": (
        "exact theta coefficients", cmd_theta, ("source", "weights", "ideal", "out", "budget", "max-norm")
    ),
    "psi": ("truncated psi with certified tail", cmd_psi, ("field", "weights", "run", "out", "budget", "t")),
}


def _command_flags(name: str) -> dict:
    """Flag name -> (add_argument keywords, its set) for command name."""
    return {flag: (keywords, key) for key in _COMMANDS[name][2] for flag, keywords in _FLAG_SETS[key]}


def _is_value(token: str, flags: dict) -> bool:
    """Whether token, after a flag that takes a value, is that value: any
    token but a flag name of the command, -h or one starting with --, so
    that -1,1,0,0 and -1/2 are values."""
    return token not in flags and token != "-h" and not token.startswith("--")


def _read_argv(argv: list):
    """A namespace with the attributes argparse gives a plain, valid
    command line, built from the flag table alone: exact flag names of the command, each at
    most once and at most one of each exclusive set, each value flag
    followed by its value (_is_value), every required flag present and
    every type conversion succeeding.  None for any other line (help, an
    abbreviation, --flag=value, a repeat, a conflict, a positional, --, a
    bad value, a missing flag), which argparse then reads."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    name, flags, given = argv[0], _command_flags(argv[0]), {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags or token in given:
            return None
        if "action" in flags[token][0]:  # store_true, the table's one action
            given[token] = True
            continue
        value = next(tokens, None)
        if value is None or not _is_value(value, flags):
            return None
        given[token] = value
    sets = [key for flag, (_, key) in flags.items() if flag in given and key in _EXCLUSIVE]
    if len(sets) != len(set(sets)):
        return None
    args = {"command": name, "func": _COMMANDS[name][1]}
    for flag, (keywords, _) in flags.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default", False if "action" in keywords else None)
        if isinstance(value, str) and "type" in keywords:
            try:
                value = keywords["type"](value)
            except Exception:  # argparse reads the line again and reports it
                return None
        args[keywords.get("dest", flag.lstrip("-").replace("-", "_"))] = value
    return SimpleNamespace(**args)


def _joined(name: str, tokens: list) -> list:
    """tokens with each value flag of command name and a value that starts
    with - (_is_value) joined as --flag=value or -fvalue, which argparse
    reads as that value; a bare value there would read as a flag."""
    flags, out, i = _command_flags(name), [], 0
    while i < len(tokens) and tokens[i] != "--":
        token, value = tokens[i], tokens[i + 1] if i + 1 < len(tokens) else ""
        if (
            token in flags
            and "action" not in flags[token][0]
            and value.startswith("-")
            and _is_value(value, flags)
        ):
            out.append(f"{token}={value}" if token.startswith("--") else token + value)
            i += 2
        else:
            out.append(token)
            i += 1
    return out + tokens[i:]


def _add_command(parser, name: str):
    """Give argparse parser the flags that command name's cmd_* reads, and
    no others, so a flag the command would ignore exits 2."""
    parser.set_defaults(command=name, func=_COMMANDS[name][1])
    for key in _COMMANDS[name][2]:
        target = parser.add_mutually_exclusive_group() if key in _EXCLUSIVE else parser
        for flag, keywords in _FLAG_SETS[key]:
            target.add_argument(flag, **keywords)
    return parser


def _build_parser():
    """The argparse parser of every command, for the top-level help and
    for a missing or unknown command."""
    import argparse

    parser = argparse.ArgumentParser(prog="cmsvp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv: list):
    """argparse's reading of argv, which prints help, usage and errors
    and exits: the running command's parser alone when argv[0] names a
    command (its errors start "cmsvp <name>:"), else every command's."""
    if argv and argv[0] in _COMMANDS:
        import argparse

        parser = _add_command(argparse.ArgumentParser(prog=f"cmsvp {argv[0]}"), argv[0])
        return parser.parse_args(_joined(argv[0], argv[1:]))
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run the command that argv (default sys.argv[1:]) names and return
    its exit code; a line the flag table cannot read alone goes to
    argparse, which exits 0 after help and 2 on a bad line."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = _parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); point it at devnull so the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InputError, DegenerateSimplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PrecisionError, NotPositiveDefiniteError) as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SelfTestError as exc:
        print(f"self-test failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except CmsvpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
