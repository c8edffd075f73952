"""Exit-code contract, JSON schema, and byte determinism of the CLI."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmsvp import cli, interval, svp, theta
from cmsvp.field import CMField
from cmsvp.interval import RealInterval
from cmsvp.units import cyclotomic_unit_basis


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cmsvp", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_bound_json_golden():
    proc = run_cli("bound", "--cyclotomic", "5", "--json")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["schema"] == "1"
    assert out["command"] == "bound"
    assert out["verdict"] == "AllMinimaAreUnits"
    assert Fraction(out["bound"]["lo"]) <= Fraction(5, 4) <= Fraction(out["bound"]["hi"])
    assert len(out["simplices"]) == 1


def test_bound_n7_text():
    proc = run_cli("bound", "--cyclotomic", "7")
    assert proc.returncode == 0
    assert "verdict AllMinimaAreUnits" in proc.stdout
    assert "2.074074074074074" in proc.stdout


def test_bound_nonprime_needs_units_file():
    proc = run_cli("bound", "--cyclotomic", "9")
    assert proc.returncode == 2
    assert "--units" in proc.stderr


def test_bound_ideal():
    proc = run_cli("bound", "--cyclotomic", "5", "--ideal-exp", "1", "--json")
    out = json.loads(proc.stdout)
    assert out["ideal_norm"] == 5
    assert Fraction(out["ideal_bound"]["lo"]) <= Fraction(25, 4) <= Fraction(
        out["ideal_bound"]["hi"]
    )


def test_minima_ideal_json():
    proc = run_cli("minima", "--cyclotomic", "5", "--ideal-exp", "1", "--json")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["mu"] == "5"
    assert out["count"] == 20
    assert len(out["vectors"]) == 20


def test_minima_budget_exit_code():
    proc = run_cli("minima", "--cyclotomic", "7", "--budget", "5")
    assert proc.returncode == 4
    assert "budget" in proc.stderr.lower()


def test_hopeless_theta_is_refused_up_front():
    # about 10^800 nodes: the heuristic estimate refuses before the descent
    proc = subprocess.run(
        [sys.executable, "-m", "cmsvp", "theta", "--circulant", "4,1", "--max-norm", "1e400"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 4
    assert "refused" in proc.stderr and "budget" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--cyclotomic", "17"),
        ("set-e", "--cyclotomic", "17"),
        ("verify-craig", "-p", "17"),
    ],
)
def test_too_many_simplices_are_refused_up_front(argv):
    # k = 8 walks 7! = 5040 simplices, above MAX_SIMPLICES = 720
    proc = subprocess.run(
        [sys.executable, "-m", "cmsvp", *argv],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 4
    assert "5040 simplices" in proc.stderr and "720" in proc.stderr


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_an_ideal_past_the_integer_digit_limit_exits_4_before_printing(fmt):
    # 7^5100 has 4311 decimal digits, above the default limit of 4300
    proc = subprocess.run(
        [sys.executable, "-m", "cmsvp", "bound", "--cyclotomic", "7", "--ideal-exp", "5100", *fmt],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert "more than 4300 decimal digits" in proc.stderr and "Traceback" not in proc.stderr
    below = run_cli("bound", "--cyclotomic", "7", "--ideal-exp", "5000", *fmt)
    assert below.returncode == 0
    if fmt:
        assert json.loads(below.stdout)["ideal_norm"] == 7**5000
    else:
        assert f"ideal norm {7**5000}\n" in below.stdout


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_the_digit_limit_is_decided_from_the_exact_sizes(fmt, capsys):
    """At a limit of 640 digits the ideal bound of (1 - zeta_5)^r, about
    1.25 * 5^r, has 640 digits at r = 915 and 641 at r = 916: the first
    prints, the second is refused, and printed with no limit its bound
    has a 641-digit integer part."""
    argv = ["bound", "--cyclotomic", "5", "--ideal-exp"]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert cli.main([*argv, "915", *fmt]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main([*argv, "916", *fmt]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "more than 640 decimal digits" in err
        sys.set_int_max_str_digits(0)
        assert cli.main([*argv, "916", *fmt]) == 0
        out = capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(old)
    bound = json.loads(out)["ideal_bound"]["hi"] if fmt else out.split("ideal bound [")[1].split(", ")[1]
    assert len(bound.split(".")[0]) == 641


def test_seed_flag_is_gone():
    proc = run_cli("minima", "--cyclotomic", "5", "--seed", "1")
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed" in proc.stderr


def test_circulant_rank_1_names_the_real_condition():
    proc = run_cli("theta", "--circulant", "1,0", "--max-norm", "3")
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "needs n >= 2 with n + 1 prime, got n = 1" in proc.stderr


def test_minima_bad_weights():
    proc = run_cli("minima", "--cyclotomic", "5", "--weights", "0,1")
    assert proc.returncode == 2
    proc = run_cli("minima", "--cyclotomic", "5", "--weights", "1,zebra")
    assert proc.returncode == 2


def test_missing_required_flags():
    proc = run_cli("minima")
    assert proc.returncode == 2
    proc = run_cli("psi", "--cyclotomic", "5")  # argparse: --t required
    assert proc.returncode == 2
    proc = run_cli("verify-craig")
    assert proc.returncode == 2
    proc = run_cli("no-such-command")
    assert proc.returncode == 2


def test_bad_numbers_exit_2():
    for args in (
        ("theta", "--circulant", "4,1", "--max-norm", "abc"),
        ("psi", "--cyclotomic", "5", "--t", "1/0"),
        ("psi", "--cyclotomic", "5", "--t", "abc"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, args


def test_missing_units_file_exits_2(tmp_path):
    proc = run_cli("bound", "--cyclotomic", "7", "--units", str(tmp_path / "missing.txt"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read unit basis file")


def test_bits_floor():
    proc = run_cli("bound", "--cyclotomic", "5", "--bits", "10")
    assert proc.returncode == 2


def test_out_of_range_bits_exit_2_on_a_command_that_needs_no_precision():
    """An equal-weight minimum never reads the precision; --bits is checked
    when it is parsed all the same."""
    proc = run_cli("minima", "--cyclotomic", "5", "--bits", "7")
    assert proc.returncode == 2
    assert proc.stdout == "" and "4096 bits" in proc.stderr and "Traceback" not in proc.stderr


def test_bits_above_the_ladder_top_exit_2_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "cmsvp", "bound", "--cyclotomic", "5", "--bits", "8192"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "4096 bits" in proc.stderr


def _bound_interval(proc) -> RealInterval:
    bound = json.loads(proc.stdout)["bound"]
    return RealInterval(Fraction(bound["lo"]), Fraction(bound["hi"]))


def test_units_file_bound_climbs_the_precision_ladder(tmp_path):
    """beta of the vertex g0*g1^30 has 67-bit coordinates and a Sigma value
    near 2^-52, so its enclosures miss the radius target at 64 and 128 bits.
    The ladder certifies them at 256 bits; one retry from 64 bits gave
    exit 3."""
    field = CMField(7)
    g0, g1 = cyclotomic_unit_basis(field).generators
    big = g0
    for _ in range(30):
        big = big * g1
    path = tmp_path / "units.txt"
    lines = ["torsion 14"] + [",".join(map(str, g.coords)) for g in (big, g1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    low = run_cli("bound", "--cyclotomic", "7", "--units", str(path), "--bits", "64", "--json")
    assert low.returncode == 0, low.stderr
    high = run_cli("bound", "--cyclotomic", "7", "--units", str(path), "--bits", "128", "--json")
    assert high.returncode == 0, high.stderr
    assert _bound_interval(low).overlaps(_bound_interval(high))


def test_theta_circulant_golden():
    proc = run_cli("theta", "--circulant", "4,1", "--max-norm", "8", "--json")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["scale"] == "1"
    assert out["coefficients"] == [[0, 1], [2, 20], [4, 30], [6, 60], [8, 60]]


@pytest.mark.parametrize(
    "source, off_grid, below, scale",
    [(("--cyclotomic", "7"), "7/3", "2", "1/2"), (("--circulant", "2,0"), "7/4", "5/3", "1/3")],
)
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_theta_max_norm_off_the_grid_counts_what_the_grid_value_below_counts(
    source, off_grid, below, scale, fmt, capsys
):
    """A --max-norm off the form's 1/s grid prints the bytes of the
    largest grid value below it."""
    outs = []
    for max_norm in (off_grid, below):
        assert cli.main(["theta", *source, "--max-norm", max_norm, *fmt]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    if fmt:
        assert json.loads(outs[0])["scale"] == scale


def test_theta_conflicting_sources():
    proc = run_cli("theta", "--circulant", "4,1", "--cyclotomic", "5")
    assert proc.returncode == 2


def test_theta_refuses_unequal_weights_before_building_a_gram(monkeypatch, capsys):
    """Unequal weights give an interval Gram that theta cannot count on;
    it is refused before one is built and reduced."""

    def refuse(*args, **kwargs):
        raise AssertionError("theta built a Gram for unequal weights")

    monkeypatch.setattr(cli.svp, "gram_matrix", refuse)
    assert cli.main(["theta", "--cyclotomic", "7", "--weights", "1,2,3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "theta counting needs equal rational weights" in err


def test_psi_deterministic_bytes():
    a = run_cli("psi", "--cyclotomic", "5", "--t", "10", "--json")
    b = run_cli("psi", "--cyclotomic", "5", "--t", "10", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    out = json.loads(a.stdout)
    assert set(out) == {"schema", "command", "t", "value", "tail", "weights"}
    excess = Fraction(out["value"]["hi"]) - 1
    assert Fraction(1, 10**27) < excess < Fraction(1, 10**26)


def test_verify_craig_pass():
    proc = run_cli("verify-craig", "-p", "5", "-r", "0..3", "--json")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["status"] == "pass"
    assert [c["r"] for c in out["checks"]] == [0, 1, 2, 3]
    assert all(c["factorization"] == "pass" for c in out["checks"])
    assert all(c["theta"] == "pass" for c in out["checks"])


def test_verify_craig_fails_when_the_theta_tables_differ(monkeypatch, capsys):
    """A circulant model one power of (1 - T) too high has another theta
    table on every leg: each leg's theta check fails, and so does the run."""
    real = svp.craig_circulant
    monkeypatch.setattr(svp, "craig_circulant", lambda n, r: real(n, r + 1))
    assert cli.main(["verify-craig", "-p", "7", "-r", "1..2", "--json"]) == cli.EXIT_VERIFY_FAIL == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "fail"
    assert [(c["factorization"], c["theta"], c["status"]) for c in out["checks"]] == [("pass", "fail", "fail")] * 2


def test_verify_craig_inconclusive():
    proc = run_cli("verify-craig", "-p", "11", "-r", "1", "--json")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["verdict"] == "Inconclusive"
    assert out["status"] == "inconclusive"
    assert out["checks"] == []


def test_verify_craig_rejects_composite():
    proc = run_cli("verify-craig", "-p", "9", "-r", "1")
    assert proc.returncode == 2


def test_set_e_size():
    proc = run_cli("set-e", "--cyclotomic", "5", "--json")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["size"] == 10
    assert len(out["elements"]) == 10


def test_set_e_p13_is_refused_before_listing(monkeypatch, capsys):
    """At p = 13 set E would list about 1.5e8 candidates, which do not fit
    in memory: the Gaussian heuristic refuses the enumeration before it
    lists any.  The value 371293/729, inside theorem_bound's enclosure,
    stands in for theorem_bound, which takes about 10 s on a 2-CPU x86-64 VM
    and is not what this test times."""
    bound = SimpleNamespace(bound=RealInterval.point(Fraction(371293, 729)))
    monkeypatch.setattr(cli, "theorem_bound", lambda field, basis, prec: bound)
    start = time.perf_counter()
    assert cli.main(["set-e", "--cyclotomic", "13"]) == 4
    assert time.perf_counter() - start < 10
    out, err = capsys.readouterr()
    assert out == ""
    assert "refused" in err and "listed vectors" in err


@pytest.mark.parametrize("fmt", [["--json"], []])
def test_closed_stdout_exits_141_without_a_traceback(fmt):
    """A reader that closes the pipe early (`| head -c 50`) gets exit 141,
    128 + SIGPIPE, and nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "cmsvp", "theta", "--circulant", "10,1", "--max-norm", "6", *fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # closed long before the child has imported cmsvp and enumerated
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert err == ""


@pytest.mark.parametrize("weights", [[], ["--weights", "1,2"]], ids=["equal", "skewed"])
def test_psi_with_a_tiny_t_refuses_on_budget_at_128_bits(weights, monkeypatch):
    """At 128 bits 1 - exp(-pi t/2) contains 0 for t = 1e-300; the tail
    bound takes the exact lower end x / (1 + x), x = pi t / 2, instead,
    and the descent is refused on its node estimate at the first rung,
    with no climb past it."""
    rungs = []
    real_climb = interval.climb

    def recording(prec, attempt):
        return real_climb(prec, lambda cur: rungs.append(cur.bits) or attempt(cur))

    monkeypatch.setattr(theta, "climb", recording)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["psi", "--cyclotomic", "5", "--t", "1e-300", *weights])
    assert rc == 4 and out.getvalue() == ""
    assert err.getvalue().startswith("budget exceeded: enumeration refused before it started")
    assert rungs == [128]


@pytest.mark.parametrize("flag", [["--ideal-exp", "2"], ["--ideal-gen", "1,1,0,0"]])
def test_psi_refuses_ideals(flag):
    proc = run_cli("psi", "--cyclotomic", "5", "--t", "1", *flag)
    assert proc.returncode == 2
    assert proc.stdout == "" and "unrecognized arguments" in proc.stderr


# flags that some commands read and the others refuse, each with a value
FORMERLY_COMMON = {
    "--cyclotomic": ["7"],
    "--units": ["units.txt"],
    "--weights": ["1,2"],
    "--ideal-exp": ["1"],
    "--ideal-gen": ["1,1,0,0"],
    "--bits": ["256"],
    "--budget": ["1000"],
    "--json": [],
}
# each command's required inputs, and the formerly common flags its cmd_* reads
COMMANDS = {
    "bound": (
        ["--cyclotomic", "5"],
        {"--cyclotomic", "--units", "--ideal-exp", "--ideal-gen", "--bits", "--json"},
    ),
    "minima": (
        ["--cyclotomic", "5"],
        {"--cyclotomic", "--weights", "--ideal-exp", "--ideal-gen", "--bits", "--budget", "--json"},
    ),
    "set-e": (["--cyclotomic", "5"], {"--cyclotomic", "--units", "--bits", "--budget", "--json"}),
    "theta": (
        ["--cyclotomic", "5"],
        {"--cyclotomic", "--weights", "--ideal-exp", "--ideal-gen", "--budget", "--json"},
    ),
    "psi": (["--cyclotomic", "5", "--t", "1"], {"--cyclotomic", "--weights", "--bits", "--budget", "--json"}),
    "verify-craig": (["-p", "5", "-r", "1"], {"--bits", "--budget", "--json"}),
}


@pytest.mark.parametrize("flag", list(FORMERLY_COMMON))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_accepts_exactly_the_flags_it_reads(command, flag, monkeypatch, capsys):
    """A flag the command reads parses, in main, to the namespace the
    parser of every command gives, and main builds no parser for it unless
    it repeats a flag of base, which the command's own parser reads; any
    other flag exits 2 from the command's own parser."""
    base, reads = COMMANDS[command]
    argv = [command, *base, flag, *FORMERLY_COMMON[flag]]
    if flag in reads:
        parsed = []
        help_text, _, sets = cli._COMMANDS[command]
        # the command itself records its namespace instead of running
        monkeypatch.setitem(cli._COMMANDS, command, (help_text, lambda args: parsed.append(vars(args)) or 0, sets))
        parser = cli._build_parser()
        full = vars(parser.parse_args(argv))
        assert full != vars(parser.parse_args([command, *base]))
        built, real_init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli.main(argv) == 0
        assert parsed == [full] and built == ([f"cmsvp {command}"] if flag in base else [])
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"cmsvp {command}: error: unrecognized arguments: {flag}" in err and "Traceback" not in err


def test_top_level_help_lists_every_command_and_an_unknown_command_exits_2(capsys):
    assert set(COMMANDS) == set(cli._COMMANDS)
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, (help_text, _, _) in cli._COMMANDS.items():
        assert f"    {name}" in out and help_text in out
    for argv in (["nosuch"], ["nosuch", "--json"], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: cmsvp [-h]") and "Traceback" not in err


@pytest.mark.parametrize("flag", list(FORMERLY_COMMON))
def test_theta_on_a_circulant_accepts_exactly_the_flags_it_reads(flag, capsys):
    """A circulant Gram has no field, so of the formerly common flags
    theta --circulant reads only --budget and --json; the weights and
    ideals that theta reads for a field exit 2 like every other."""
    argv = ["theta", "--circulant", "4,1", "--max-norm", "4", flag, *FORMERLY_COMMON[flag]]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if flag in ("--budget", "--json"):
        assert code == 0 and out and err == ""
        return
    assert code == 2 and out == ""
    assert err and "Traceback" not in err


@pytest.mark.parametrize("budget", ["-5", "many"])
def test_bad_budget_exits_2(budget):
    proc = run_cli("minima", "--cyclotomic", "5", "--budget", budget)
    assert proc.returncode == 2
    assert proc.stdout == "" and "--budget" in proc.stderr


# sha256 of each command's text output, as printed before the text lines
# were built lazily; the p = 11 verify-craig run is the Inconclusive path.
# The skewed psi run has no digest: its tail digits come from the lower
# form, and test_skewed_psi_text_keeps_the_pinned_enclosure checks it
TEXT_OUTPUTS = [
    ("bound --cyclotomic 5", "7285a8fef8f00226fbc30736c910e7065a34755cff9bc9b5e3448eb8711cce45"),
    ("bound --cyclotomic 7 --ideal-exp 1", "7c1da3550d593c91cd85bd45f36a568c139bf8799600492a46669045ad47b016"),
    ("minima --cyclotomic 7 --weights 1,2,3", "0255e75f6f94229d6acc7f497dbe451f7ed801d94075b6e8e4e2004d003f25d3"),
    ("minima --cyclotomic 9 --ideal-exp 1", "f745cd21ee3438a46a498e5b064c79857cb8914d5f9d649c3a98a66e92cfe05c"),
    ("set-e --cyclotomic 7", "5af9db34a5cffaf40b1addfaeb06774f51d0ccf9c7713ab7b28b1fa1e95aad4b"),
    ("theta --circulant 4,1 --max-norm 8", "cab1424871388cb83e7b8d0f5feea2341989a7ff0f40902cec0ba11f44c450a7"),
    ("psi --cyclotomic 5 --t 1", "f7eb679d707f728b8b0c6a1719b81766e392ca264acf99bc6fe53f94a9c1c927"),
    ("psi --cyclotomic 7 --t 1 --weights 1,2,3", None),
    ("verify-craig -p 5 -r 0..2", "4bffd7aa20e65c3a4888809391cae8bc20836a60f3d977375f8cbdf6c02e3884"),
    ("verify-craig -p 11 -r 0..1", "19c31fb9fd42c487811c47da82646b5ecfa60a817c6daf9528f181b36d61bc83"),
]


@pytest.mark.parametrize("command, digest", [(c, d) for c, d in TEXT_OUTPUTS if d])
def test_text_output_bytes_are_pinned(command, digest, capsys):
    assert cli.main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# the enclosure that psi --cyclotomic 7 --t 1 --weights 1,2,3 printed on the
# quantized interval lower form
SKEW7_PSI_T1 = (
    Fraction("1.0000000963775020928299429918180391552255"),
    Fraction("1.0000000963775020928299429918180935582208"),
)


def test_skewed_psi_text_keeps_the_pinned_enclosure(capsys):
    """The text lines of a skewed psi run: t and its truncation radius, the
    value, a tail from 0, and an enclosure that overlaps the one pinned on
    the quantized interval lower form and is at most 1.001 times as wide;
    value + tail is the enclosure."""
    assert cli.main("psi --cyclotomic 7 --t 1 --weights 1,2,3".split()) == 0
    head, value, tail, enclosure = capsys.readouterr().out.splitlines()
    assert head.startswith("t 1  truncation radius ")
    lo, hi = (Fraction(x) for x in enclosure.removeprefix("enclosure [").removesuffix("]").split(", "))
    v_lo, v_hi = (Fraction(x) for x in value.removeprefix("value [").removesuffix("]").split(", "))
    t_hi = Fraction(tail.removeprefix("tail  [0, ").removesuffix("]"))
    assert lo == v_lo and v_hi + t_hi - Fraction(1, 10**40) <= hi <= v_hi + t_hi + Fraction(1, 10**40)
    pin_lo, pin_hi = SKEW7_PSI_T1
    assert lo <= pin_hi and pin_lo <= hi
    assert hi - lo <= Fraction(1001, 1000) * (pin_hi - pin_lo)


@pytest.mark.parametrize("command", [c for c, _ in TEXT_OUTPUTS])
def test_json_output_formats_no_text_line(command, monkeypatch, capsys):
    """Under --json the text lines are never built: the decimal formatting
    that only they use is not called."""

    def refuse(*args, **kwargs):
        raise AssertionError("a text line was formatted under --json")

    monkeypatch.setattr(cli, "_fmt", refuse)
    monkeypatch.setattr(cli, "_fmt_mu", refuse)
    assert cli.main(command.split() + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == "1"


# ---------------------------------------------------------------------------
# the flag-table reader and its argparse fallback

# values the reader takes after a value flag; some fail the flag's type
PLAIN_VALUES = [
    "5", "7", " 7", "0", "-5", "256", "10", "8192", "1000", "1,2", "-1,2", "1,1,0,0", "-1,1,0,0",
    "1/2", "-1/2", "0..3", "4,1", "abc", "", "-", "-x",
]
# stray tokens: help, --, a positional, unknown flags and flags of other commands
JUNK = ["--", "-h", "--help", "foo", "-x", "--nosuch", "--circulant", "--t", "-p", "--json"]


@st.composite
def command_lines(draw):
    """A command line from the command's own flags, and whether it is
    plain: exact flag names, each once, each value flag with a value."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = cli._command_flags(command)
    names = sorted(flags)
    required = [[f, "5"] for f in names if flags[f][0].get("required")] if draw(st.booleans()) else []
    parts = [(True, tokens) for tokens in required]
    mixed = draw(st.booleans())
    kinds = ["plain", "equals", "abbrev", "bare", "flag-value", "junk"] if mixed else ["plain"]
    for flag in draw(st.lists(st.sampled_from(names), max_size=5, unique=not mixed)):
        takes_value = "action" not in flags[flag][0]
        kind = draw(st.sampled_from(kinds))
        value = draw(st.sampled_from(PLAIN_VALUES))
        if kind == "plain":
            parts.append((True, [flag, value] if takes_value else [flag]))
        elif kind == "equals":
            parts.append((False, [f"{flag}={value}" if flag.startswith("--") else flag + value]))
        elif kind == "abbrev" and len(flag) > 3:
            cut = draw(st.integers(3, len(flag) - 1))
            parts.append((False, [flag[:cut], value] if takes_value else [flag[:cut]]))
        elif kind == "bare" and takes_value:
            parts.append((False, [flag]))
        elif kind == "flag-value" and takes_value:
            parts.append((False, [flag, draw(st.sampled_from(names + ["-h", "--json", "--nosuch"]))]))
        else:
            parts.append((False, [draw(st.sampled_from(JUNK))]))
    order = draw(st.permutations(parts))
    argv = [command] + [token for _, tokens in order for token in tokens]
    named = [tokens[0] for _, tokens in order]
    plain = all(ok for ok, _ in order) and len(named) == len(set(named))
    return argv, plain


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command_lines())
def test_the_reader_and_argparse_agree(line):
    """A namespace from the reader is the one argparse gives on the same
    line (with its leading-minus values joined to their flags); a plain
    line that argparse accepts, the reader accepts too."""
    argv, plain = line
    read = cli._read_argv(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli._parse_args(argv))
        except SystemExit:
            parsed = None
    if read is not None:
        assert vars(read) == parsed, argv
    elif plain:
        assert parsed is None, argv


def _benchmark_command_lines() -> list[list[str]]:
    """Every command line of perfbench/workloads.py at every rotation, as
    the benchmark runs it (with --json)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    specs = [op for ops in module.WORKLOADS.values() for op in ops]
    assert len(specs) == 14
    return [op.argv_for(r) + ["--json"] for op in specs for r in range(op.rotations)]


def test_benchmark_command_lines_build_no_parser(monkeypatch):
    parsed = []
    for name, (help_text, _, sets) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, lambda args: parsed.append(vars(args)) or 0, sets))
    built, real_init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    lines = _benchmark_command_lines()
    for argv in lines:
        assert cli.main(argv) == 0
    assert built == []
    assert parsed == [vars(cli._build_parser().parse_args(argv)) for argv in lines]


@pytest.mark.parametrize(
    "extra, loaded",
    [([], "[]"), (["--json"], "['argparse', 'gettext', 'locale']")],
)
def test_a_valid_run_loads_no_argparse_gettext_or_locale(extra, loaded):
    """A plain line never imports argparse, nor gettext and locale, which
    its first message lookup imports; a repeated flag goes to argparse."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cmsvp.cli\n"
        f"assert cmsvp.cli.main(['theta', '--circulant', '4,1', '--max-norm', '4', '--json', *{extra!r}]) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == loaded


@pytest.mark.parametrize("command", ["minima", "bound", "theta"])
def test_a_value_with_a_leading_minus_reads_as_its_equals_form(command, capsys):
    outputs = []
    for gen in (["--ideal-gen", "-1,1,0,0"], ["--ideal-gen=-1,1,0,0"]):
        assert cli.main([command, "--cyclotomic", "5", *gen, "--json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["minima", "--cyclotomic", "5", "--weights", "-1,2"], "weights must be positive"),
        (["psi", "--cyclotomic", "5", "--t", "-1/2"], "t must be positive"),
    ],
)
def test_a_negative_value_reaches_the_command(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_flag_after_a_value_flag_is_not_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["minima", "--cyclotomic", "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("cmsvp minima: error: argument --cyclotomic: expected one argument\n")


# a valid run of each command, in a fresh interpreter
NO_MPMATH_RUNS = [
    "bound --cyclotomic 5",
    "minima --cyclotomic 5 --weights 1,2",
    "theta --cyclotomic 5 --max-norm 4",
    "psi --cyclotomic 5 --t 1",
    "set-e --cyclotomic 5",
    "verify-craig -p 5 -r 1..2",
]

LOADED_MPMATH = """
import contextlib, io, json, sys
from cmsvp import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "mpmath")]))
"""


@pytest.mark.parametrize("argv", NO_MPMATH_RUNS)
def test_a_valid_run_loads_no_mpmath(argv):
    """The irrational leaves are integer kernels, so a run leaves no
    mpmath module in sys.modules."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MPMATH, *argv.split()], capture_output=True, text=True, timeout=300
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []], proc.stderr
