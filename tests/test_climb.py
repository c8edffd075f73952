"""The one precision ladder: every certified result climbs through
interval.climb, once, and no climb runs inside another."""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cmsvp import cli, interval
from cmsvp.errors import InputError, PrecisionError
from cmsvp.interval import MAX_BITS, PrecisionConfig, climb

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
# the benchmark's command lines, each at its first weight rotation, and the
# set E at p = 11
BENCHMARK_COMMANDS = [*json.loads(REFERENCE.read_text(encoding="utf-8")), "set-e --cyclotomic 11"]
SKEWED_AT_53_BITS = [
    "psi --cyclotomic 11 --t 1/2 --weights 1,2,3,4,5",
    "minima --cyclotomic 11 --weights 1,4,16,64,256",
]


@pytest.fixture
def climbs(monkeypatch):
    """Wrap interval.climb wherever a cmsvp module binds it, and record
    each climb as (depth, bits of every rung it attempted): depth 1 for a
    climb that no other climb encloses."""
    record, depth = [], [0]

    def recording(prec, attempt):
        rungs = []

        def counted(cur):
            rungs.append(cur.bits)
            return attempt(cur)

        depth[0] += 1
        record.append((depth[0], rungs))
        try:
            return climb(prec, counted)
        finally:
            depth[0] -= 1

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cmsvp" and getattr(module, "climb", None) is climb:
            monkeypatch.setattr(module, "climb", recording)
    return record


def _json_of(command: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(command.split() + ["--json"]) == 0
    return out.getvalue()


def test_no_benchmark_command_nests_a_climb_or_passes_the_first_rung(climbs):
    for command in BENCHMARK_COMMANDS:
        climbs.clear()
        _json_of(command)
        assert all(depth == 1 for depth, _ in climbs), command
        assert all(len(rungs) == 1 for _, rungs in climbs), command


@pytest.mark.parametrize("command", SKEWED_AT_53_BITS)
def test_a_skewed_result_from_53_bits_climbs_once_as_a_whole(command, climbs):
    """53-bit Sigma sums miss the 2^-64 radius target, so the whole result
    moves up one rung, once, and prints what a 106-bit start prints."""
    low = _json_of(f"{command} --bits 53")
    assert climbs == [(1, [53, 106])]
    climbs.clear()
    assert _json_of(f"{command} --bits 106") == low
    assert climbs == [(1, [106])]


def test_climb_returns_the_first_rung_that_misses_nothing():
    def attempt(cur):
        if cur.bits < 512:
            raise PrecisionError(f"missed at {cur.bits} bits")
        return cur.bits

    assert climb(PrecisionConfig(128), attempt) == 512
    assert climb(PrecisionConfig(MAX_BITS), attempt) == MAX_BITS


def test_climb_raises_the_top_rung_miss_unchanged():
    seen = []

    def attempt(cur):
        seen.append(cur.bits)
        raise PrecisionError(f"site: missed at {cur.bits} bits")

    with pytest.raises(PrecisionError, match="^site: missed at 4096 bits$"):
        climb(PrecisionConfig(256), attempt)
    assert seen == [256, 512, 1024, 2048, 4096]


def test_climb_does_not_retry_an_error_that_is_no_miss():
    seen = []

    def attempt(cur):
        seen.append(cur.bits)
        raise InputError("bad input")

    with pytest.raises(InputError):
        climb(PrecisionConfig(128), attempt)
    assert seen == [128]


def test_no_module_but_interval_reads_the_ladder():
    src = Path(interval.__file__).parent
    readers = [p.name for p in src.glob("*.py") if ".ladder()" in p.read_text(encoding="utf-8")]
    assert readers == ["interval.py"]
