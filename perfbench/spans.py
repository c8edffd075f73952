"""Layer tracer for the traced benchmark run.

The layers are the modules of the cmsvp package. `Tracer.install` wraps
every public function of the layer modules and rebinds each name in every
loaded cmsvp module that refers to it, since modules import functions by
name (`bound` binds `det_interval` directly). A call into a wrapped
function opens a span; open spans nest on a stack, and a finished span is
folded into per-function totals: calls, and self time, which is the span's
duration minus the spans it directly contains. The CLI entry point is the
root span of layer `cli`, so its self time is argument parsing, command
glue and JSON output.

Counters are read from arguments and return values at the same boundaries:
enumeration nodes and listed vectors, repeated LLL inputs, determinant
endpoint sizes and the vectors a search accepts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = ("interval", "field", "embeddings", "units", "bound", "lattice", "svp", "theta")

# The two halves of det_interval, which is their only caller; they are
# counted in its span. det_cofactor recurses, and a span per minor would
# cost more than the work it measures.
NOT_WRAPPED = frozenset({"interval.det_cofactor", "interval.det_elimination"})

LEAVES = frozenset(
    f"interval.{name}"
    for name in ("cos2pi", "sin2pi", "pi_interval", "exp_interval", "log_interval", "root_interval")
)

# svp searches: each lists candidates with lattice.enumerate_short and
# returns the minimal vectors or set-E elements it accepted.
SEARCHES = {
    "svp.minimal_vectors": lambda result: result.count,
    "svp.characteristic_set_E": lambda result: result.size,
}


def _fraction_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Spans and counters for one process; `install` before the traced call."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.stack: list[list] = []  # open spans: [child seconds, name]
        self.top_s = 0.0  # time inside root spans
        self.nodes = 0
        self.vectors_listed = 0
        self.search_listed = 0
        self.search_accepted = 0
        self.lll_repeats = 0
        self.endpoint_bits_max = 0
        self._lll_inputs: set = set()
        self._hooks = {
            "lattice.enumerate_short": self._on_enumerate,
            "lattice.lll_reduce": self._on_lll,
            "interval.det_interval": self._on_det,
            **{name: self._searched(count) for name, count in SEARCHES.items()},
        }

    # -- counters ------------------------------------------------------------

    def _on_enumerate(self, args, result):
        vectors, nodes = result
        self.nodes += nodes
        self.vectors_listed += len(vectors)
        if any(frame[1] in SEARCHES for frame in self.stack):
            self.search_listed += len(vectors)

    def _on_lll(self, args, result):
        key = tuple(tuple(row) for row in args[0])
        if key in self._lll_inputs:
            self.lll_repeats += 1
        self._lll_inputs.add(key)

    def _on_det(self, args, result):
        bits = max(_fraction_bits(result.lo), _fraction_bits(result.hi))
        self.endpoint_bits_max = max(self.endpoint_bits_max, bits)

    def _searched(self, count):
        def hook(args, result):
            self.search_accepted += count(result)

        return hook

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        calls, self_s, stack = self.calls, self.self_s, self.stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_s += duration
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind them in every
        loaded cmsvp module."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cmsvp.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in NOT_WRAPPED
                ):
                    wrapped[obj] = self.wrap(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cmsvp" and not mod_name.startswith("cmsvp."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function and per-layer totals, and the counters."""
        layers: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return {
            "functions": {name: [self.calls[name], self.self_s[name]] for name in self.calls},
            "layers": layers,
            "top_s": self.top_s,
            "leaf_calls": sum(self.calls[n] for n in LEAVES if n in self.calls),
            "leaf_s": sum(self.self_s[n] for n in LEAVES if n in self.self_s),
            "nodes": self.nodes,
            "vectors_listed": self.vectors_listed,
            "search_listed": self.search_listed,
            "search_accepted": self.search_accepted,
            "lll_repeats": self.lll_repeats,
            "endpoint_bits_max": self.endpoint_bits_max,
        }
