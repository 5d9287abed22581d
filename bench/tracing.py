"""Per-layer spans around the package's public functions.

Every public function of the seven package modules gets a span wrapper.
The modules import names by value (``from .spectra import eval_symbol``),
so a function is replaced in every package namespace that holds it, not
only where it is defined.  Methods are not wrapped: their time counts to
the calling function's span, and ``LambdaPoly.__mul__`` is only counted.

A span has a name, a start, an end and a parent (the span open below it on
the stack).  Spans are folded into per-name totals as they close -- calls,
and self time, which is the span's duration minus that of its child spans
-- instead of being kept as a list: the zero search alone opens about 10^5
spans per request.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("exactalg", "schemes", "derivation", "spectra", "radius", "empirics", "cli")
ZERO_SEARCH = "radius.radius_zero_search"


def coeff_bits(obj) -> int:
    """Largest bit length of a numerator or denominator inside ``obj``."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, (tuple, list)):
        return max((coeff_bits(x) for x in obj), default=0)
    if hasattr(obj, "re") and hasattr(obj, "im"):
        return max(coeff_bits(obj.re), coeff_bits(obj.im))
    if dataclasses.is_dataclass(obj):
        return max((coeff_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)),
                   default=0)
    return 0


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans as [name, seconds spent in children]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counters: dict = defaultdict(int)
        self.hook_s = 0.0
        self.functions: set = set()  # span names that exist in the package
        self._hooks = {
            "exactalg.series_mul": self._series_bits,
            "spectra.region_scan": self._lambda_samples,
            "spectra.eval_symbol": self._eval_in_search,
        }

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        self.hook_s = 0.0

    def _series_bits(self, result) -> None:
        bits = coeff_bits(result)
        if bits > self.counters["exactalg.max_coeff_bits"]:
            self.counters["exactalg.max_coeff_bits"] = bits

    def _lambda_samples(self, result) -> None:
        self.counters["spectra.region_scan.lambda_samples"] += len(result.samples)

    def _eval_in_search(self, result) -> None:
        if any(frame[0] == ZERO_SEARCH for frame in self.stack):
            self.counters["radius.evals_in_search"] += 1

    def _span(self, name: str, fn):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                # hook time is kept out of every layer's self time
                start = clock()
                hook(result)
                elapsed = clock() - start
                self.hook_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str) -> None:
        """Wrap the public functions of ``package``'s layer modules."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.functions.add(name)
                wrapper = self._span(name, obj)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, key, wrapper)
        poly = getattr(sys.modules.get(f"{package}.exactalg"), "LambdaPoly", None)
        if poly is not None and "__mul__" in vars(poly):
            poly.__mul__ = self._counted("exactalg.lambdapoly_mul.calls", poly.__mul__)

    def layer_self_s(self) -> dict:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals
