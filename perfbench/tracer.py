"""Layer tracing from outside the program.

Wraps the public functions of each swapkd layer module and rebinds every
reference to them across the package, so calls made through
``from .swap import swap_conditional_state`` are seen too.  Nothing under
``src/`` changes.

Timed mode counts calls and accumulates self time per function: a call's
duration minus the durations of the traced calls made directly inside it.
Counting mode wraps only the two functions behind the
deterministic work counters and reads no clock.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

LAYERS = ("cli", "optimize", "swap", "metrics", "fock", "rates")

# Public functions that run only inside another traced function of the same
# module on the benchmark's paths; their time is folded into that caller.
FOLDED = {"metrics.visibility_scan"}

EVALUATE = "optimize.evaluate"
SWAP = "swap.swap_conditional_state"


def traced_functions() -> Dict[str, object]:
    """``layer.name`` -> function, for every public function of every layer."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"swapkd.{layer}")
        for name, obj in vars(mod).items():
            key = f"{layer}.{name}"
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
                and key not in FOLDED
            ):
                found[key] = obj
    return found


class Tracer:
    def __init__(self, timed: bool):
        self.timed = timed
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.swap_n_max: Counter = Counter()  # swap calls by Fock cutoff
        self._stack: List[list] = []  # [child seconds] per open call

    def install(self) -> None:
        funcs = traced_functions()
        default_policy = inspect.signature(funcs[SWAP]).parameters["policy"].default
        self._default_n_max = default_policy.n_max
        if not self.timed:
            funcs = {k: funcs[k] for k in (EVALUATE, SWAP)}
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in funcs.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "swapkd" or mod_name.startswith("swapkd."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, attr, wrappers[id(obj)])

    def _count(self, key: str, args: tuple, kwargs: dict) -> None:
        self.calls[key] += 1
        if key == SWAP:
            policy = kwargs.get("policy", args[4] if len(args) > 4 else None)
            self.swap_n_max[policy.n_max if policy else self._default_n_max] += 1

    def _wrap(self, key: str, fn):
        count = self._count
        if not self.timed:
            def counting(*args, **kwargs):
                count(key, args, kwargs)
                return fn(*args, **kwargs)

            return counting

        stack, self_s = self._stack, self.self_s
        clock = time.perf_counter

        def timed(*args, **kwargs):
            count(key, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[key] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return timed

    def snapshot(self) -> Tuple[Counter, Counter]:
        return Counter(self.calls), Counter(self.swap_n_max)
