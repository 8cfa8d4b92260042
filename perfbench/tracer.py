"""Span tracer for the kslab layers, installed from outside the package.

Every public function and every public method of a public class defined in a
``kslab`` module is wrapped. The modules bind names with ``from .x import y``,
so ``kslab.training.stream`` is the same function object as
``kslab.rng.stream``; each wrapper is therefore bound at every site that
holds the original. ``uninstall`` restores every binding.

A span records its name, start, end and parent span. Spans are kept in
memory (flat arrays) and written out by ``dump`` when the run ends. Self
time is a span's duration minus the time covered by its child spans.
"""

import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

STEP = "training.loss_and_grad"  # spans opened inside it count as "in step"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _reconstruct_name(args, kwargs):
    return "inference.reconstruct." + _arg(args, kwargs, 6, "mode", "practical")


def _draws(key):
    return lambda args, kwargs: (key, int(_arg(args, kwargs, 3, "samples")))


def _mlp_flops(args, kwargs):
    sizes = args[0].sizes
    return "forward_flops", sum(2 * i * o for i, o in zip(sizes[:-1], sizes[1:]))


def _affine_flops(args, kwargs):
    q = args[0].q
    # complex q x q matrix-vector product plus bias: 8 q^2 + 2 q real flops
    return "forward_flops", 8 * q * q + 2 * q


def _adam_bytes(args, kwargs):
    # read params, grad, m, v and write m, v, params once: 7 float64 vectors
    return "adam_bytes", 56 * _arg(args, kwargs, 1, "params").shape[0]


# span name -> hook returning (counter, amount) computed from the call's arguments
HOOKS = {
    "oracles.mc_corrected_mse": _draws("mc_corrected_mse_draws"),
    "oracles.check_gradient_equivalence": _draws("gradient_equivalence_draws"),
    "estimators.Mlp.forward": _mlp_flops,
    "estimators.AffinePerPattern.forward": _affine_flops,
    "training.adam_step": _adam_bytes,
}
# span name -> function naming each call's span from its arguments
SPLIT = {"inference.reconstruct": _reconstruct_name}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.in_step: list[int] = []
        self.counters: dict[str, float] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._step_depth = 0
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.in_step.append(0)
        return sid

    def _wrap(self, fn, name: str):
        fixed = self._id(name)
        split = SPLIT.get(name)
        hook = HOOKS.get(name)
        is_step = name == STEP
        stack = self._stack
        counters = self.counters

        def traced(*args, **kwargs):
            sid = fixed if split is None else self._id(split(args, kwargs))
            if hook is not None:
                key, amount = hook(args, kwargs)
                counters[key] = counters.get(key, 0) + amount
            idx = len(self.span_start)
            self.span_name.append(sid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            if self._step_depth:
                self.in_step[sid] += 1
            frame = [idx, 0.0]
            stack.append(frame)
            if is_step:
                self._step_depth += 1
            self.span_end.append(0.0)
            t0 = perf_counter()
            self.span_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if is_step:
                    self._step_depth -= 1
                stack.pop()
                dur = t1 - t0
                self.span_end[idx] = t1
                self.calls[sid] += 1
                self.total_s[sid] += dur
                self.self_s[sid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self, package: str = "kslab") -> None:
        """Wrap the package's public callables and rebind them at every site."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}  # id(original function) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.partition(".")[2] or mod.__name__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj):
                    self._install_class(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])

    def _install_class(self, cls, prefix: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, (staticmethod, classmethod)):
                new = type(val)(self._wrap(val.__func__, f"{prefix}.{attr}"))
            elif inspect.isfunction(val):
                new = self._wrap(val, f"{prefix}.{attr}")
            else:
                continue
            self._patch(cls, attr, val, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Per-name totals and counters, as kept in the unit's result."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "total_s": dict(zip(self.names, self.total_s)),
            "in_step": dict(zip(self.names, self.in_step)),
            "counters": dict(self.counters),
        }

    def dump(self, path) -> None:
        """Write every span: name index, parent span index, start and end."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
