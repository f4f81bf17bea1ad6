"""Spans around fiberqkd's public entry points, recorded from outside the package.

Modules import each other's functions by name, so an entry point is wrapped
in every ``fiberqkd`` module namespace that holds it. Spans are kept in memory
as ``[name, start, end, parent, counts]`` and written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _rows(args, kwargs, result):
    return {"rows": len(result) if np.ndim(result) else 1}


# (module, entry point, counter of the items one call handled)
ENTRY_POINTS = (
    ("config", "load_scenario", None),
    ("config", "planning_inputs", None),
    (
        "protocol",
        "run_session",
        lambda a, k, r: {"slots": r.n_pulses, "events": r.sift.n_detections},
    ),
    ("protocol", "expected_rates", None),
    ("protocol", "closed_form_rates", None),
    ("protocol", "sift", lambda a, k, r: {"records": len(a[0])}),
    ("emitter", "sample_photon_number", _rows),
    ("emitter", "EmitterSpectrum.sample", _rows),
    ("emitter", "fit_g2_cw", None),
    ("emitter", "pulsed_g2", None),
    ("channel", "apply_channel_rows", _rows),
    ("channel", "qber_from_pmd", None),
    ("channel", "sweep_trajectory", None),
    ("channel", "fit_arc", None),
    ("polarization", "rotate_rows", _rows),
    ("keyrate", "secure_key_length", None),
    ("keyrate", "optimize_basis_probability", lambda a, k, r: {"evaluations": r.n_evaluations}),
    ("keyrate", "rate_vs_loss_curve", None),
)


class Tracer:
    """In-memory span recorder whose wrappers ``install`` switches on and off."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches = self._find_patches()

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int, counts: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = counts
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if counter is not None:
                self.spans[idx][4] = counter(args, kwargs, result)
            return result

        return traced

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every place an entry point sits.

        Raises when an entry point no longer exists, so a renamed or removed
        function fails the traced run instead of silently reading zero.
        """
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fiberqkd"]
        patches = []
        for module_name, attr, counter in ENTRY_POINTS:
            module = sys.modules[f"fiberqkd.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                patches.append((cls, meth, original, self._wrap(name, original, counter)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counter)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original, wrapped))
        return patches

    def install(self) -> None:
        for holder, key, _, wrapped in self._patches:
            setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._patches:
            setattr(holder, key, original)

    def summary(self) -> tuple[dict, float]:
        """Per-span-name calls, self seconds and item counts; top-level seconds."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, counts in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        per_name: dict[str, dict] = {}
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            agg = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child[i]
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        return per_name, top

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\tcounts\n")
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                items = ",".join(f"{k}={v}" for k, v in (counts or {}).items())
                handle.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{items}\n")
