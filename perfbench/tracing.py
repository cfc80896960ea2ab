"""Spans around calls into specreg's layers, recorded from outside the package.

`Tracer.install` rebinds every public function of the layer modules in every
specreg module that holds it (for example regdet.remainder, regdet.heat_trace
and zeta.gauss_kronrod), so calls between modules and within a module both
pass through a wrapper.  Each wrapper records one span: name, start, end,
parent span and job id, in flat arrays kept in memory; `summary` turns them
into per-function counts and times once the run is over.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("special", "spectra", "heat_expansion", "regdet", "zeta", "orbit", "quadrature")
QUADRATURE = ("quadrature.gauss_kronrod", "quadrature.tanh_sinh")
INTEGRANDS = ("heat_expansion.remainder", "spectra.heat_trace")
COEFF_CACHE = "_one_sided_power_coeffs"


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.errors: list[int] = []
        self.current_job = [-1]
        self._stack = [-1]
        self._wrappers: dict = {}

    def _wrap(self, fn, label: str):
        name_id = len(self.labels)
        self.labels.append(label)
        self.errors.append(0)
        start, end, name, parent, job = self.start, self.end, self.name, self.parent, self.job
        stack, errors, current_job, clock = self._stack, self.errors, self.current_job, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            job.append(current_job[0])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name_id] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind the layers' public functions in every loaded specreg module."""
        layer_modules = {f"specreg.{layer}" for layer in LAYERS}
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "specreg" or key.startswith("specreg.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ in layer_modules):
                    if obj not in self._wrappers:
                        label = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                        self._wrappers[obj] = self._wrap(obj, label)
                    setattr(mod, attr, self._wrappers[obj])

    def summary(self) -> dict:
        """Per-function calls, inclusive ms, self ms and errors, plus the count of
        integrand calls made while a quadrature span was open."""
        n = len(self.start)
        labels = self.labels
        names = np.frombuffer(self.name, dtype=np.int32) if n else np.zeros(0, np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if n else np.zeros(0)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        parent_name = np.where(has_parent, names[np.maximum(parents, 0)], -1)
        # inclusive time counts the outermost span of a direct recursion only
        outer = parent_name != names
        is_quad = np.array([label in QUADRATURE for label in labels] + [False])
        in_quad = is_quad[parent_name]  # index -1 reads the trailing False
        while True:  # propagate "some ancestor is a quadrature span" down the tree
            spread = in_quad | np.where(has_parent, in_quad[np.maximum(parents, 0)], False)
            if np.array_equal(spread, in_quad):
                break
            in_quad = spread
        calls = np.bincount(names, minlength=len(labels))
        incl = np.bincount(names[outer], weights=dur[outer], minlength=len(labels))
        self_time = np.bincount(names, weights=dur - child, minlength=len(labels))
        functions = {
            label: {"calls": int(calls[i]), "ms": 1e3 * float(incl[i]),
                    "self_ms": 1e3 * float(self_time[i]), "errors": self.errors[i]}
            for i, label in enumerate(labels)
        }
        integrand_ids = [i for i, label in enumerate(labels) if label in INTEGRANDS]
        evals = int(np.count_nonzero(np.isin(names, integrand_ids) & in_quad))
        return {"functions": functions, "integrand_evals": evals, "spans": n}


def coeff_cache_info():
    """(hits, misses) of the exact coefficient-table cache, or None if it is gone."""
    from specreg import heat_expansion

    fn = getattr(heat_expansion, COEFF_CACHE, None)
    if fn is None or not hasattr(fn, "cache_info"):
        return None
    info = fn.cache_info()
    return info.hits, info.misses


def cache_delta(before, after):
    """Coefficient-cache hits and misses between two coeff_cache_info() reads."""
    if before is None or after is None:
        return None
    return {"hits": after[0] - before[0], "misses": after[1] - before[1]}
