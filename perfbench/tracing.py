"""In-memory span tracer that wraps blowlab's public functions from outside.

Installing a Tracer replaces each function in TARGETS with a wrapper that
records one span per call: name, start, end, parent span and run id. The
wrapper is put in place of the original under every name in every blowlab
module that holds it (``experiments.solve_physical`` and
``evolution.solve_physical`` are one target), and methods are replaced on
their class. Nothing under ``src/`` is edited; uninstall() restores every
original object. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
import time

MARK = "__perfbench_span__"


def _steps_physical(args, kwargs, run):
    return {"steps": int(run.times.size - 1)}


def _ivp_counts(args, kwargs, sol):
    # without t_eval, sol.t holds the start and every accepted step
    return {"nfev": int(sol.nfev), "steps": int(sol.t.size - 1)}


def _banded_bytes(args, kwargs, x):
    # computed from array sizes: the band matrix and right-hand side read,
    # the solution written; cache traffic is not measured
    _, ab, b = args          # evolution calls solve_banded((1, 1), ab, b)
    return {"bytes": int(ab.nbytes + b.nbytes + x.nbytes)}


def _file_bytes(args, kwargs, path):
    return {"bytes": int(os.stat(path).st_size)}


# (module under blowlab, attribute path, counter on (args, kwargs, result))
TARGETS = (
    ("experiments", "run_kind", None),
    ("experiments", "replay", None),
    ("evolution", "solve_physical", _steps_physical),
    ("evolution", "solve_banded", _banded_bytes),
    ("evolution", "fit_blowup_time", None),
    ("evolution", "convergence_pipeline", None),
    ("evolution", "RescaledFlow.run", None),
    ("evolution", "RescaledFlow.step", None),
    ("evolution", "energy", None),
    ("evolution", "dissipation_check", None),
    ("evolution", "stable_mode_state", None),
    ("profiles", "scan_profiles", None),
    ("profiles", "shoot", None),
    ("profiles", "solve_ivp", _ivp_counts),
    ("profiles", "profile_residual", None),
    ("spectral", "build_basis", None),
    ("spectral", "assemble", None),
    ("spectral", "spectrum", None),
    ("spectral", "first_eigenvalue_rayleigh", None),
    ("spectral", "fd_eigenvalues_1d", None),
    ("calculus", "make_log_test_eigenpair", None),
    ("calculus", "random_bump_field", None),
    ("calculus", "SampledField.from_callable", None),
    ("calculus", "verify_ibp", None),
    ("calculus", "verify_poincare", None),
    ("calculus", "verify_log_test_inequality", None),
    ("calculus", "verify_prop35_inequality", None),
    ("quadrature", "tensor_grid", None),
    ("quadrature", "radial_grid", None),
    ("manifest", "write_csv", _file_bytes),
    ("manifest", "write_json", None),
    ("manifest", "build_manifest", None),
    ("manifest", "compare_outputs", None),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)

# span record fields
NAME, RUN, PARENT, START, END, COUNTS = range(6)


def blowlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "blowlab" or name.startswith("blowlab."))]


def wrapped_names() -> list[str]:
    """Every blowlab module or class attribute that currently holds a wrapper."""
    found = []
    for mod in blowlab_modules():
        for key, val in vars(mod).items():
            if hasattr(val, MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(val, type) and val.__module__.startswith("blowlab"):
                for ckey, cval in vars(val).items():
                    if hasattr(getattr(cval, "__func__", cval), MARK):
                        found.append(f"{mod.__name__}.{key}.{ckey}")
    return sorted(set(found))


class Tracer:
    """Collects spans from wrapped blowlab calls and from open()/close()."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.run_id, parent, time.perf_counter(), None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.spans[idx][COUNTS] = counter(args, kwargs, result)
            return result

        setattr(traced, MARK, name)
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = blowlab_modules()
        by_name = {m.__name__: m for m in modules}
        for mod_name, attr, counter in TARGETS:
            name = f"{mod_name}.{attr}"
            home = by_name[f"blowlab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    new = self._wrap(name, raw, counter)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, counter)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)


def aggregate(spans, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
    """Per span name over spans[lo:hi]: calls, s, self_s and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because everything runs on one thread.
    The range must hold whole trees (no span in it has a parent before lo).
    """
    hi = len(spans) if hi is None else hi
    child = [0.0] * (hi - lo)
    for sp in spans[lo:hi]:
        if sp[PARENT] is not None:
            child[sp[PARENT] - lo] += sp[END] - sp[START]
    out: dict[str, dict] = {}
    for i, sp in enumerate(spans[lo:hi]):
        dur = sp[END] - sp[START]
        agg = out.setdefault(sp[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child[i]
        for key, val in (sp[COUNTS] or {}).items():
            agg[key] = agg.get(key, 0) + val
    return out
