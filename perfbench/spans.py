"""Span tracing of the `stdd` layers, installed from outside the package.

`Tracer.install()` wraps every public function and every public method of
the classes defined in each layer module, and points every reference to the
original inside the package at the wrapper, so calls made through
`from .x import y` names are traced too.  Each call records a span (name,
start, end, parent) in memory.  A layer's self time is its spans' durations
minus the parts their child spans cover.

Span names are `<layer>.<function>`, `<layer>.<method>` (the class name is
dropped) and `<layer>.<Class>` for a constructor.  SuperLU's factorization
is traced as `solver.lu_factor`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("config", "permfields", "physics", "mesh", "adaptivity",
          "assembly", "solver", "run", "output")

# Per-cell helpers (millions of calls on the desk grid): a span per call
# would cost more than the call, so their time stays in the caller's.
SKIP = {"adaptivity.block"}

# Newton solves started by these spans are the dynamic predictor's.
PREDICTOR_PARENTS = {"run.after_window", "run.DynamicController"}

# What a span keeps of its call, by span name: fn(args, result).
HOOKS = {
    "solver.linear_solve": lambda a, r: a[0].nnz,
    "solver.lu_factor": lambda a, lu: lu.nnz,
    "solver.newton_solve_window": lambda a, r: r[1].iterations,
    "mesh.build_window": lambda a, w: (w.n_st, w.n_faces, len(w.bundles)),
    "run.escalate": lambda a, r: r is not None,
    "solver.escalate": lambda a, r: r is not None,
}


class _SplaProxy:
    """`scipy.sparse.linalg` as the solver module sees it, with splu traced."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.names, self.t0, self.t1, self.parent = [], [], [], []
        self.failed = set()      # spans whose call raised
        self.info = {}           # span index -> what its hook kept
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        names, t0s, t1s, parents = self.names, self.t0, self.t1, self.parent
        stack, clock, hook = self._stack, time.perf_counter, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed.add(idx)
                raise
            finally:
                t1s[idx] = clock()
                t0s[idx] = start
                stack.pop()
            if hook is not None:
                self.info[idx] = hook(args, result)
            return result

        return traced

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        mods = {layer: sys.modules[f"stdd.{layer}"] for layer in LAYERS}
        holders = [sys.modules["stdd"], *mods.values()]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for holder in holders:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, name, wrapper)
                elif (inspect.isclass(obj)
                      and not issubclass(obj, BaseException)):
                    self._install_methods(layer, obj)
        solver = mods["solver"]
        real = solver.spla
        self._set(solver, "spla", _SplaProxy(
            real, self._wrap("solver.lu_factor", real.splu)))

    def _install_methods(self, layer, cls):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr == "__init__":
                if dataclasses.is_dataclass(cls):
                    continue
                span = f"{layer}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                span = f"{layer}.{attr}"
            if span not in SKIP:
                self._set(cls, attr, self._wrap(span, fn))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- reading ----------------------------------------------------------

    def roots(self):
        """Index ranges [start, stop) of each top-level span's subtree."""
        starts = [i for i, p in enumerate(self.parent) if p < 0]
        return list(zip(starts, starts[1:] + [len(self.names)]))

    def self_times(self):
        dur = [b - a for a, b in zip(self.t0, self.t1)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def layer_metrics(self, n_sims):
        """Per-simulation self times, call counts and layer counters."""
        own = self.self_times()
        m = defaultdict(float)
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            m[f"{name}.s"] += own[i]
            m[f"{name}.calls"] += 1
            m[f"{layer}.s"] += own[i]
            p = self.parent[i]
            if p < 0 or not self.names[p].startswith(layer + "."):
                m[f"{layer}.calls"] += 1
        jac_nnz = most = 0
        for i, v in self.info.items():
            name = self.names[i]
            if name == "solver.linear_solve":
                jac_nnz += v
            elif name == "solver.lu_factor":
                m["solver.lu_fill"] += v
            elif name == "mesh.build_window":
                m["mesh.st_cells"] += v[0]
                m["mesh.faces"] += v[1]
                m["mesh.bundles"] += v[2]
            elif name == "solver.newton_solve_window":
                if self.names[self.parent[i]] in PREDICTOR_PARENTS:
                    m["run.predictor_iterations"] += v
                else:
                    most = max(most, v)
            elif name.endswith(".escalate"):
                m["solver.escalations"] += v
        m["solver.newton_failures"] = sum(
            1 for i in self.failed
            if self.names[i] == "solver.newton_solve_window")
        out = {k: v / n_sims for k, v in m.items()}
        out["solver.max_iterations_per_window"] = most
        out["solver.lu_fill_ratio"] = (m["solver.lu_fill"] / jac_nnz
                                       if jac_nnz else 0.0)
        return out

    def write(self, path):
        """All spans as CSV: id, name, start, end, parent, failed."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,failed\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.t0[i]!r},{self.t1[i]!r},"
                         f"{self.parent[i]},{int(i in self.failed)}\n")
