"""perf_counter spans around the public calls of each ocfem layer.

Nothing inside ``src/`` is instrumented: ``installed`` swaps the module and
class attributes through which the layers call each other for timing
wrappers, and restores them on exit.  Spans live in flat arrays in memory
and are written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

import ocfem.assembly
import ocfem.harness
from ocfem import AssembledNlp

#: (owner, attribute, span name).  Layers call these through the owner's
#: namespace, so patching the owner catches every call.
TARGETS = (
    (ocfem.harness, "uniform_mesh", "mesh.build"),
    (ocfem.assembly, "merge_meshes", "mesh.build"),
    (ocfem.assembly, "gauss_legendre_unit", "quadrature.build"),
    (ocfem.assembly, "compose_rule", "quadrature.build"),
    (ocfem.harness, "build_space", "fespace.build"),
    (ocfem.assembly, "build_eval_operator", "fespace.build"),
    (ocfem.assembly, "build_point_eval_operator", "fespace.build"),
    (ocfem.assembly, "build_regularizer", "fespace.build"),
    (ocfem.assembly, "eval_running_cost", "ocp_model.callback"),
    (ocfem.assembly, "eval_path_constraints", "ocp_model.callback"),
    (ocfem.assembly, "eval_point_constraints", "ocp_model.callback"),
    (AssembledNlp, "objective_terms", "assembly.objective"),
    (AssembledNlp, "gradient", "assembly.gradient"),
    (AssembledNlp, "full_hessian", "assembly.hessian"),
    (AssembledNlp, "z_values", "assembly.other"),
    (AssembledNlp, "residual_value", "assembly.other"),
    (AssembledNlp, "penalty_multipliers", "assembly.other"),
)


class Tracer:
    """Spans as parallel arrays: name id, parent index, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.hessian_nnz = 0

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap_hessian(self, fn):
        traced = self.wrap("assembly.hessian", fn)

        def observed(*args, **kwargs):
            hess = traced(*args, **kwargs)
            self.hessian_nnz = max(self.hessian_nnz, hess.nnz)
            return hess

        return observed

    def mark(self) -> int:
        """Span count so far; pass it to ``summary`` to cover later spans only."""
        return len(self.start)

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive seconds and self seconds."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[since:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[since:] - since
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[since:]
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        self_time = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {
                "count": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every call in ``TARGETS`` through the tracer while active."""
    saved = []
    try:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if name == "assembly.hessian":
                setattr(owner, attr, tracer.wrap_hessian(original))
            else:
                setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
