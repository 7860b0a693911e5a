"""Outside-in layer ledger: spans recorded from the benchmark's own files.

The benchmark never turns on repro's own telemetry.  Instead, for a
traced run it replaces a fixed set of public functions and methods with
thin timing wrappers, *at the name where the caller looks them up*
(``repro.parallel.cluster.advance_window``, not the defining module's
``repro.parallel.distributed.advance_window``), and restores the
originals afterwards.  Each wrapper records one span: layer name,
thread, start and end (``perf_counter_ns``) and its parent span.

Self time is attributed on one wall-clock timeline per op.  Every
instant of the op is charged to the *leaf* spans open at that instant
(open spans with no open child); when several threads hold leaves at
once, the instant is split evenly between them.  On a single thread
this is exactly "the span minus the child spans it covers"; with a
thread pool it keeps the ledger additive: the self times of all layers
plus the benchmark's own glue sum to the op's wall time, never more.
Spans opened on a worker thread have no same-thread parent; they are
children of the innermost span of the op's thread that encloses them
(the fan-out point: ``supervise_tasks``, ``ClusterRuntime.run``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

#: (layer, owner, attribute).  ``owner`` is ``module`` or
#: ``module:Class``; the attribute is replaced on that object.
PATCHES = (
    ("runtime.compile", "repro", "compile"),
    # distribute() compiles through ``facade.compile``
    ("runtime.compile", "repro.runtime.facade", "compile"),
    ("runtime.facade", "repro.runtime.facade:CompiledStencil", "apply_grid"),
    ("runtime.facade", "repro.runtime.facade:CompiledStencil", "apply_simulated"),
    ("runtime.apply", "repro.runtime.executor:Runtime", "apply"),
    ("runtime.apply", "repro.runtime.executor:Runtime", "apply_simulated"),
    (
        "runtime.apply",
        "repro.runtime.executor:Runtime",
        "apply_simulated_sharded",
    ),
    ("stencil.pad", "repro.stencil.boundary:Dirichlet", "pad"),
    ("core.lower", "repro.runtime.plan", "lower"),
    ("core.engine_apply", "repro.core.engine2d:LoRAStencil2D", "apply"),
    ("core.engine_sim", "repro.core.engine2d:LoRAStencil2D", "apply_simulated"),
    ("core.block_sweep", "repro.core.engine2d", "run_block_sweep"),
    ("core.vector_sweep", "repro.core.vectorize", "run_vector_sweep"),
    ("core.vector_walk", "repro.core.vectorize:VectorProgram", "execute_batch_2d"),
    ("core.vector_probe", "repro.core.vectorize:VectorProgram", "probe"),
    ("tcu.execute_program", "repro.core.engine2d", "execute_program"),
    ("faults.check_tile", "repro.faults.abft:SweepGuard", "check_tile"),
    ("faults.check_stage", "repro.faults.abft:SweepGuard", "check_stage"),
    ("faults.supervise", "repro.faults.supervisor", "supervise_tasks"),
    ("parallel.run", "repro.parallel.cluster:ClusterRuntime", "run"),
    ("parallel.scatter", "repro.parallel.cluster:ClusterRuntime", "scatter"),
    ("parallel.gather", "repro.parallel.cluster:ClusterRuntime", "gather"),
    ("parallel.exchange", "repro.parallel.halo:HaloExchanger", "exchange"),
    ("parallel.exchange", "repro.parallel.halo:HaloExchanger", "exchange_async"),
    ("parallel.wait", "repro.parallel.halo:AsyncHaloHandle", "wait"),
    ("parallel.advance", "repro.parallel.cluster", "advance_window"),
    ("parallel.advance", "repro.parallel.cluster", "interior_of"),
)

#: the op root the benchmark opens around every traced op; its self
#: time is the benchmark's own glue (loop, argument passing)
ROOT = "bench.op"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Ledger:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (sid, parent, tid, layer, t0, t1)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn):
        """``fn`` with one span per call recorded under ``layer``."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, threading.get_ident(), layer, t0, t1))

        return traced

    def install(self) -> None:
        """Replace every patch target with its traced wrapper."""
        if self._saved:
            raise RuntimeError("ledger patches are already installed")
        for layer, owner, attr in PATCHES:
            obj = _resolve(owner)
            original = vars(obj)[attr]  # defined here, not inherited
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        """Restore every original function and method."""
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def run_op(self, op):
        """Call ``op()`` under the root span; returns its result."""
        self.spans.clear()
        return self.wrap(ROOT, op)()

    def inclusive_ns(self, layer: str) -> int:
        """Summed span durations of ``layer`` since the last op began."""
        return sum(s[5] - s[4] for s in self.spans if s[3] == layer)

    # -- attribution --------------------------------------------------------
    def attribute(self) -> tuple[int, dict[str, float], dict[str, int]]:
        """Fold the last op's spans into ``(wall_ns, self_ns, calls)``.

        ``self_ns`` maps each layer to its self time on the op timeline
        (see the module docstring); the values sum to ``wall_ns``.
        """
        spans = list(self.spans)
        root = next(s for s in spans if s[3] == ROOT)
        main_tid = root[2]
        main = [s for s in spans if s[2] == main_tid]
        parent: dict[int, int | None] = {}
        calls: dict[str, int] = defaultdict(int)
        for sid, par, tid, layer, t0, t1 in spans:
            calls[layer] += 1
            if par is None and tid != main_tid:
                # a worker-thread root: adopt the innermost enclosing span
                # of the op's thread (the fan-out point)
                enclosing = [m for m in main if m[4] <= t0 and t1 <= m[5]]
                par = max(enclosing, key=lambda m: m[4])[0] if enclosing else root[0]
            parent[sid] = par
        layer_of = {s[0]: s[3] for s in spans}
        events = sorted(
            [(s[4], 1, s[0]) for s in spans] + [(s[5], 0, s[0]) for s in spans]
        )  # at equal stamps, closes sort before opens
        open_children: dict[int, int] = defaultdict(int)
        active: set[int] = set()
        self_ns: dict[str, float] = defaultdict(float)
        prev = None
        for stamp, opening, sid in events:
            if prev is not None and stamp > prev and active:
                leaves = [a for a in active if open_children[a] == 0]
                share = (stamp - prev) / len(leaves)
                for a in leaves:
                    self_ns[layer_of[a]] += share
            prev = stamp
            par = parent[sid]
            if opening:
                active.add(sid)
                if par is not None:
                    open_children[par] += 1
            else:
                active.discard(sid)
                if par is not None:
                    open_children[par] -= 1
        return root[5] - root[4], dict(self_ns), dict(calls)
