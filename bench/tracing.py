"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces walksolve's public functions and program
methods with timing wrappers, at every module where each function is
bound (``walksolve.cli.analyze`` as well as ``walksolve.analysis.analyze``),
and restores the originals when it is closed.  Each wrapped call is a span:
its duration is added to the span's name, and to the child time of the
span that was open when it started, so a name's self time is its time
minus the time of the traced calls made inside it.

Spans use ``time.perf_counter``: the benchmark runs single-threaded with
BLAS pinned to one thread, so a span's wall time is its busy time.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute) pairs of the public functions that are traced;
#: each is wrapped in every walksolve module that binds the same object
FUNCTIONS = (
    ("walksolve.core", "generate_instance"),
    ("walksolve.core", "induced_graph"),
    ("walksolve.core", "diameter"),
    ("walksolve.mmio", "read_matrix_market"),
    ("walksolve.mmio", "read_rhs"),
    ("walksolve.mmio", "write_matrix_market"),
    ("walksolve.mmio", "write_rhs"),
    ("walksolve.analysis", "analyze"),
    ("walksolve.analysis", "spectral_radius_nonneg"),
    ("walksolve.analysis", "find_gdd_scaling"),
    ("walksolve.analysis", "residual_matrix"),
    ("walksolve.engine", "run_rounds"),
    ("walksolve.solvers", "dense_solve"),
    ("walksolve.cli", "main"),
)

#: (module, class, method, span name); init_node is round 0 of a
#: program's per-node work, so it is counted with step
METHODS = (
    ("walksolve.core", "SparseSystem", "__init__", "SparseSystem"),
    ("walksolve.solvers", "BPProgram", "__init__", "program_setup"),
    ("walksolve.solvers", "JacobiProgram", "__init__", "program_setup"),
    ("walksolve.solvers", "ConsensusProgram", "__init__", "program_setup"),
    ("walksolve.solvers", "BPProgram", "init_node", "bp_step"),
    ("walksolve.solvers", "BPProgram", "step", "bp_step"),
    ("walksolve.solvers", "JacobiProgram", "init_node", "jacobi_step"),
    ("walksolve.solvers", "JacobiProgram", "step", "jacobi_step"),
    ("walksolve.solvers", "ConsensusProgram", "init_node", "consensus_step"),
    ("walksolve.solvers", "ConsensusProgram", "step", "consensus_step"),
)


class Tracer:
    """Span totals per name; install with ``with Tracer() as t``.

    ``time[name]`` is the inclusive time of every call, ``self_time[name]``
    that time minus traced calls inside it, ``calls[name]`` the call count
    and ``counts`` the work counters read from arguments and results.
    """

    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += dt
                self.time[name] += dt
                self.self_time[name] += dt - child
                self.calls[name] += 1
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _count_rounds(self, args, trace):
        rows = trace.rounds
        self.counts["rounds"] += len(rows)
        self.counts["messages"] += sum(r.accounting.messages_sent
                                       for r in rows)
        self.counts["node_ops"] += sum(sum(r.accounting.per_node_ops)
                                       for r in rows)

    def _count_bytes(self, args, result):
        self.counts["bytes_read"] += os.path.getsize(args[0])

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "walksolve" or name.startswith("walksolve.")]
        after = {"run_rounds": self._count_rounds,
                 "read_matrix_market": self._count_bytes,
                 "read_rhs": self._count_bytes}
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._span(attr, original, after.get(attr))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)
        for mod_name, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, method, self._span(span, cls.__dict__[method]))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False
