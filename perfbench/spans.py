"""In-memory span recorder that times penn_mpc's public functions from outside.

Each shim replaces a name where its caller looks it up (``mppi`` imports
``jrd_batch`` and ``track_frame_batch`` by name, so those are patched in
``penn_mpc.mppi``), records one span per call and calls through unchanged.
Nothing inside ``src/`` is touched; ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from penn_mpc import commands, data, dynamics, mppi, nn, sim


@dataclass
class Span:
    name: str
    phase: str          # "setup" or "timed"
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 at top level
    rows: int = 0       # batch rows processed by the call
    flop: float = 0.0   # computed multiply-add FLOPs (nn.mlp_forward only)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


def _forward_flop(params, x) -> float:
    """2 * sum(in * out) per row: the dense layers' multiply-adds, computed
    from the layer sizes; bias adds and activations are not counted."""
    sizes = params.layer_sizes
    per_row = 2.0 * sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    return per_row * rows


def _rows_first(arg) -> int:
    return int(arg.shape[0]) if getattr(arg, "ndim", 0) >= 2 else 1


# (owner, attribute, span name, rows from positional args, flop from args).
# A name is patched at every module that looks it up, so calls from the
# benchmark and from inside the package both land in the same span.
_TARGETS = [
    (mppi, "mpc_step", "mppi.mpc_step", None, None),
    (mppi, "sample_perturbations", "mppi.sample_perturbations", None, None),
    (mppi, "jrd_batch", "jrd.jrd_batch", lambda a: _rows_first(a[0]), None),
    (mppi, "track_frame_batch", "sim.track_frame_batch",
     lambda a: _rows_first(a[0]), None),
    (dynamics.PennModel, "delta_batch", "dynamics.delta_batch",
     lambda a: _rows_first(a[1]), None),
    (nn, "mlp_forward", "nn.mlp_forward", lambda a: _rows_first(a[1]),
     lambda a: _forward_flop(a[0], a[1])),
    (nn, "mlp_backward", "nn.mlp_backward", None, None),
    (nn, "adam_step", "nn.adam_step", None, None),
    (dynamics, "train", "dynamics.train", None, None),
    (dynamics, "evaluate_rmse", "dynamics.evaluate_rmse", None, None),
    (dynamics, "stack_samples", "dynamics.stack_samples", None, None),
    (sim, "plant_step", "sim.plant_step", None, None),
    (data, "window_episodes", "data.window_episodes", None, None),
    (commands, "window_episodes", "data.window_episodes", None, None),
    (commands, "cmd_collect", "commands.cmd_collect", None, None),
    (commands, "train_set_jrd_percentile", "commands.train_set_jrd_percentile",
     None, None),
]


class Tracer:
    """Owns the span list and the patched names for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, rows_of, flop_of):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self.phase, 0.0, 0.0, parent,
                        rows_of(args) if rows_of else 0,
                        flop_of(args) if flop_of else 0.0)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return shim

    def install(self) -> None:
        for owner, attr, name, rows_of, flop_of in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, rows_of, flop_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def inside(self, idx: int, ancestor: str) -> bool:
        """True when span ``idx`` runs (transitively) inside a span named
        ``ancestor``."""
        p = self.spans[idx].parent
        while p >= 0:
            if self.spans[p].name == ancestor:
                return True
            p = self.spans[p].parent
        return False

    def dump(self) -> list[list]:
        return [[s.name, s.phase, s.start, s.end, s.parent, s.rows, s.flop]
                for s in self.spans]
