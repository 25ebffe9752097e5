"""Span recorder for the traced benchmark run.

The recorder wraps isolab's public functions from outside the program: each
target is replaced, in every isolab module namespace that holds it, by a
wrapper that records one span (id, parent id, operation id, name, start,
end).  Wrapping in the caller's namespace is what catches internal calls such
as ``isolab.arrows.gamma_c`` or the ``integrate`` that ``integrate_contour``
looks up in ``isolab.ode_engine``.

ODE work is read only from the ``OdeSolution`` that ``integrate`` returns, so
nothing is counted twice through ``integrate_contour``; every enclosing span
inherits the steps of the integrations beneath it.  Self time is a span's
duration minus that of its direct children.  Totals are kept per round, and
the spans of the first round are kept in memory and written at the end.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path

ODE_TARGET = "ode_engine.integrate"

#: Public functions wrapped in the traced run, as "<module>.<function>".
TARGETS = (
    "special_fn.gamma_c",
    "core_linalg.eigen2", "core_linalg.eigen3", "core_linalg.minor",
    "core_linalg.matrix_power_scalar",
    "arrows.arrow_q", "arrows.arrow_g", "arrows.arrow_p", "arrows.arrow_f",
    "arrows.arrow_q_inverse",
    ODE_TARGET,
    "stokes_numeric.stokes_matrices", "stokes_numeric.canonical_frame",
    "stokes_numeric.continue_frame",
    "pvi_trajectory.seed_asymptotic", "pvi_trajectory.extend_trajectory",
    "pvi_trajectory.regularized_limits",
    "jmms_flow.flow_path", "jmms_flow.shrinking_check",
    "cli_harness.sample_parameters", "cli_harness.bridged_phi_at_u0",
)


@dataclass
class Totals:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    steps: int = 0  # accepted + rejected ODE steps, inclusive
    nfev: int = 0
    naccept: int = 0
    nreject: int = 0

    def exact(self) -> tuple[int, int, int, int]:
        """The counts that must repeat exactly between identical rounds."""
        return self.calls, self.nfev, self.naccept, self.nreject


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self.totals: dict[str, Totals] = {}
        self.spans: list[tuple] = []
        self._keep = True
        self._next_id = 0
        self._stack: list[list] = []  # [span id, children's time, steps]
        self._installed: list[tuple] = []

    def install(self, modules: dict) -> None:
        """Wrap every target in each of ``modules`` (name -> module) that holds it."""
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(target, original, target == ODE_TARGET)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every function that :meth:`install` wrapped."""
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed = []

    def _wrap(self, name: str, fn, ode: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0, 0]
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, parent, start, None)
                raise
            self._close(name, frame, parent, start, result if ode else None)
            return result

        return traced

    def _close(self, name: str, frame: list, parent: int, start: float,
               solution) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = Totals()
        steps = frame[2]
        if solution is not None:
            t.nfev += solution.nfev
            t.naccept += solution.naccept
            t.nreject += solution.nreject
            steps += solution.naccept + solution.nreject
        t.calls += 1
        t.busy += duration
        t.self_time += duration - frame[1]
        t.steps += steps
        if self._stack:
            up = self._stack[-1]
            up[1] += duration
            up[2] += steps
        if self._keep:
            self.spans.append((frame[0], parent, self.op_id, name, start, end))

    def end_round(self) -> dict[str, Totals]:
        """Return this round's totals and start the next round; keep round 0's spans."""
        totals, self.totals = self.totals, {}
        self._keep = False
        return totals

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[4] for span in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start_s": start - origin,
                                     "end_s": end - origin}) + "\n")
