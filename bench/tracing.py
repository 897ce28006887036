"""In-memory spans around relaxbench's module functions, reduced to layer metrics.

`instrument` replaces module and class attributes with timing wrappers.  The
program reaches its layers through those attributes (`cli` calls
`diagnostics.study_for_bundle`, `diagnostics` calls `hypersolver.run`,
`validate_all` calls each `check_*` as a module global), so every such call
opens a span whose parent is the span open at the time.  A layer's self time
is the duration of its spans minus the time their child spans cover, so the
self times of all layers add up to the root `cli.main` span.  `core` gets no
span: it only runs inside the other layers, as part of their self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

LAYERS = ("builder", "validator", "hypersolver", "parasolver", "diagnostics", "cli")
CHECK_NAMES = (
    "hyperbolicity", "conserved_block", "rank_condition", "dissipativity",
    "symmetrizer", "petrowski_limit", "source_structure", "strong_parabolicity",
)


@dataclass
class Span:
    name: str                # "<layer>.<what>"
    parent: Optional[int]    # index of the enclosing span
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable[[Span, object], None]] = None) -> None:
        """Record a span around every call through `owner.attr`, if it exists."""
        static = inspect.getattr_static(owner, attr, None)
        if static is None:
            return
        fn = getattr(owner, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else None, time.perf_counter())
            spans.append(span)
            open_.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(span, result)
            return result

        setattr(owner, attr, staticmethod(traced) if isinstance(static, staticmethod) else traced)


def _count_samples(span: Span, samples) -> None:
    span.counts["samples"] = (samples.x_points.shape[1] * samples.directions.shape[1]
                              * samples.u_points.shape[1])


def _name_check(span: Span, result) -> None:
    span.name = f"validator.check.{result.name}"


def _count_run(span: Span, traj) -> None:
    steps = len(traj.records) - 1
    span.counts.update(steps=steps, cell_steps=steps * traj.final.grid.cell_count,
                       clamp_events=traj.clamp_events)


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (and `splu` as parasolver sees it)."""
    from relaxbench import builder, cli, core, diagnostics, hypersolver, parasolver, validator

    wrap = tracer.wrap
    wrap(cli, "main", "cli.main")
    for cmd in ("cmd_validate", "cmd_run", "cmd_converge"):
        wrap(cli, cmd, "cli.command")
    wrap(cli, "report_csv", "cli.format")
    wrap(hypersolver, "snapshot_csv", "cli.format")
    wrap(hypersolver.Trajectory, "steps_csv", "cli.format")
    wrap(parasolver, "reference_csv", "cli.format")
    wrap(core.ConvergenceTable, "to_csv", "cli.format")

    wrap(builder, "demo", "builder.demo")

    wrap(validator.SampleSet, "build", "validator.samples", _count_samples)
    wrap(validator, "validate_all", "validator.validate")
    for attr in dir(validator):
        if attr.startswith("check_") and inspect.isfunction(getattr(validator, attr)):
            wrap(validator, attr, "validator.check", _name_check)

    wrap(hypersolver, "run", "hypersolver.run", _count_run)
    wrap(hypersolver, "well_prepared_state", "hypersolver.well_prepared")
    wrap(hypersolver, "max_wave_speed", "hypersolver.max_wave_speed")

    wrap(parasolver, "run_reference", "parasolver.reference")
    wrap(parasolver, "splu", "parasolver.lu")
    for cls in vars(parasolver).values():
        if (inspect.isclass(cls) and cls.__module__ == parasolver.__name__
                and inspect.isfunction(getattr(cls, "step", None))):
            wrap(cls, "step", "parasolver.step")

    wrap(diagnostics, "study_for_bundle", "diagnostics.ladder")
    wrap(diagnostics, "space_time_error", "diagnostics.error")
    wrap(diagnostics, "limit_residual", "diagnostics.residual")


def _timings(spans: List[Span]):
    """Each span's duration, and how much of it its child spans cover."""
    dur = [s.end - s.start for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            covered[s.parent] += dur[i]
    return dur, covered


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer totals, self times and counters from one traced command."""
    dur, covered = _timings(spans)

    def outermost(name: str):
        # a span nested in one of the same name is already inside that one's total
        return [i for i, s in enumerate(spans)
                if s.name == name and (s.parent is None or spans[s.parent].name != name)]

    def total(name: str) -> float:
        return sum(dur[i] for i in outermost(name))

    def count(name: str, key: str) -> float:
        return sum(spans[i].counts.get(key, 0) for i in outermost(name))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(dur[i] - covered[i] for i, s in enumerate(spans)
                                   if s.layer == layer)
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    m["trace.root_s"] = sum(dur[i] for i in roots)
    m["trace.roots"] = len(roots)

    m["builder.demo_s"] = total("builder.demo")

    m["validator.validate_s"] = total("validator.validate")
    m["validator.samples"] = count("validator.samples", "samples")
    for check in CHECK_NAMES:
        m[f"validator.check.{check}_s"] = total(f"validator.check.{check}")

    run_s = total("hypersolver.run")
    run_self = sum(dur[i] - covered[i] for i in outermost("hypersolver.run"))
    steps = count("hypersolver.run", "steps")
    m["hypersolver.run_s"] = run_s
    m["hypersolver.steps"] = steps
    m["hypersolver.step_us"] = 1e6 * run_self / steps if steps else 0.0
    m["hypersolver.cell_steps_per_s"] = (count("hypersolver.run", "cell_steps") / run_s
                                         if run_s else 0.0)
    m["hypersolver.max_wave_speed_s"] = total("hypersolver.max_wave_speed")
    m["hypersolver.well_prepared_s"] = total("hypersolver.well_prepared")
    m["hypersolver.clamp_events"] = count("hypersolver.run", "clamp_events")

    ref_steps = calls("parasolver.step")
    lus = calls("parasolver.lu")
    m["parasolver.reference_s"] = total("parasolver.reference")
    m["parasolver.steps"] = ref_steps
    m["parasolver.lu_factorizations"] = lus
    m["parasolver.lu_s"] = total("parasolver.lu")
    m["parasolver.sweeps_per_step"] = lus / ref_steps if ref_steps else 0.0

    m["diagnostics.ladder_s"] = total("diagnostics.ladder")
    m["diagnostics.error_s"] = total("diagnostics.error")
    m["diagnostics.residual_s"] = total("diagnostics.residual")

    m["cli.command_s"] = total("cli.command")
    m["cli.format_s"] = total("cli.format")
    return m


def span_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Calls, total and self seconds per span name, for the human-readable record."""
    dur, covered = _timings(spans)
    table: Dict[str, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur[i]
        row["self_s"] += dur[i] - covered[i]
    return table
