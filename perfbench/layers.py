"""Layer spans for the traced run and the per-layer metrics built from them.

Layers are the apxcp modules. Each public function the commands reach is
wrapped under a span name ``<module>.<role>``; ``cli.cmd`` is the span the
benchmark opens around each command call. Seconds are self time (a span
minus what its child spans cover) and, like call counts, are reported per
traced instance.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

import apxcp
from apxcp import approx, cli, conformal, data_io, kernels, losses, solver
from spans import SpanRecorder, self_times

MODULES = [apxcp, approx, cli, conformal, data_io, kernels, losses, solver]

_SCAN_SIGNATURE = inspect.signature(approx.approx_pvalue_curves)


def _scan_args(args, kwargs):
    bound = _SCAN_SIGNATURE.bind(*args, **kwargs)
    return bound.arguments


def _scan_name(args, kwargs) -> str:
    return f"approx.scan.{_scan_args(args, kwargs)['method'].kind}"


def _scan_cells(args, kwargs) -> int:
    """Grid points times scored points, m * (n + 1), of one scan."""
    a = _scan_args(args, kwargs)
    return a["grid"].m * (len(a["Y"]) + 1)


def instrument(recorder: SpanRecorder, track_alloc: bool = False) -> None:
    """Wrap every layer function; recorder.close() undoes it."""
    wrap = recorder.wrap
    wrap(data_io.friedman1, "data_io.friedman1")
    wrap(kernels.gram, "kernels.gram")
    wrap(kernels.gram_between, "kernels.gram_between")
    wrap(kernels.pseudo_inverse_apply, "kernels.pinv")
    wrap(losses.loss_d, "losses.loss_d")
    wrap(losses.loss_value, "losses.loss_value")
    wrap(solver.fit, "solver.fit", note_result=lambda p: p.n_iters)
    wrap(solver.risk, "solver.risk")
    wrap(solver.gradient, "solver.gradient")
    wrap(solver.hessian, "solver.hessian")
    wrap(approx.base_fit, "approx.base_fit")
    wrap(approx.influence_direction, "approx.influence")
    if track_alloc:
        wrap(approx.approx_pvalue_curves, _scan_name, track_alloc=True)
    else:
        wrap(approx.approx_pvalue_curves, _scan_name, note_args=_scan_cells)
    wrap(conformal.region_from_curve, "conformal.region")
    wrap(conformal.full_conformal_pvalues, "conformal.full")
    for func in (conformal.split_region, conformal.split_pvalues,
                 conformal.oracle_region, conformal.oracle_pvalues,
                 conformal.cross_pvalues):
        wrap(func, "conformal.baselines")
    wrap(conformal.write_region_csv, "conformal.write")
    wrap(conformal.write_region_json, "conformal.write")

    gm = kernels.GramMatrix
    recorder.wrap_attribute(gm, "project_onto_range",
                            recorder.traced(gm.project_onto_range, "kernels.project"))
    cached = gm.eigenpairs.fget
    first_eigh = recorder.traced(cached, "kernels.gram_eigh")

    def eigenpairs(self):
        # only the call that computes the decomposition is a span; later
        # calls return the cached pair
        return cached(self) if self._eig is not None else first_eigh(self)

    recorder.wrap_attribute(gm, "eigenpairs", property(eigenpairs))


# spans whose calls and self time are reported under their own name
TIMED = ("data_io.friedman1", "kernels.gram", "kernels.gram_eigh",
         "kernels.pinv", "kernels.project", "losses.loss_d",
         "losses.loss_value", "solver.fit", "solver.hessian",
         "solver.gradient", "solver.risk", "approx.base_fit",
         "approx.influence", "conformal.region", "conformal.full",
         "conformal.baselines", "conformal.write")
SCAN_KINDS = ("uniform_stability", "local_stability", "influence_function")


def layer_metrics(spans, instances: int) -> dict[str, float]:
    """Per-instance layer metrics from the spans of `instances` instances."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    risk_children: dict[int, int] = defaultdict(int)
    iters = fits_ok = fit_errors = halvings = refits = cells = 0
    for i, s in enumerate(spans):
        calls[s.name] += 1
        own[s.name] += selfs[i]
        inclusive[s.name] += s.end - s.start
        if s.parent is None:
            continue
        parent = spans[s.parent]
        if s.name == "solver.risk" and parent.name == "solver.fit":
            risk_children[s.parent] += 1
        elif s.name == "solver.fit" and parent.name == "conformal.full":
            refits += 1
    for i, s in enumerate(spans):
        if s.name == "solver.fit":
            if s.error is None:
                iters += s.note
                fits_ok += 1
                # one risk evaluation at the start, then one per accepted
                # step; any further evaluation is a line-search halving
                halvings += risk_children[i] - s.note - 1
            elif s.error == "SolverError":
                fit_errors += 1
        elif s.name.startswith("approx.scan.") and s.note is not None:
            cells += s.note

    per = 1.0 / instances
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.s"] = own[name] * per
    scan_self = 0.0
    for kind in SCAN_KINDS:
        name = f"approx.scan.{kind}"
        out[f"{name}.s"] = own[name] * per
        scan_self += own[name]
    out["solver.iters"] = iters * per
    out["solver.iters_per_fit"] = iters / fits_ok if fits_ok else 0.0
    out["solver.halvings"] = halvings * per
    out["solver.errors"] = fit_errors * per
    out["approx.scan.cells"] = cells * per
    out["approx.scan.ns_per_cell"] = scan_self / cells * 1e9 if cells else 0.0
    out["conformal.refits"] = refits * per
    out["conformal.full.ms_per_refit"] = (inclusive["conformal.full"] / refits * 1e3
                                          if refits else 0.0)
    out["cli.cmd.s"] = inclusive["cli.cmd"] * per
    out["cli.self_s"] = own["cli.cmd"] * per
    return out


def peak_alloc_mb(spans) -> float:
    """Largest tracemalloc peak of one scan call, in MB."""
    peaks = [s.note for s in spans if s.name.startswith("approx.scan.")
             and s.note is not None]
    return max(peaks, default=0) / 2 ** 20
