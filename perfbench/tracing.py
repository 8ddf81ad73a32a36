"""Spans around the calls into each layer, installed from outside ``repro``.

:class:`Tracer` replaces a function or method with a wrapper that
records one span per call: ``(name, start, end, parent, id, info)``
with ``time.monotonic`` stamps, so spans recorded in a server process
join client-side timestamps of the same host.  Spans stay in memory
and are written out once, at the end.

The parent of a span is the span open in the caller's context
(``contextvars``: one per asyncio task, one per thread).  Work a
coroutine hands to an executor thread starts in a fresh context; it is
parented to the micro-batch dispatch in progress, which the service
never runs concurrently with itself.

A layer's *self time* is a span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import itertools
import json
import pathlib
import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: name, start, end, parent id (0 = none), span id, info
Span = Tuple[str, float, float, int, int, Any]
#: info(args, value of before(args), return value) -> what rides on the span
InfoFn = Callable[[tuple, Any, Any], Any]


class Tracer:
    """In-memory span recorder plus the patching helpers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._open: "contextvars.ContextVar[int]" = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._main = threading.main_thread()
        #: span id of the micro-batch dispatch in progress (0 = none)
        self.dispatching = 0
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def _parent(self) -> int:
        parent = self._open.get()
        if parent == 0 and threading.current_thread() is not self._main:
            return self.dispatching
        return parent

    def wrap(self, name: str, fn: Callable, info: Optional[InfoFn] = None,
             before: Optional[Callable[[tuple], Any]] = None) -> Callable:
        """A wrapper of ``fn`` recording one ``name`` span per call.

        ``before(args)`` runs first; ``info(args, before_value, result)``
        runs last and its return rides on the span.
        Coroutine functions get a coroutine wrapper whose span covers
        the whole await.
        """
        spans, ids, open_var, parent_of = self.spans, self._ids, self._open, self._parent
        clock = time.monotonic

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(ids)
                parent = parent_of()
                token = open_var.set(sid)
                pre = before(args) if before is not None else None
                result = None
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    open_var.reset(token)
                    extra = info(args, pre, result) if info is not None else None
                    spans.append((name, start, end, parent, sid, extra))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = parent_of()
            token = open_var.set(sid)
            pre = before(args) if before is not None else None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                open_var.reset(token)
                extra = info(args, pre, result) if info is not None else None
                spans.append((name, start, end, parent, sid, extra))

        return wrapper

    # ------------------------------------------------------------------
    def patch_function(self, module: Any, attr: str, name: str, **kw: Any) -> None:
        """Wrap a module-level function everywhere it was imported by name.

        ``from x import f`` binds ``f`` in the importing module too, so
        every loaded ``repro`` module holding the same object is patched.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **kw)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append(functools.partial(setattr, mod, attr, original))

    def patch_method(self, cls: type, attr: str, name: str, **kw: Any) -> None:
        """Wrap one method defined on ``cls`` (static methods included)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(name, raw.__func__, **kw))
        else:
            wrapped = self.wrap(name, raw, **kw)
        setattr(cls, attr, wrapped)
        self._undo.append(functools.partial(setattr, cls, attr, raw))

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._undo:
            self._undo.pop()()

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as one JSON list."""
        path.write_text(json.dumps(self.spans))


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def load_layers() -> None:
    """Import every module that binds a wrapped function by name.

    :meth:`Tracer.patch_function` patches the modules loaded when it
    runs, so they must all be loaded first.
    """
    import repro.experiments  # noqa: F401
    import repro.serve.cli  # noqa: F401
    import repro.workloads.campaign  # noqa: F401


def install_model(tracer: Tracer) -> None:
    """Model evaluation: breakdown, series, terms and the family regressors."""
    load_layers()
    from repro.core import model, prediction
    from repro.serve import service
    from repro.workloads import base, family_names, get_family

    tracer.patch_method(model.OpalPerformanceModel, "breakdown", "model.breakdown")
    tracer.patch_function(prediction, "predict_series", "model.predict_series")
    tracer.patch_function(model, "terms_breakdown", "model.terms_breakdown")
    for attr in ("_evaluate_point", "_evaluate_sweep",
                 "_evaluate_family_point", "_evaluate_family_sweep"):
        tracer.patch_function(service, attr, "service.evaluate")
    classes = {base.WorkloadFamily}
    for name in family_names():
        classes.update(type(get_family(name)).__mro__)
    for cls in classes:
        if "terms" in cls.__dict__:
            tracer.patch_method(cls, "terms", "workloads.terms")


def install_campaign(tracer: Tracer) -> None:
    """DES engine (with event and message counts), cells, cache, fit, predict."""
    load_layers()
    from repro.core import calibration, prediction
    from repro.experiments.cache import ResultCache
    from repro.netsim import engine, network
    from repro.opal import parallel
    from repro.workloads import base

    fabrics: Dict[int, "weakref.ref[Any]"] = {}
    fabric_init = network.Fabric.__init__

    def register(self, eng, *args, **kwargs):
        fabric_init(self, eng, *args, **kwargs)
        fabrics[id(eng)] = weakref.ref(self)

    network.Fabric.__init__ = register
    tracer._undo.append(functools.partial(setattr, network.Fabric, "__init__", fabric_init))

    def counters(args):
        eng = args[0]
        ref = fabrics.get(id(eng))
        fab = ref() if ref is not None else None
        return (eng, fab, eng.events_executed,
                fab.messages_transferred if fab is not None else 0,
                fab.bytes_transferred if fab is not None else 0.0)

    def deltas(args, pre, result):
        eng, fab, events, msgs, nbytes = pre
        return [eng.events_executed - events,
                (fab.messages_transferred - msgs) if fab is not None else 0,
                (fab.bytes_transferred - nbytes) if fab is not None else 0.0]

    tracer.patch_method(engine.Engine, "run", "engine.run", before=counters, info=deltas)
    tracer.patch_function(parallel, "run_parallel_opal", "opal.run_parallel_opal")
    tracer.patch_method(base.WorkloadFamily, "simulate", "workloads.simulate")
    tracer.patch_method(ResultCache, "key_for", "cache.key_for")
    tracer.patch_method(ResultCache, "load", "cache.load",
                        info=lambda a, pre, result: result is not None)
    tracer.patch_method(ResultCache, "store", "cache.store")
    tracer.patch_function(calibration, "calibrate", "calibration.fit")
    tracer.patch_function(calibration, "calibrate_terms", "calibration.fit")
    tracer.patch_function(prediction, "predict_platforms", "prediction.predict")


def install_serve(tracer: Tracer) -> None:
    """Request path: parse, encode, admission, batcher, calibration store, submit."""
    load_layers()
    from repro.serve import admission, api, batcher, calibstore, service

    tracer.patch_function(api, "parse_request", "api.parse_request")
    tracer.patch_function(api, "canonical", "api.canonical")
    tracer.patch_method(admission.AdmissionController, "decide", "admission.decide")
    tracer.patch_method(batcher.MicroBatcher, "put", "batcher.put",
                        info=lambda a, pre, result: a[1].request.id)

    dispatch = service.PredictionService.__dict__["_dispatch"]

    async def traced_dispatch(self, batch):
        sid = next(tracer._ids)
        token = tracer._open.set(sid)
        tracer.dispatching = sid
        start = time.monotonic()
        try:
            return await dispatch(self, batch)
        finally:
            end = time.monotonic()
            tracer.dispatching = 0
            tracer._open.reset(token)
            tracer.spans.append(("batcher.dispatch", start, end, 0, sid,
                                 [p.request.id for p in batch]))

    service.PredictionService._dispatch = traced_dispatch
    tracer._undo.append(functools.partial(
        setattr, service.PredictionService, "_dispatch", dispatch))

    store = calibstore.CalibrationStore
    tracer.patch_method(store, "resolve", "calibstore.resolve")
    tracer.patch_method(store, "resolve_family", "calibstore.resolve")
    tracer.patch_method(store, "key_for_platform", "calibstore.key")
    tracer.patch_method(store, "key_for_family", "calibstore.key")
    tracer.patch_method(store, "_load_off_loop", "calibstore.disk_load")
    tracer.patch_method(store, "_spawn_refresh", "calibstore.refresh")
    tracer.patch_method(store, "fit", "calibstore.fit")
    tracer.patch_method(store, "fit_family", "calibstore.fit")
    tracer.patch_method(service.PredictionService, "submit", "service.submit",
                        info=lambda a, pre, result: _envelope_id(a[1]))


def _envelope_id(envelope: Any) -> str:
    return str(envelope.get("id", "")) if isinstance(envelope, dict) else ""


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
class SpanIndex:
    """Spans with their self times, for aggregation over a time window."""

    def __init__(self, spans: Iterable[Iterable[Any]]) -> None:
        self.spans: List[Span] = [tuple(s) for s in spans]  # type: ignore[misc]
        child_time: Dict[int, float] = defaultdict(float)
        self.children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span[3]:
                child_time[span[3]] += span[2] - span[1]
                self.children[span[3]].append(span)
        self.self_time = {
            span[4]: (span[2] - span[1]) - child_time.get(span[4], 0.0)
            for span in self.spans
        }

    def select(self, names: Iterable[str], windows: Iterable[Tuple[float, float]] = ()) -> List[Span]:
        """Spans of these names that start inside any of ``windows`` (all if none)."""
        wanted = set(names)
        chosen = [s for s in self.spans if s[0] in wanted]
        ordered = sorted(windows)
        if not ordered:
            return chosen
        starts = [a for a, _ in ordered]
        inside = []
        for span in chosen:
            k = bisect.bisect_right(starts, span[1]) - 1
            if k >= 0 and span[1] <= ordered[k][1]:
                inside.append(span)
        return inside

    def total(self, names: Iterable[str], windows: Iterable[Tuple[float, float]] = (),
              self_only: bool = True) -> Tuple[int, float]:
        """(count, summed self or full duration in s) of the selected spans."""
        chosen = self.select(names, windows)
        if self_only:
            return len(chosen), sum(self.self_time[s[4]] for s in chosen)
        return len(chosen), sum(s[2] - s[1] for s in chosen)


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when there is nothing to divide by (idle layer)."""
    return num / den if den else 0.0


Windows = List[Tuple[float, float]]


def des_metrics(index: SpanIndex, windows: Windows) -> Dict[str, float]:
    """Simulation layers per simulated run: engine, message path, cell set-up."""
    runs = index.select(["engine.run"], windows)
    busy = sum(s[2] - s[1] for s in runs)
    events = sum(s[5][0] for s in runs)
    opal_n, opal_self = index.total(["opal.run_parallel_opal"], windows)
    fam_n, fam_self = index.total(["workloads.simulate"], windows)
    return {
        "netsim.engine.run_ms_per_cell": 1e3 * ratio(busy, len(runs)),
        "netsim.engine.events_per_cell": ratio(events, len(runs)),
        "netsim.engine.events_per_s": ratio(events, busy),
        "netsim.network.messages_per_cell": ratio(sum(s[5][1] for s in runs), len(runs)),
        "netsim.network.bytes_per_cell": ratio(sum(s[5][2] for s in runs), len(runs)),
        "opal.parallel.setup_ms_per_cell": 1e3 * ratio(opal_self, opal_n),
        "workloads.simulate.setup_ms_per_cell": 1e3 * ratio(fam_self, fam_n),
    }


def cache_metrics(index: SpanIndex, phases: Dict[str, Windows]) -> Dict[str, float]:
    """Result-cache key derivation, loads, stores and hit ratio per phase."""
    out: Dict[str, float] = {}
    for phase, windows in phases.items():
        for op, name in (("key", "cache.key_for"), ("load", "cache.load"),
                         ("store", "cache.store")):
            n, busy = index.total([name], windows, self_only=False)
            out[f"experiments.cache.{op}_us.{phase}"] = 1e6 * ratio(busy, n)
        loads = index.select(["cache.load"], windows)
        out[f"experiments.cache.hit_ratio.{phase}"] = ratio(
            sum(1 for s in loads if s[5]), len(loads))
    return out


#: span names grouped into the campaign's layers, for self-time tables
STUDY_LAYERS = (
    ("netsim.engine", ("engine.run",)),
    ("opal.parallel (cell set-up)", ("opal.run_parallel_opal",)),
    ("workloads.simulate (cell set-up)", ("workloads.simulate",)),
    ("experiments.cache", ("cache.key_for", "cache.load", "cache.store")),
    ("core.calibration", ("calibration.fit",)),
    ("core.prediction + core.model", ("prediction.predict", "model.predict_series",
                                      "model.breakdown", "model.terms_breakdown",
                                      "service.evaluate")),
    ("workloads.terms", ("workloads.terms",)),
)


def study_metrics(index: SpanIndex, windows: Windows, studies: int) -> Dict[str, float]:
    """Fit, prediction and family-regressor time per study, in ms."""
    per = lambda names: 1e3 * ratio(index.total(names, windows)[1], studies)  # noqa: E731
    return {
        "core.calibration.fit_ms_per_study": per(dict(STUDY_LAYERS)["core.calibration"]),
        "core.prediction.predict_ms_per_study": per(
            dict(STUDY_LAYERS)["core.prediction + core.model"]),
        "workloads.terms_ms_per_study": per(("workloads.terms",)),
    }
