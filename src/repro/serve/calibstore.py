"""Calibration store: content-addressed caching of fitted parameters.

A ``calibrated=True`` query wants model coefficients *fitted to
measurements* (the paper's Section 3 protocol) rather than derived from
the platform's Table 1/2 key data.  Fitting means running a reduced
campaign — 28 simulated cells — which takes far too long to sit on a
request's critical path, so the store caches fitted
:class:`~repro.core.parameters.ModelPlatformParams` three ways:

* **in memory**, an LRU of the last ``max_entries`` platforms fitted;
* **on disk** (optional ``cache_dir``), reusing
  :class:`~repro.experiments.cache.ResultCache` — the same
  content-addressed keying as campaign cells, so a store survives
  restarts and two services over one directory share fits;
* **by refresh policy** when a fit is missing or stale: ``"none"``
  falls back to key-data parameters, ``"background"`` falls back *now*
  and schedules the fit off the event loop for future requests,
  ``"blocking"`` awaits the fit (off-loop, in an executor).

The content key covers the platform's key data, the design, and the
measurement protocol — change any of them and the old fit misses.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..core.calibration import calibrate, calibrate_terms
from ..core.parameters import ModelPlatformParams
from ..experiments.cache import ResultCache, platform_key_data
from ..experiments.cases import reduced_design
from ..workloads import get_family
from ..workloads.campaign import DEFAULT_JITTER, WorkloadCell, run_workload_design

#: Where a query's parameters came from (reported in every response).
SOURCE_KEY_DATA = "key-data"
SOURCE_CALIBRATED = "calibrated"

#: Accepted refresh policies for :meth:`CalibrationStore.resolve`.
REFRESH_MODES = ("none", "background", "blocking")


def params_to_dict(params: ModelPlatformParams) -> Dict[str, object]:
    """Fitted parameters as JSON-able wire/cache data."""
    return {
        "name": params.name,
        "a1": params.a1,
        "b1": params.b1,
        "a2": params.a2,
        "a3": params.a3,
        "a4": params.a4,
        "b5": params.b5,
    }


def params_from_dict(data: Dict[str, object]) -> ModelPlatformParams:
    """Rebuild fitted parameters from :func:`params_to_dict` output."""
    return ModelPlatformParams(
        name=str(data["name"]),
        a1=float(data["a1"]),  # type: ignore[arg-type]
        b1=float(data["b1"]),  # type: ignore[arg-type]
        a2=float(data["a2"]),  # type: ignore[arg-type]
        a3=float(data["a3"]),  # type: ignore[arg-type]
        a4=float(data["a4"]),  # type: ignore[arg-type]
        b5=float(data["b5"]),  # type: ignore[arg-type]
    )


class CalibrationStore:
    """LRU + disk cache of fitted platform parameters.

    ``design`` defaults to the paper's reduced fraction; ``seed``,
    ``jitter_sigma`` and ``repetitions`` fix the measurement protocol
    (and enter the content key).  ``stale_after`` ages in-memory fits
    out after that many seconds on the supplied monotonic ``clock`` —
    a stale entry still serves, but triggers a background refit when
    the refresh policy allows one.
    """

    def __init__(
        self,
        design: Optional[List[WorkloadCell]] = None,
        seed: int = 0,
        jitter_sigma: float = DEFAULT_JITTER,
        repetitions: int = 1,
        max_entries: int = 8,
        cache_dir=None,
        stale_after: Optional[float] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self.design = list(design) if design is not None else reduced_design()
        #: the design's share of every key, built once (keys are per request)
        self._design_key_data = [cell.key_data() for cell in self.design]
        self.seed = seed
        self.jitter_sigma = jitter_sigma
        self.repetitions = repetitions
        self.max_entries = max_entries
        self.stale_after = stale_after
        self.disk = ResultCache(cache_dir) if cache_dir is not None else None
        #: key -> (params, fitted_at), least-recently-used first
        self._entries: "OrderedDict[str, Tuple[ModelPlatformParams, float]]" = (
            OrderedDict()
        )
        self._inflight: Dict[str, "asyncio.Task[ModelPlatformParams]"] = {}
        self.hits = 0
        self.misses = 0
        self.fits = 0
        self.refreshes = 0

    # ------------------------------------------------------------------
    def key_for_platform(self, spec) -> str:
        """Content address of one platform's fit under this protocol."""
        return ResultCache.key_for(
            {
                "kind": "calibration",
                "platform": platform_key_data(spec),
                "design": self._design_key_data,
                "protocol": {
                    "seed": self.seed,
                    "jitter_sigma": self.jitter_sigma,
                    "repetitions": self.repetitions,
                    "sync_mode": "accounted",
                },
            }
        )

    def fit(self, spec) -> ModelPlatformParams:
        """Run the reduced campaign and fit parameters (synchronous).

        This is the expensive path — a full simulated campaign — and is
        only ever called off the event loop (via an executor) or from
        synchronous tools like the CLI.
        """
        records, _ = run_workload_design(
            self.design,
            spec,
            jitter_sigma=self.jitter_sigma,
            repetitions=self.repetitions,
            base_seed=self.seed,
        )
        result = calibrate(
            [r.observation() for r in records],
            name=f"{spec.name}-serve-fit",
        )
        self.fits += 1
        return result.params

    # ------------------------------------------------------------------
    def key_for_family(self, spec, family_name: str) -> str:
        """Content address of one (platform, family) fit."""
        family = get_family(family_name)
        design = [
            WorkloadCell(s, p).key_data() for s, p in family.calibration_design()
        ]
        return ResultCache.key_for(
            {
                "kind": "workload-calibration",
                "family": family_name,
                "platform": platform_key_data(spec),
                "design": design,
                "protocol": {
                    "seed": self.seed,
                    "jitter_sigma": self.jitter_sigma,
                    "repetitions": self.repetitions,
                    "sync_mode": "accounted",
                },
            }
        )

    def fit_family(self, spec, family_name: str) -> ModelPlatformParams:
        """Measure a family's calibration design and fit (synchronous)."""
        family = get_family(family_name)
        records, _ = run_workload_design(
            [WorkloadCell(s, p) for s, p in family.calibration_design()],
            spec,
            jitter_sigma=self.jitter_sigma,
            repetitions=self.repetitions,
            base_seed=self.seed,
        )
        observations = [
            (family.terms(r.cell.spec, r.cell.servers), r.breakdown)
            for r in records
        ]
        result = calibrate_terms(
            observations, name=f"{spec.name}-{family_name}-serve-fit"
        )
        self.fits += 1
        return result.params

    # ------------------------------------------------------------------
    def _remember(self, key: str, params: ModelPlatformParams, now: float) -> None:
        """Insert into the in-memory LRU (disk persistence is separate).

        Memory-only so coroutines never touch the filesystem on-loop:
        simlint S701 flagged the old combined version because the
        ``disk.store`` inside it put ``open()`` two frames under
        ``async def resolve``.
        """
        self._entries.pop(key, None)
        self._entries[key] = (params, now)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def _lookup(
        self, key: str, now: float
    ) -> Tuple[Optional[ModelPlatformParams], bool]:
        """Memory probe: ``(params, disk_may_help)``.

        A stale in-memory entry returns ``(None, False)`` — the disk
        holds the same aged fit, so resurrecting it would defeat
        ``stale_after``; the caller should refit instead.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            params, fitted_at = entry
            if self.stale_after is not None and now - fitted_at > self.stale_after:
                return None, False  # stale: caller decides whether to refit
            return params, False
        return None, self.disk is not None

    async def _load_off_loop(
        self, key: str, now: float
    ) -> Optional[ModelPlatformParams]:
        """Disk probe in the executor; remembers and returns on a hit."""
        assert self.disk is not None
        loop = asyncio.get_running_loop()
        data = await loop.run_in_executor(None, self.disk.load, key)
        if data is None:
            return None
        try:
            params = params_from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None  # corrupt disk entry = miss
        self._remember(key, params, now)
        return params

    async def _fit_off_loop(
        self, fit: Callable[[], ModelPlatformParams], key: str, now: float
    ) -> ModelPlatformParams:
        loop = asyncio.get_running_loop()
        params = await loop.run_in_executor(None, fit)
        self._remember(key, params, now)
        if self.disk is not None:
            await loop.run_in_executor(
                None, self.disk.store, key, params_to_dict(params)
            )
        return params

    def _spawn_refresh(
        self, fit: Callable[[], ModelPlatformParams], key: str, now: float
    ) -> None:
        """Schedule a background (re)fit, deduplicating in-flight keys."""
        if key in self._inflight:
            return
        self.refreshes += 1

        async def refresh() -> ModelPlatformParams:
            try:
                return await self._fit_off_loop(fit, key, now)
            finally:
                self._inflight.pop(key, None)

        self._inflight[key] = asyncio.get_running_loop().create_task(refresh())

    async def drain(self) -> None:
        """Await all in-flight background fits (tests and shutdown)."""
        while self._inflight:
            await asyncio.gather(*list(self._inflight.values()))

    # ------------------------------------------------------------------
    async def _resolve_keyed(
        self,
        key: str,
        fit: Callable[[], ModelPlatformParams],
        fallback: Callable[[], ModelPlatformParams],
        now: float,
        refresh: str,
    ) -> Tuple[ModelPlatformParams, str]:
        """The shared policy flow: memory -> disk -> fit-or-fallback."""
        if refresh not in REFRESH_MODES:
            raise ValueError(
                f"refresh must be one of {REFRESH_MODES}, got {refresh!r}"
            )
        params, try_disk = self._lookup(key, now)
        if params is None and try_disk:
            params = await self._load_off_loop(key, now)
        if params is not None:
            self.hits += 1
            return params, SOURCE_CALIBRATED
        self.misses += 1
        if refresh == "blocking":
            inflight = self._inflight.get(key)
            if inflight is not None:
                return await asyncio.shield(inflight), SOURCE_CALIBRATED
            return await self._fit_off_loop(fit, key, now), SOURCE_CALIBRATED
        if refresh == "background":
            self._spawn_refresh(fit, key, now)
        return fallback(), SOURCE_KEY_DATA

    async def resolve(
        self, spec, now: float, refresh: str = "background"
    ) -> Tuple[ModelPlatformParams, str]:
        """Fitted parameters for ``spec``, or the key-data fallback.

        Returns ``(params, source)`` where source is
        :data:`SOURCE_CALIBRATED` when a (fresh enough) fit was found or
        produced, and :data:`SOURCE_KEY_DATA` when the store fell back
        to Table 1/2-derived parameters under the given policy.
        """
        return await self._resolve_keyed(
            self.key_for_platform(spec),
            partial(self.fit, spec),
            partial(ModelPlatformParams.from_spec, spec),
            now,
            refresh,
        )

    async def resolve_family(
        self, spec, family_name: str, now: float, refresh: str = "background"
    ) -> Tuple[ModelPlatformParams, str]:
        """Family-fitted parameters for ``spec``, or key-data fallback.

        Same policy flow as :meth:`resolve`, but the fit measures the
        family's own calibration design and the fallback derives the
        family's coefficients from the platform's technical key data.
        """
        family = get_family(family_name)
        return await self._resolve_keyed(
            self.key_for_family(spec, family_name),
            partial(self.fit_family, spec, family_name),
            partial(family.key_data_params, spec),
            now,
            refresh,
        )
