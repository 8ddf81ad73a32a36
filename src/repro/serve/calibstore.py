"""Calibration store: one table of fitted parameters per process.

A ``calibrated=True`` query wants model coefficients *fitted to
measurements* (the paper's Section 3 protocol) rather than derived from
the platform's Table 1/2 key data.  Fitting means running a reduced
campaign — 28 simulated cells — which takes far too long to sit on a
request's critical path, so the store keeps fitted
:class:`~repro.core.parameters.ModelPlatformParams` three ways:

* **in memory**, one entry per (platform, family) fit, never evicted;
* **on disk** (optional ``cache_dir``), reusing
  :class:`~repro.experiments.cache.ResultCache` — the same
  content-addressed keying as campaign cells, so a store survives
  restarts and two services over one directory share fits;
* **by refresh policy** when a fit is missing or stale: ``"none"``
  falls back to key-data parameters, ``"background"`` falls back *now*
  and schedules the fit off the event loop for future requests,
  ``"blocking"`` awaits the fit (off-loop, in an executor).

The content key covers the platform's key data, the design, and the
measurement protocol — change any of them and the old fit misses.  It
is computed once per (platform, family), on first use, so a request
pays a dict lookup rather than a SHA-256 over the design.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    """In-memory table + disk cache of fitted platform parameters.

    ``design`` defaults to the paper's reduced fraction; ``seed``,
    ``jitter_sigma`` and ``repetitions`` fix the measurement protocol
    (and enter the content key).  ``stale_after`` ages in-memory fits
    out after that many seconds on the supplied monotonic ``clock`` —
    a stale entry still serves, but triggers a background refit when
    the refresh policy allows one.

    The table holds one entry per fit and needs no bound: the query
    parser admits only registry platforms and registered families, so
    a serving process holds at most one v1 fit and one fit per family
    for each platform (24 entries for 6 platforms and 3 families).
    """

    def __init__(
        self,
        design: Optional[List[WorkloadCell]] = None,
        seed: int = 0,
        jitter_sigma: float = DEFAULT_JITTER,
        repetitions: int = 1,
        cache_dir=None,
        stale_after: Optional[float] = None,
    ) -> None:
        self.design = list(design) if design is not None else reduced_design()
        self.seed = seed
        self.jitter_sigma = jitter_sigma
        self.repetitions = repetitions
        self.stale_after = stale_after
        self.disk = ResultCache(cache_dir) if cache_dir is not None else None
        #: content key -> (params, fitted_at)
        self._entries: Dict[str, Tuple[ModelPlatformParams, float]] = {}
        #: (platform spec, family name or None for the v1 fit) -> content key
        self._keys: Dict[Tuple[Any, Optional[str]], str] = {}
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
                "design": [cell.key_data() for cell in self.design],
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
        self._entries[key] = (params, now)
        return params

    async def _fit_off_loop(
        self, fit: Callable[[], ModelPlatformParams], key: str, now: float
    ) -> ModelPlatformParams:
        loop = asyncio.get_running_loop()
        params = await loop.run_in_executor(None, fit)
        self._entries[key] = (params, now)
        if self.disk is not None:
            await loop.run_in_executor(
                None, self.disk.store, key, params_to_dict(params)
            )
        return params

    def _start_fit(
        self, fit: Callable[[], ModelPlatformParams], key: str, now: float
    ) -> "asyncio.Task[ModelPlatformParams]":
        """Run one fit as a task that stays in ``_inflight`` until it ends."""

        async def run() -> ModelPlatformParams:
            try:
                return await self._fit_off_loop(fit, key, now)
            finally:
                self._inflight.pop(key, None)

        task = asyncio.get_running_loop().create_task(run())
        self._inflight[key] = task
        return task

    def _spawn_refresh(
        self, fit: Callable[[], ModelPlatformParams], key: str, now: float
    ) -> None:
        """Schedule a background (re)fit, deduplicating in-flight keys."""
        if key in self._inflight:
            return
        self.refreshes += 1
        self._start_fit(fit, key, now)

    async def drain(self) -> None:
        """Await all in-flight fits (tests and shutdown)."""
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
        params, fitted_at = self._entries.get(key, (None, now))
        if params is None and self.disk is not None:
            params = await self._load_off_loop(key, now)
        elif self.stale_after is not None and now - fitted_at > self.stale_after:
            params = None  # stale: the disk holds the same aged fit, so refit
        if params is not None:
            self.hits += 1
            return params, SOURCE_CALIBRATED
        self.misses += 1
        if refresh == "blocking":
            # one fit per key: concurrent misses await the fit in flight
            inflight = self._inflight.get(key)
            if inflight is None:
                inflight = self._start_fit(fit, key, now)
            return await asyncio.shield(inflight), SOURCE_CALIBRATED
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
        key = self._keys.get((spec, None))
        if key is None:
            key = self._keys[spec, None] = self.key_for_platform(spec)
        return await self._resolve_keyed(
            key,
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
        key = self._keys.get((spec, family_name))
        if key is None:
            key = self._keys[spec, family_name] = self.key_for_family(spec, family_name)
        family = get_family(family_name)
        return await self._resolve_keyed(
            key,
            partial(self.fit_family, spec, family_name),
            partial(family.key_data_params, spec),
            now,
            refresh,
        )
