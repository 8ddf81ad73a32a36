"""Calibration store: content keys, the fit table, disk caching, refresh policies."""

import asyncio
import dataclasses
from unittest import mock

import pytest

from repro.core.parameters import ModelPlatformParams
from repro.experiments.cases import opal_cell
from repro.opal.complexes import get_complex
from repro.platforms import CRAY_J90, CRAY_T3E
from repro.serve.calibstore import (
    SOURCE_CALIBRATED,
    SOURCE_KEY_DATA,
    CalibrationStore,
    params_from_dict,
    params_to_dict,
)


def tiny_design():
    """A minimal non-degenerate design that calibrates in milliseconds."""
    return [
        opal_cell(get_complex("small"), p, cutoff=c, update_interval=u, steps=2)
        for p in (1, 2, 3)
        for c in (None, 10.0)
        for u in (1, 10)
    ]


def run(coro):
    return asyncio.run(coro)


class TestKeys:
    def test_key_covers_platform_identity(self):
        store = CalibrationStore(design=tiny_design())
        assert store.key_for_platform(CRAY_J90) != store.key_for_platform(CRAY_T3E)

    def test_key_covers_protocol(self):
        a = CalibrationStore(design=tiny_design(), seed=0)
        b = CalibrationStore(design=tiny_design(), seed=1)
        assert a.key_for_platform(CRAY_J90) != b.key_for_platform(CRAY_J90)

    def test_key_is_stable(self):
        a = CalibrationStore(design=tiny_design())
        b = CalibrationStore(design=tiny_design())
        assert a.key_for_platform(CRAY_J90) == b.key_for_platform(CRAY_J90)

    def test_default_protocol_keys_are_pinned(self):
        # fits already on disk keep hitting only while these stay put
        store = CalibrationStore()
        assert store.key_for_platform(CRAY_J90) == (
            "8e05f0ca2a7dbed9482ff2c6c05efcc026f856a0694ce9fb38c8379e1215c5fd"
        )
        assert store.key_for_family(CRAY_J90, "collective") == (
            "5a75fa4fd703f4f21ee023e22206980c3010f712fe01decd4cddf1935a767ea5"
        )


class TestParamsRoundTrip:
    def test_dict_round_trip(self):
        params = ModelPlatformParams.from_spec(CRAY_J90)
        assert params_from_dict(params_to_dict(params)) == params


class TestResolve:
    def test_blocking_resolve_fits_once_then_hits(self):
        async def scenario():
            store = CalibrationStore(design=tiny_design())
            first = await store.resolve(CRAY_J90, now=0.0, refresh="blocking")
            second = await store.resolve(CRAY_J90, now=1.0, refresh="blocking")
            return store, first, second

        store, (p1, s1), (p2, s2) = run(scenario())
        assert s1 == SOURCE_CALIBRATED and s2 == SOURCE_CALIBRATED
        assert p1 == p2
        assert store.fits == 1
        assert (store.hits, store.misses) == (1, 1)

    def test_refresh_none_falls_back_to_key_data(self):
        async def scenario():
            store = CalibrationStore(design=tiny_design())
            return await store.resolve(CRAY_J90, now=0.0, refresh="none"), store

        (params, source), store = run(scenario())
        assert source == SOURCE_KEY_DATA
        assert params == ModelPlatformParams.from_spec(CRAY_J90)
        assert store.fits == 0

    def test_background_refresh_serves_fallback_then_calibrated(self):
        async def scenario():
            store = CalibrationStore(design=tiny_design())
            first = await store.resolve(CRAY_J90, now=0.0, refresh="background")
            await store.drain()  # let the background fit land
            second = await store.resolve(CRAY_J90, now=1.0, refresh="background")
            return store, first[1], second[1]

        store, first_source, second_source = run(scenario())
        assert first_source == SOURCE_KEY_DATA
        assert second_source == SOURCE_CALIBRATED
        assert store.refreshes == 1 and store.fits == 1

    def test_background_refresh_deduplicates_inflight_fits(self):
        async def scenario():
            store = CalibrationStore(design=tiny_design())
            await asyncio.gather(
                store.resolve(CRAY_J90, now=0.0, refresh="background"),
                store.resolve(CRAY_J90, now=0.0, refresh="background"),
                store.resolve(CRAY_J90, now=0.0, refresh="background"),
            )
            await store.drain()
            return store

        store = run(scenario())
        assert store.refreshes == 1
        assert store.fits == 1

    @pytest.mark.parametrize("family", [None, "collective"])
    def test_concurrent_blocking_misses_share_one_fit(self, family):
        # later blocking misses on a key await the fit already running
        async def scenario():
            store = CalibrationStore(design=tiny_design())
            if family is None:
                def resolve():
                    return store.resolve(CRAY_J90, now=0.0, refresh="blocking")
            else:
                def resolve():
                    return store.resolve_family(
                        CRAY_J90, family, now=0.0, refresh="blocking"
                    )
            answers = await asyncio.gather(resolve(), resolve(), resolve())
            return store, answers

        store, answers = run(scenario())
        assert (store.fits, store.misses, store.hits) == (1, 3, 0)
        assert store.refreshes == 0  # only background refits count there
        assert [source for _, source in answers] == [SOURCE_CALIBRATED] * 3
        assert answers[0][0] is answers[1][0] is answers[2][0]

    def test_unknown_refresh_mode_is_rejected(self):
        async def scenario():
            store = CalibrationStore(design=tiny_design())
            with pytest.raises(ValueError):
                await store.resolve(CRAY_J90, now=0.0, refresh="sometimes")

        run(scenario())


class TestDiskPersistence:
    def test_fits_survive_across_store_instances(self, tmp_path):
        async def scenario():
            first = CalibrationStore(design=tiny_design(), cache_dir=tmp_path)
            params, _ = await first.resolve(CRAY_J90, now=0.0, refresh="blocking")
            second = CalibrationStore(design=tiny_design(), cache_dir=tmp_path)
            reloaded, source = await second.resolve(
                CRAY_J90, now=0.0, refresh="blocking"
            )
            return first, second, params, reloaded, source

        first, second, params, reloaded, source = run(scenario())
        assert source == SOURCE_CALIBRATED
        assert reloaded == params
        assert first.fits == 1 and second.fits == 0  # disk hit, no refit

    def test_corrupt_disk_entry_is_refitted(self, tmp_path):
        async def scenario():
            store = CalibrationStore(design=tiny_design(), cache_dir=tmp_path)
            await store.resolve(CRAY_J90, now=0.0, refresh="blocking")
            key = store.key_for_platform(CRAY_J90)
            (tmp_path / f"{key}.json").write_text('{"name": "broken"}')
            fresh = CalibrationStore(design=tiny_design(), cache_dir=tmp_path)
            _, source = await fresh.resolve(CRAY_J90, now=0.0, refresh="blocking")
            return fresh, source

        fresh, source = run(scenario())
        assert source == SOURCE_CALIBRATED
        assert fresh.fits == 1  # the torn entry forced a real fit


class TestTable:
    def test_every_fit_stays_in_memory_across_a_rotation(self):
        platforms = [
            dataclasses.replace(CRAY_J90, name=f"j90-{i}") for i in range(9)
        ]

        async def scenario():
            store = CalibrationStore(design=tiny_design())
            for _ in range(2):
                for spec in platforms:
                    await store.resolve(spec, now=0.0, refresh="blocking")
            return store

        store = run(scenario())
        assert store.fits == 9  # one per platform, none evicted
        assert (store.hits, store.misses) == (9, 9)

    def test_key_is_computed_once_per_platform_and_family(self, monkeypatch):
        store = CalibrationStore(design=tiny_design())
        for name in ("key_for_platform", "key_for_family"):
            monkeypatch.setattr(store, name, mock.Mock(wraps=getattr(store, name)))

        async def scenario():
            for t in range(3):
                await store.resolve(CRAY_J90, now=float(t), refresh="none")
                await store.resolve_family(
                    CRAY_J90, "collective", now=float(t), refresh="none"
                )

        run(scenario())
        assert store.key_for_platform.call_count == 1
        assert store.key_for_family.call_count == 1

    def test_v1_and_opal_family_fits_are_separate_entries(self):
        async def scenario():
            store = CalibrationStore(design=tiny_design())
            v1 = await store.resolve(CRAY_J90, now=0.0, refresh="blocking")
            family = await store.resolve_family(
                CRAY_J90, "opal", now=0.0, refresh="blocking"
            )
            return store, v1, family

        store, (v1_params, v1_source), (family_params, family_source) = run(
            scenario()
        )
        assert v1_source == family_source == SOURCE_CALIBRATED
        assert store.fits == 2 and (store.hits, store.misses) == (0, 2)
        assert v1_params.name == f"{CRAY_J90.name}-serve-fit"
        assert family_params.name == f"{CRAY_J90.name}-opal-serve-fit"


class TestLruAndStaleness:
    def test_stale_entry_triggers_background_refit(self):
        async def scenario():
            store = CalibrationStore(design=tiny_design(), stale_after=10.0)
            await store.resolve(CRAY_J90, now=0.0, refresh="blocking")
            # within freshness: served calibrated, no new fit
            _, fresh_source = await store.resolve(
                CRAY_J90, now=5.0, refresh="background"
            )
            # past freshness: falls back and refits in the background
            _, stale_source = await store.resolve(
                CRAY_J90, now=20.0, refresh="background"
            )
            await store.drain()
            return store, fresh_source, stale_source

        store, fresh_source, stale_source = run(scenario())
        assert fresh_source == SOURCE_CALIBRATED
        assert stale_source == SOURCE_KEY_DATA
        assert store.fits == 2
