#!/usr/bin/env python
"""The full Section 2.3/2.5 measurement and calibration campaign.

1. Checks measurement reproducibility (the preliminary repetition test).
2. Runs the published 7 * 2^(3-1) reduced factorial design on the
   simulated Cray J90 with the instrumented middleware.
3. Fits all six platform parameters by least squares.
4. Reports fit quality per component and the Figure 4 residuals.
5. Runs a sign-table factor analysis over a 2^4 corner design (which
   factor moves execution time the most?).
6. Re-runs the design over a 4-worker process pool with an on-disk
   result cache — identical records, and a warm second pass performs
   zero new simulations.
"""

import tempfile
import time

from repro.analysis import residuals_table
from repro.core.calibration import calibrate, residual_table
from repro.core.model import OpalPerformanceModel
from repro.core.parameters import ApplicationParams
from repro.experiments import (
    Factor,
    ResultCache,
    full_factorial,
    opal_cell,
    reduced_design,
    sign_table_effects,
)
from repro.opal.complexes import LARGE, MEDIUM
from repro.platforms import CRAY_J90
from repro.workloads.campaign import measure_probe, run_workload_design


def main() -> None:
    print("-- reproducibility probe (Section 2.3) ----------------------")
    probe, _ = measure_probe(
        CRAY_J90,
        opal_cell(MEDIUM, 4, cutoff=10.0, update_interval=1),
        repetitions=8,
        jitter_sigma=0.004,
    )
    print(f"8 repetitions: mean {probe.mean:.3f}s, CV {100*probe.coefficient_of_variation:.2f}%"
          f" -> reproducible: {probe.reproducible()}")

    print("\n-- running the reduced 7*2^(3-1) design ----------------------")
    design = reduced_design()
    records, _ = run_workload_design(design, CRAY_J90, jitter_sigma=0.004)
    observations = [r.observation() for r in records]
    print(f"{len(observations)} experiments executed on the simulated J90")

    result = calibrate(observations, name="j90-calibrated")
    p = result.params
    print("\nfitted platform parameters:")
    print(f"  a1 = {p.a1/1e6:7.3f} MByte/s (paper's Table 2 observed: 3)")
    print(f"  b1 = {p.b1*1e3:7.3f} ms")
    print(f"  a2 = {p.a2:.3e} s/pair-check")
    print(f"  a3 = {p.a3:.3e} s/pair-energy  "
          f"(-> {p.compute_rate_mflops():.1f} MFlop/s algorithmic)")
    print(f"  a4 = {p.a4:.3e} s/atom")
    print(f"  b5 = {p.b5*1e3:7.3f} ms/barrier")
    print("component R^2: "
          + "  ".join(f"{k}={v:.4f}" for k, v in sorted(result.r2.items())))
    print(f"mean relative error: {100*result.mean_relative_error():.2f}% "
          "(the paper calls its fit 'excellent')")

    print("\n-- Figure 4 residuals ----------------------------------------")
    print(residuals_table(residual_table(result, observations)[:14]))
    print("  ... (first 14 of 28 cases)")

    print("\n-- factor analysis (Jain ch. 16 sign table) -------------------")
    factors = [
        Factor("servers", (1, 7)),
        Factor("molecule", (MEDIUM, LARGE)),
        Factor("cutoff", (10.0, None)),
        Factor("update_interval", (10, 1)),
    ]
    rows = full_factorial(factors)
    model = OpalPerformanceModel(p)
    y = [
        model.predict_total(
            ApplicationParams(
                molecule=r["molecule"], steps=10, servers=r["servers"],
                cutoff=r["cutoff"], update_interval=r["update_interval"],
            )
        )
        for r in rows
    ]
    for e in sign_table_effects(factors, rows, y)[:6]:
        print(f"  {e.name:<28s} effect {e.effect:+8.2f}s  "
              f"explains {100*e.variation_explained:5.1f}% of variation")

    print("\n-- parallel execution with result caching ---------------------")
    with tempfile.TemporaryDirectory() as cache_dir:
        t0 = time.perf_counter()
        par_records, simulated = run_workload_design(
            design,
            CRAY_J90,
            jitter_sigma=0.004,
            workers=4,
            cache=ResultCache(cache_dir),
            progress=lambda done, total, rec: (
                print(f"  {done}/{total} cells done") if done % 14 == 0 else None
            ),
        )
        cold = time.perf_counter() - t0
        same = all(
            a.breakdown == b[1]
            for a, b in zip(par_records, observations)
        )
        print(f"4 workers, cold cache: {cold*1e3:.0f} ms "
              f"({simulated} simulations); identical to serial: {same}")

        warm_cache = ResultCache(cache_dir)
        t0 = time.perf_counter()
        _, simulated = run_workload_design(
            design, CRAY_J90, jitter_sigma=0.004, workers=4, cache=warm_cache
        )
        print(f"4 workers, warm cache: {(time.perf_counter()-t0)*1e3:.0f} ms "
              f"({simulated} simulations, cache {warm_cache.stats})")


if __name__ == "__main__":
    main()
