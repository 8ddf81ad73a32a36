#!/usr/bin/env python
"""How certain is "predict with good certainty"?

The paper asserts its model predicts alternative platforms "with good
certainty" without quantifying it.  This study does: a bootstrap over
the measured factorial design yields confidence intervals for every
fitted platform parameter and prediction bands for the headline curves,
and a replicated ANOVA (Jain ch. 18) separates real factor effects from
experimental error.
"""

from repro.core.parameters import ApplicationParams, ModelPlatformParams
from repro.core.uncertainty import bootstrap_calibration
from repro.experiments import (
    Factor,
    full_factorial,
    reduced_design,
    replicated_anova,
)
from repro.opal.complexes import MEDIUM
from repro.opal.parallel import run_parallel_opal
from repro.platforms import CRAY_J90
from repro.workloads.campaign import run_workload_design


def main() -> None:
    print("-- bootstrap over the measured design --------------------------")
    records, _ = run_workload_design(
        reduced_design(), CRAY_J90, jitter_sigma=0.006, base_seed=5
    )
    observations = [r.observation() for r in records]
    boot = bootstrap_calibration(observations, n_bootstrap=120, seed=7)
    truth = ModelPlatformParams.from_spec(CRAY_J90)
    print(f"{'param':>6s} {'estimate':>12s} {'95% interval':>28s} {'truth':>12s}")
    for name, iv in boot.intervals.items():
        print(
            f"{name:>6s} {iv.estimate:12.4g} "
            f"[{iv.lower:12.4g}, {iv.upper:12.4g}] {getattr(truth, name):12.4g}"
        )

    print("\n-- prediction bands ---------------------------------------------")
    for p in (2, 5, 7):
        app = ApplicationParams(molecule=MEDIUM, steps=10, servers=p, cutoff=10.0)
        point, lower, upper = boot.predict_band(app)
        width = 100 * (upper - lower) / point
        print(f"  p={p}: t = {point:6.3f} s  [{lower:6.3f}, {upper:6.3f}]"
              f"  (band width {width:.1f}%)")

    print("\n-- replicated ANOVA: factor effects vs experimental error ------")
    factors = [Factor("servers", (2, 6)), Factor("cutoff", (10.0, None))]
    rows = full_factorial(factors)
    responses = []
    for row in rows:
        cell = []
        for rep in range(3):
            app = ApplicationParams(
                molecule=MEDIUM, steps=3, servers=row["servers"],
                cutoff=row["cutoff"],
            )
            cell.append(
                run_parallel_opal(
                    app, CRAY_J90, seed=rep * 31, jitter_sigma=0.006
                ).wall_time
            )
        responses.append(cell)
    result = replicated_anova(factors, rows, responses)
    for e in result.effects:
        flag = "significant" if e.significant else "noise"
        print(f"  {e.name:<18s} effect {e.effect:+8.3f}s  "
              f"explains {100*e.variation_explained:5.1f}%  [{flag}]")
    print(f"  experimental error: {100*result.error_variation:.2f}% of variation")


if __name__ == "__main__":
    main()
