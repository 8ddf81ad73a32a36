"""The ``opal`` workload family: the paper's program, spec-ified.

Opal predates the spec layer and keeps its dedicated DES program
(:func:`repro.opal.parallel.run_parallel_opal`) and exact analytical
form (:class:`repro.core.model.OpalPerformanceModel`); this family
wraps both behind the generic contract so campaigns, serve queries and
loadgen mixes treat Opal like any other family.

Opal cells keep the classic cell identity: :meth:`OpalFamily.cell_key_data`
is the paper design's key data (the molecule's composition, servers,
cutoff, update interval, steps) and seeds use the salt ``"cell"``, so
every jittered measurement of the paper study is unchanged.

``terms`` restates equations (3)-(10) with compute counted in flops:
multiplying the pair workloads by the per-pair kernel flop costs makes
the family coefficients ``a2 = a3 = a4 = 1 / cpu_rate`` reproduce
``ModelPlatformParams.from_spec`` products exactly, so the family path
and the classic path predict identical breakdowns from key data.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..core.parameters import ApplicationParams, FamilyWorkloadTerms
from ..errors import WorkloadError
from ..netsim import FaultSpec
from ..opal import costs
from ..opal.complexes import NAMED_COMPLEXES, get_complex
from .base import WorkloadFamily, register_family
from .program import PhaseStep, WorkloadRunResult
from .spec import FieldSpec, WorkloadSpec


@register_family
class OpalFamily(WorkloadFamily):
    """The paper's Opal application as a spec-driven workload family."""

    name = "opal"
    summary = "the paper's molecular-dynamics client/server program"
    seed_salt = "cell"
    fields = (
        FieldSpec(
            name="molecule",
            kind="str",
            default="medium",
            choices=tuple(sorted(NAMED_COMPLEXES)),
            doc="named molecular complex",
        ),
        FieldSpec(
            name="cutoff",
            kind="float",
            default=None,
            unit="Angstrom",
            minimum=1.0,
            maximum=1000.0,
            allow_none=True,
            doc="cutoff radius; null = fully accurate",
        ),
        FieldSpec(
            name="update_interval",
            kind="int",
            default=1,
            unit="steps",
            minimum=1,
            maximum=1000,
            doc="steps between pair-list updates",
        ),
        FieldSpec(
            name="steps",
            kind="int",
            default=10,
            unit="steps",
            minimum=1,
            maximum=100_000,
            doc="simulation steps",
        ),
    )

    def app(self, spec: WorkloadSpec, servers: int) -> ApplicationParams:
        """The cell as the model's classic application parameters."""
        return ApplicationParams(
            molecule=get_complex(spec.get("molecule")),
            steps=int(spec.get("steps")),
            servers=servers,
            update_interval=int(spec.get("update_interval")),
            cutoff=spec.get("cutoff"),
        )

    def cell_key_data(self, spec: WorkloadSpec, servers: int) -> dict:
        """The paper design's cell identity (molecule composition included)."""
        molecule = get_complex(spec.get("molecule"))
        return {
            "molecule": {
                "name": molecule.name,
                "protein_atoms": molecule.protein_atoms,
                "waters": molecule.waters,
                "density": molecule.density,
            },
            "servers": servers,
            "cutoff": spec.get("cutoff"),
            "update_interval": spec.get("update_interval"),
            "steps": spec.get("steps"),
        }

    def spec_label(self, spec: WorkloadSpec) -> str:
        """The paper's cell label, e.g. ``medium/cutoff=10A/update=1/10``."""
        cutoff, update = spec.get("cutoff"), spec.get("update_interval")
        cut = "none" if cutoff is None else f"{cutoff:g}A"
        upd = "full" if update == 1 else f"1/{update}"
        label = f"{spec.get('molecule')}/cutoff={cut}/update={upd}"
        steps = spec.get("steps")
        return label if steps == 10 else f"{label}/steps={steps}"

    def compile(self, spec: WorkloadSpec, servers: int) -> Tuple[PhaseStep, ...]:
        """Always raises: opal keeps its dedicated DES program."""
        raise WorkloadError(
            "opal does not lower to the generic phase program; it keeps "
            "its dedicated DES program (repro.opal.parallel) and exact "
            "closed form"
        )

    def terms(self, spec: WorkloadSpec, servers: int) -> FamilyWorkloadTerms:
        """Equations (2)-(10) re-expressed as the six generic counts."""
        app = self.app(spec, servers)
        wt = app.workload_terms()
        s, p, n, u = float(app.s), float(app.p), float(app.n), app.update_rate
        return FamilyWorkloadTerms(
            update_ops=s * u / p * wt.update_pairs * costs.UPDATE_PAIR_FLOPS,
            pair_ops=s / p * wt.energy_pairs * costs.NB_PAIR_FLOPS,
            seq_ops=s * n * costs.SEQ_ATOM_FLOPS,
            comm_bytes=s * p * app.alpha * (u + 2.0) * n,
            comm_msgs=2.0 * s * p * (u + 1.0),
            sync_ops=2.0 * s * (u + 1.0),
        )

    def simulate(
        self,
        spec: WorkloadSpec,
        servers: int,
        platform,
        seed: int = 0,
        jitter_sigma: float = 0.0,
        faults: Optional[FaultSpec] = None,
        obs=None,
        run_label: Optional[str] = None,
    ) -> WorkloadRunResult:
        """Run the real parallel Opal program for this cell."""
        from ..opal.parallel import run_parallel_opal

        result = run_parallel_opal(
            self.app(spec, servers),
            platform,
            sync_mode="accounted",
            seed=seed,
            jitter_sigma=jitter_sigma,
            obs=obs,
            run_label=run_label,
            faults=faults,
        )
        return WorkloadRunResult(
            family=self.name,
            spec=spec,
            servers=servers,
            platform_name=result.platform_name,
            wall_time=result.wall_time,
            breakdown=result.breakdown,
            barriers_executed=result.barriers_executed,
            rpc_retries=result.rpc_retries,
            client_phases=dict(result.client_phases),
        )

    def campaign_specs(
        self, base: Optional[WorkloadSpec] = None
    ) -> Tuple[WorkloadSpec, ...]:
        """The paper's factorial axes: cutoff x update interval."""
        params = dict(base.params) if base is not None else self.default_params()
        specs = []
        for cutoff in (None, 10.0):
            for update_interval in (1, 10):
                specs.append(
                    self.spec_from_params(
                        {**params, "cutoff": cutoff,
                         "update_interval": update_interval}
                    )
                )
        return tuple(specs)

    def example_params(self) -> Tuple[Dict[str, Any], ...]:
        """Representative specs for load mixes and docs."""
        return (
            {"molecule": "medium", "cutoff": 10.0},
            {"molecule": "medium", "update_interval": 10},
            {"molecule": "small"},
        )
