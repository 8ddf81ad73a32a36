"""The workload-family registry and the family contract.

A :class:`WorkloadFamily` owns a schema (tuple of
:class:`~repro.workloads.spec.FieldSpec`), a compiler from validated
specs to :class:`~repro.workloads.program.PhaseStep` programs, and —
derived from that compiler unless overridden — the closed-form
:class:`~repro.core.parameters.FamilyWorkloadTerms` the model
evaluates, one cell at a time (``terms``) or over a whole server vector
(``lower``).  A :class:`ClosedFormFamily` computes the terms of every
server count in one pass from integer closed forms, and keeps the
program sum as its reference and its fallback.  Families register
themselves at import time
(:func:`register_family`); everything downstream — campaigns, serve
queries, loadgen mixes — resolves them by name via
:func:`get_family`, which raises an actionable
:class:`~repro.errors.WorkloadError` for unknown names.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Type

from ..core.parameters import (
    EXACT_INT_LIMIT,
    ApplicationParams,
    FamilyTermColumns,
    FamilyWorkloadTerms,
    ModelPlatformParams,
    server_counts,
)
from ..errors import WorkloadError
from ..netsim import FaultSpec
from .program import PhaseStep, WorkloadRunResult, run_workload_program
from .spec import FieldSpec, WorkloadSpec, spec_digest


class WorkloadFamily(abc.ABC):
    """One declarative workload family (collective, hpl, opal, ...)."""

    #: registry name, the serve ``family`` field value
    name: str = ""
    #: one-line description for docs and error messages
    summary: str = ""
    #: the schema: every parameter a spec of this family may set
    fields: Tuple[FieldSpec, ...] = ()
    #: salt of the per-cell seeds (see ``repro.workloads.campaign``)
    seed_salt: str = "workload"

    # ---- schema ------------------------------------------------------
    def field_names(self) -> Tuple[str, ...]:
        """The schema field names in declaration order."""
        return tuple(f.name for f in self.fields)

    def default_params(self) -> Dict[str, Any]:
        """Every schema field mapped to its default value."""
        return {f.name: f.default for f in self.fields}

    def validate_params(self, raw: Mapping[str, Any]) -> Dict[str, Any]:
        """Defaults + overrides -> canonical params (schema field order).

        Raises :class:`WorkloadError` with the family, field and value
        for every rejection; unknown fields list the accepted ones.
        """
        known = self.field_names()
        unknown = sorted(set(raw) - set(known) - {"family"})
        if unknown:
            raise WorkloadError(
                f"{self.name}: unknown spec field(s) "
                f"{', '.join(repr(u) for u in unknown)}; "
                f"accepted fields are {', '.join(known)}"
            )
        if "family" in raw and raw["family"] != self.name:
            raise WorkloadError(
                f"{self.name}: spec names a different family "
                f"{raw['family']!r}"
            )
        params = {}
        for fld in self.fields:
            value = raw.get(fld.name, fld.default)
            params[fld.name] = fld.validate(self.name, value)
        self.check(params)
        return params

    def check(self, params: Dict[str, Any]) -> None:
        """Cross-field validation hook (raise WorkloadError)."""

    def spec(self, **overrides: Any) -> WorkloadSpec:
        """Build a validated spec from defaults plus ``overrides``."""
        return self.spec_from_params(overrides)

    def spec_from_params(self, raw: Mapping[str, Any]) -> WorkloadSpec:
        """Validate a raw mapping into this family's frozen spec."""
        params = self.validate_params(raw)
        return WorkloadSpec(
            family=self.name,
            params=tuple((f.name, params[f.name]) for f in self.fields),
        )

    def spec_label(self, spec: WorkloadSpec) -> str:
        """A compact human label for campaign tables and telemetry."""
        parts = []
        defaults = self.default_params()
        for key, value in spec.params:
            if value != defaults.get(key):
                parts.append(f"{key}={value}")
        return ",".join(parts) if parts else "default"

    # ---- cells -------------------------------------------------------
    def cell_key_data(self, spec: WorkloadSpec, servers: int) -> dict:
        """Content that determines one (spec, servers) cell's results.

        Hashed into the cell's seeds and its cache address; includes the
        spec digest so a spec schema bump invalidates cached cells.
        """
        return {
            "family": spec.family,
            "spec": spec.params_dict(),
            "spec_digest": spec_digest(spec),
            "servers": servers,
        }

    def app(
        self, spec: WorkloadSpec, servers: int
    ) -> Optional[ApplicationParams]:
        """The cell as the paper model's application parameters.

        None unless equations (2)-(10) describe this family (Opal).
        """
        return None

    # ---- lowering ----------------------------------------------------
    @abc.abstractmethod
    def compile(self, spec: WorkloadSpec, servers: int) -> Tuple[PhaseStep, ...]:
        """Lower one (spec, servers) cell into the phase-step program."""

    def terms(self, spec: WorkloadSpec, servers: int) -> FamilyWorkloadTerms:
        """Closed-form regressors of the cell, derived from the program.

        The default sums the compiled steps, so model and simulator
        agree by construction on the work a cell contains.  Families
        with an exact analytical form (Opal) override this.
        """
        steps = self.compile(spec, servers)
        p = float(servers)
        return FamilyWorkloadTerms(
            update_ops=0.0,
            pair_ops=sum(s.server_flops for s in steps),
            seq_ops=sum(s.client_flops for s in steps),
            comm_bytes=sum(p * (s.send_bytes + s.reply_bytes) for s in steps),
            comm_msgs=sum(2.0 * p for _ in steps),
            sync_ops=2.0 * len(steps),
        )

    def lower(
        self, spec: WorkloadSpec, servers: Iterable[int]
    ) -> FamilyTermColumns:
        """The cell terms at every server count, as float64 columns.

        Column ``i`` equals ``terms(spec, servers[i])`` bit for bit; the
        default stacks exactly those.  Raises
        :class:`~repro.errors.ModelError` for a count below 1.
        """
        counts = server_counts(servers)
        return FamilyTermColumns.from_rows(
            counts, [self.terms(spec, p) for p in counts]
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
        """Measure one cell on the DES via the generic program.

        ``obs``/``run_label`` capture the run into an
        :class:`~repro.obs.ObsSession`; the generic program records no
        trace, so only families with their own DES program use them.
        """
        return run_workload_program(
            self.name,
            spec,
            self.compile(spec, servers),
            servers,
            platform,
            seed=seed,
            jitter_sigma=jitter_sigma,
            faults=faults,
        )

    # ---- model plumbing ----------------------------------------------
    def key_data_params(self, platform_spec) -> ModelPlatformParams:
        """Uncalibrated coefficients from a platform's technical key data.

        Family terms count compute work in flops, so every compute
        coefficient is simply the reciprocal compute rate; communication
        and synchronization figures come straight from the spec.
        """
        rate = platform_spec.cpu_rate
        return ModelPlatformParams(
            name=platform_spec.name,
            a1=platform_spec.net_bw,
            b1=platform_spec.net_latency,
            a2=1.0 / rate,
            a3=1.0 / rate,
            a4=1.0 / rate,
            b5=platform_spec.sync_cost,
        )

    # ---- campaign / serving surfaces ---------------------------------
    @abc.abstractmethod
    def campaign_specs(
        self, base: Optional[WorkloadSpec] = None
    ) -> Tuple[WorkloadSpec, ...]:
        """The factorial spec axis of this family's campaign design."""

    def calibration_design(self) -> Tuple[Tuple[WorkloadSpec, int], ...]:
        """(spec, servers) cells the serve calibration fit measures."""
        return tuple(
            (spec, servers)
            for spec in self.campaign_specs(None)
            for servers in (2, 4)
        )

    def example_params(self) -> Tuple[Dict[str, Any], ...]:
        """Parameter draws the load generator samples from."""
        return (self.default_params(),)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<WorkloadFamily {self.name}>"


class ClosedFormFamily(WorkloadFamily):
    """A family whose program sums have a closed form in the server count.

    :meth:`lower` evaluates the closed form over the whole server vector
    at once, and :meth:`terms` reads that same lowering for one count.
    The closed form must reproduce the program sum of
    :meth:`WorkloadFamily.terms` bit for bit, and an integer total is
    exact in float64 only up to :data:`EXACT_INT_LIMIT`; so whenever one
    of :meth:`integer_totals` exceeds it, that server count falls back to
    the program sum.  The totals never fall as the server count grows,
    so checking the largest count clears the whole vector.
    """

    @abc.abstractmethod
    def integer_totals(self, spec: WorkloadSpec, servers: Any) -> Tuple[Any, ...]:
        """The integer-valued totals of the closed form at ``servers``.

        ``servers`` is a Python int (the exactness check, in unbounded
        integers) or an int64 array (inside :meth:`closed_form`).
        """

    @abc.abstractmethod
    def closed_form(
        self, spec: WorkloadSpec, servers: Tuple[int, ...]
    ) -> FamilyTermColumns:
        """The terms over ``servers``, every integer total within bounds."""

    def exact(self, spec: WorkloadSpec, servers: int) -> bool:
        """Whether the closed form at ``servers`` equals the program sum."""
        return max(self.integer_totals(spec, servers)) <= EXACT_INT_LIMIT

    def lower(
        self, spec: WorkloadSpec, servers: Iterable[int]
    ) -> FamilyTermColumns:
        """The closed form over the server vector (see the class doc)."""
        counts = server_counts(servers)
        if not counts or self.exact(spec, max(counts)):
            return self.closed_form(spec, counts)
        return FamilyTermColumns.from_rows(counts, [
            self.closed_form(spec, (p,)).terms_at(0)
            if self.exact(spec, p)
            else WorkloadFamily.terms(self, spec, p)
            for p in counts
        ])

    def terms(self, spec: WorkloadSpec, servers: int) -> FamilyWorkloadTerms:
        """One cell's terms: the lowering of the vector ``(servers,)``."""
        return self.lower(spec, (servers,)).terms_at(0)


_FAMILIES: Dict[str, WorkloadFamily] = {}


def register_family(cls: Type[WorkloadFamily]) -> Type[WorkloadFamily]:
    """Class decorator: instantiate and register one family."""
    instance = cls()
    if not instance.name:
        raise WorkloadError(f"{cls.__name__} has no family name")
    _FAMILIES[instance.name] = instance
    return cls


def family_names() -> List[str]:
    """Registered family names, sorted."""
    return sorted(_FAMILIES)


def get_family(name: str) -> WorkloadFamily:
    """Resolve one family by name; unknown names list what exists."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload family {name!r}; registered families: "
            f"{', '.join(family_names())}"
        ) from None


def parse_spec(
    data: Mapping[str, Any], family: Optional[str] = None
) -> WorkloadSpec:
    """Bind one raw spec mapping to its family and validate it.

    The family comes from ``family=`` or the mapping's ``"family"``
    key; both present must agree.
    """
    named = data.get("family")
    if family is None:
        family = named
    if family is None:
        raise WorkloadError(
            "spec names no workload family; add a 'family' key "
            f"(one of {', '.join(family_names())})"
        )
    if named is not None and named != family:
        raise WorkloadError(
            f"spec file names family {named!r} but {family!r} was requested"
        )
    return get_family(str(family)).spec_from_params(data)
