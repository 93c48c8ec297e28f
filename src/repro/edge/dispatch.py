"""Capability-aware model dispatch.

The core of the Action service: "the framework trains models on the
server with diverse complexities and dispatches the appropriate model
according to the edge device capabilities".  Given a device profile
and constraints, pick the most accurate variant that fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import EdgeError, TVDPError
from repro.edge.devices import DeviceProfile
from repro.edge.models import ModelVariant
from repro.resilience import Clock, Retry, current_clock, inject

_DECISIONS = obs.metrics().counter("edge.dispatch.decisions")
_INFEASIBLE = obs.metrics().counter("edge.dispatch.infeasible")
_OVER_BUDGET = obs.metrics().counter("edge.dispatch.over_budget")

#: Fault-injection site for per-device dispatch (see ``repro.resilience``).
DISPATCH_SITE = "edge.dispatch"


@dataclass(frozen=True, slots=True)
class DispatchDecision:
    """Outcome of matching a model to a device."""

    device: DeviceProfile
    model: ModelVariant
    input_px: int
    predicted_latency_ms: float
    download_time_s: float


def predicted_latency_ms(
    device: DeviceProfile, model: ModelVariant, input_px: int | None = None
) -> float:
    """Latency estimate for one inference on ``device``."""
    px = input_px or model.base_input_px
    return device.inference_time_ms(model.flops_at(px))


def dispatch_model(
    device: DeviceProfile,
    candidates: list[ModelVariant],
    latency_budget_ms: float = float("inf"),
    memory_fraction: float = 0.5,
    input_px: int | None = None,
    min_inferences_on_battery: float = 0.0,
) -> DispatchDecision:
    """Pick the most accurate candidate that satisfies the device's
    memory limit, the latency budget, and — for battery devices — an
    inferences-per-charge floor.

    Ties on accuracy break toward lower latency.  When nothing fits the
    budget, the *fastest feasible-by-memory* model is returned instead —
    a degraded answer beats no model at all on a crowd device — and when
    memory or energy rules everything out, :class:`EdgeError` is raised.
    """
    if not candidates:
        raise EdgeError("no candidate models to dispatch")
    if latency_budget_ms <= 0:
        raise EdgeError(f"latency budget must be positive, got {latency_budget_ms}")
    if not (0.0 < memory_fraction <= 1.0):
        raise EdgeError(f"memory_fraction must be in (0, 1], got {memory_fraction}")
    if min_inferences_on_battery < 0:
        raise EdgeError(
            f"min_inferences_on_battery must be >= 0, got {min_inferences_on_battery}"
        )

    with obs.span(
        "edge.dispatch", device=device.name, candidates=len(candidates)
    ) as sp:
        memory_ok = [
            m for m in candidates if m.size_mb <= device.memory_mb * memory_fraction
        ]
        if not memory_ok:
            _INFEASIBLE.inc()
            raise EdgeError(
                f"no model fits in {device.memory_mb * memory_fraction:.0f} MB "
                f"on {device.name}"
            )
        if min_inferences_on_battery > 0:
            energy_ok = [
                m
                for m in memory_ok
                if device.inferences_per_charge(m.flops_at(input_px or m.base_input_px))
                >= min_inferences_on_battery
            ]
            if not energy_ok:
                _INFEASIBLE.inc()
                raise EdgeError(
                    f"no model sustains {min_inferences_on_battery:.0f} inferences "
                    f"per charge on {device.name}"
                )
            memory_ok = energy_ok

        def latency(model: ModelVariant) -> float:
            return predicted_latency_ms(device, model, input_px)

        within_budget = [m for m in memory_ok if latency(m) <= latency_budget_ms]
        if within_budget:
            chosen = max(within_budget, key=lambda m: (m.expected_accuracy, -latency(m)))
        else:
            _OVER_BUDGET.inc()
            chosen = min(memory_ok, key=latency)
        px = input_px or chosen.base_input_px
        sp.set("model", chosen.name)
        _DECISIONS.inc()
        return DispatchDecision(
            device=device,
            model=chosen,
            input_px=px,
            predicted_latency_ms=latency(chosen),
            download_time_s=device.transmission_time_s(int(chosen.size_mb * 1e6)),
        )


def dispatch_fleet(
    devices: list[DeviceProfile],
    candidates: list[ModelVariant],
    latency_budget_ms: float = float("inf"),
) -> dict[str, DispatchDecision]:
    """Dispatch every device in a heterogeneous fleet; device name ->
    decision.  All-or-nothing: any infeasible device raises.  Campaign
    code that must survive flaky devices uses
    :func:`dispatch_fleet_resilient` instead."""
    with obs.span("edge.dispatch_fleet", devices=len(devices)):
        return {
            device.name: dispatch_model(device, candidates, latency_budget_ms)
            for device in devices
        }


@dataclass(frozen=True)
class FleetDispatchReport:
    """Per-device dispatch outcomes for a fleet round."""

    decisions: dict[str, DispatchDecision] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)  # name -> error

    @property
    def dispatch_ratio(self) -> float:
        total = len(self.decisions) + len(self.failed)
        if total == 0:
            return 1.0
        return len(self.decisions) / total


def dispatch_fleet_resilient(
    devices: list[DeviceProfile],
    candidates: list[ModelVariant],
    latency_budget_ms: float = float("inf"),
    clock: Clock | None = None,
    seed: int = 0,
) -> FleetDispatchReport:
    """Dispatch a fleet where individual devices may be unreachable.

    Each device's dispatch runs through the :data:`DISPATCH_SITE` fault
    hook and a seeded retry of three attempts; a device that stays
    unreachable (or is genuinely infeasible) is recorded in ``failed``
    and the round continues — the paper's heterogeneous crowd fleets
    lose members routinely, and one dead phone must not void everyone
    else's model.
    """
    resolved = current_clock(clock)
    report = FleetDispatchReport()
    with obs.span("edge.dispatch_fleet", devices=len(devices), resilient=True) as fleet:
        # The per-device negotiation is a simulated transfer to another
        # machine: serialise the fleet span's context to the wire format
        # a real transport would carry, and re-join the trace from the
        # parsed header on the "device side" (remote_parent), exactly as
        # a device-resident agent would.  The contextvars stack is left
        # intact — detaching it would drop the active fault plan.
        wire_traceparent = obs.format_traceparent(
            obs.TraceContext(fleet.trace_id, fleet.span_id)
        )
        for offset, device in enumerate(devices):

            def negotiate(device: DeviceProfile = device) -> DispatchDecision:
                inject(DISPATCH_SITE, resolved)
                with obs.span(
                    "edge.device_negotiate",
                    remote_parent=obs.parse_traceparent(wire_traceparent),
                    device=device.name,
                    traceparent=wire_traceparent,
                ):
                    return dispatch_model(device, candidates, latency_budget_ms)

            retry = Retry(
                max_attempts=3,
                base_delay_s=0.05,
                seed=seed + offset,
                clock=resolved,
                site=DISPATCH_SITE,
            )
            try:
                report.decisions[device.name] = retry.call(negotiate)
            except TVDPError as exc:
                report.failed[device.name] = f"{type(exc).__name__}: {exc}"
    return report
