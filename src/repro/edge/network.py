"""Bandwidth accounting and resilient transfer execution for edge uploads.

The paper's bandwidth-saving claim: "the framework extracts the visual
feature vectors of the selected subset locally on the edge device and
transmits them to the TVDP server, instead of sending the raw
high-quality image".  The planning helpers quantify exactly that trade;
:func:`execute_upload` / :func:`upload_fleet` then *run* a plan over an
unreliable link with the platform's resilience stack: retries with
seeded backoff, and one circuit breaker per device so a dead Raspberry
Pi fast-fails instead of stalling the rest of a campaign round.

All timing goes through the injectable :class:`~repro.resilience.Clock`
— transfers "take" their modelled ``transfer_time_s`` on a *virtual*
clock by default (an active :class:`~repro.resilience.FaultPlan`'s
clock when chaos is on), so neither production simulation nor any test
ever calls ``time.sleep``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import CircuitOpenError, EdgeError, TVDPError
from repro.edge.devices import DeviceProfile
from repro.resilience import (
    Clock,
    ManualClock,
    Retry,
    active_plan,
    get_breaker,
    inject,
)

_DELIVERED = obs.metrics().counter("edge.transfer.delivered")
_FAILED = obs.metrics().counter("edge.transfer.failed")

#: Bytes per float32 feature component on the wire.
FLOAT_BYTES = 4

#: Rough JPEG size in bytes per pixel for street photos (quality ~85).
JPEG_BYTES_PER_PIXEL = 0.35


def raw_image_bytes(width: int, height: int, jpeg: bool = True) -> int:
    """Upload size of one image, JPEG-compressed or raw RGB."""
    if width < 1 or height < 1:
        raise EdgeError(f"image dimensions must be positive: {width}x{height}")
    if jpeg:
        return int(width * height * JPEG_BYTES_PER_PIXEL)
    return width * height * 3


def feature_vector_bytes(dimension: int) -> int:
    """Upload size of one feature vector."""
    if dimension < 1:
        raise EdgeError(f"dimension must be positive, got {dimension}")
    return dimension * FLOAT_BYTES


@dataclass(frozen=True, slots=True)
class UploadPlan:
    """Cost of uploading a batch from one device."""

    n_items: int
    bytes_per_item: int
    device: DeviceProfile

    @property
    def total_bytes(self) -> int:
        return self.n_items * self.bytes_per_item

    @property
    def transfer_time_s(self) -> float:
        return self.device.transmission_time_s(self.total_bytes)


def compare_upload_strategies(
    device: DeviceProfile,
    n_items: int,
    image_px: int,
    feature_dim: int,
) -> dict[str, UploadPlan]:
    """Raw-image vs feature-vector upload plans for the same batch."""
    if n_items < 0:
        raise EdgeError(f"n_items must be >= 0, got {n_items}")
    return {
        "raw_images": UploadPlan(
            n_items=n_items,
            bytes_per_item=raw_image_bytes(image_px, image_px),
            device=device,
        ),
        "features": UploadPlan(
            n_items=n_items,
            bytes_per_item=feature_vector_bytes(feature_dim),
            device=device,
        ),
    }


# -- resilient transfer execution --------------------------------------------

#: Fault-injection site for upload transfers (see ``repro.resilience``).
TRANSFER_SITE = "edge.transfer"


@dataclass(frozen=True, slots=True)
class TransferReceipt:
    """One upload batch successfully delivered from one device."""

    device: str
    n_items: int
    total_bytes: int
    duration_s: float  # simulated link time, retries included
    attempts: int


@dataclass(frozen=True)
class FleetTransferReport:
    """Outcome of pushing one batch per device through flaky links."""

    delivered: dict[str, TransferReceipt]
    failed: dict[str, str]  # device name -> terminal error

    @property
    def delivery_ratio(self) -> float:
        total = len(self.delivered) + len(self.failed)
        if total == 0:
            return 1.0
        return len(self.delivered) / total


def _simulation_clock(clock: Clock | None) -> Clock:
    """Transfers model elapsed time rather than spend it: an explicit
    clock wins, then an active fault plan's (chaos shares one virtual
    timeline), then a fresh :class:`ManualClock` — never the real
    wall clock, so nothing here can ever block."""
    if clock is not None:
        return clock
    plan = active_plan()
    if plan is not None:
        return plan.clock
    return ManualClock()


def execute_upload(
    plan: UploadPlan, clock: Clock | None = None, seed: int = 0
) -> TransferReceipt:
    """Run one upload batch with retry + a per-device circuit breaker.

    A batch gets four attempts; three consecutive failures open the
    device's breaker for 60 s of clock time.  Each attempt spends the
    plan's ``transfer_time_s`` on the injected clock and passes through
    the :data:`TRANSFER_SITE` fault hook.  A device whose breaker is
    open fast-fails with :class:`~repro.errors.CircuitOpenError` —
    callers doing fleet rounds treat that as "skip this device for
    now", not as a reason to wait.
    """
    clock = _simulation_clock(clock)
    device = plan.device
    breaker = get_breaker(
        f"edge.device.{device.name}",
        failure_threshold=3,
        recovery_time_s=60.0,
        failure_on=(TVDPError,),
        clock=clock,
    )
    attempts = 0

    def one_attempt() -> None:
        nonlocal attempts
        attempts += 1
        with obs.span(
            "edge.transfer.attempt", device=device.name, attempt=attempts
        ):
            inject(TRANSFER_SITE, clock)
            clock.sleep(plan.transfer_time_s)

    retry = Retry(
        max_attempts=4,
        base_delay_s=0.1,
        seed=seed,
        clock=clock,
        site=TRANSFER_SITE,
    )
    started = clock.now()
    with obs.span(
        TRANSFER_SITE,
        device=device.name,
        items=plan.n_items,
        bytes=plan.total_bytes,
    ) as sp:
        try:
            retry.call(lambda: breaker.call(one_attempt))
        except TVDPError:
            _FAILED.inc()
            raise
        _DELIVERED.inc()
        duration = clock.now() - started
        sp.set("attempts", attempts)
        return TransferReceipt(
            device=device.name,
            n_items=plan.n_items,
            total_bytes=plan.total_bytes,
            duration_s=duration,
            attempts=attempts,
        )


def upload_fleet(
    plans: dict[str, UploadPlan], clock: Clock | None = None, seed: int = 0
) -> FleetTransferReport:
    """Push one batch per device; isolate failures per device.

    A device that exhausts its retries — or whose breaker is already
    open from an earlier round — lands in ``failed`` and the loop moves
    on; one dead Raspberry Pi costs the fleet exactly its own batch.
    """
    clock = _simulation_clock(clock)
    delivered: dict[str, TransferReceipt] = {}
    failed: dict[str, str] = {}
    with obs.span("edge.upload_fleet", devices=len(plans)):
        for offset, (name, plan) in enumerate(sorted(plans.items())):
            try:
                delivered[name] = execute_upload(plan, clock=clock, seed=seed + offset)
            except CircuitOpenError as exc:
                failed[name] = f"breaker open: {exc}"
            except TVDPError as exc:
                failed[name] = f"{type(exc).__name__}: {exc}"
    return FleetTransferReport(delivered=delivered, failed=failed)
