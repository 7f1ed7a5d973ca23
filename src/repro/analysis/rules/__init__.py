"""Built-in lint rules.

Importing this package registers every rule with
:func:`repro.analysis.base.register`; the import happens in
:mod:`repro.analysis` so ``get_rules()`` always sees the full set.
"""

from __future__ import annotations

from repro.analysis.rules.arena_escape import ArenaLoanEscapeRule
from repro.analysis.rules.async_blocking import AsyncBlockingCallRule
from repro.analysis.rules.lock_await import LockHeldAcrossAwaitRule
from repro.analysis.rules.loop_telemetry import LoopThreadTelemetryRule
from repro.analysis.rules.randomness import UnseededRandomnessRule
from repro.analysis.rules.shm_lifecycle import ShmLifecycleRule
from repro.analysis.rules.telemetry_names import TelemetryNamesRule
from repro.analysis.rules.telemetry_ownership import TelemetryOwnershipRule

__all__ = [
    "ArenaLoanEscapeRule",
    "AsyncBlockingCallRule",
    "LockHeldAcrossAwaitRule",
    "LoopThreadTelemetryRule",
    "ShmLifecycleRule",
    "TelemetryNamesRule",
    "TelemetryOwnershipRule",
    "UnseededRandomnessRule",
]
