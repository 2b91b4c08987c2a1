"""Fault taxonomy.

Every failure mode the package can signal deliberately is one of these; bare
ValueError/RuntimeError escaping the public API is a bug. Faults raised
mid-run are captured by the integration drivers, which return the partial
results accumulated up to the failing step alongside the fault.
"""

from __future__ import annotations


class CpeError(Exception):
    """Base class for all deliberate faults."""


class UsageFault(CpeError):
    """Caller broke a documented precondition (shapes, tags, unknown ids)."""


class NumericalFault(CpeError):
    """Non-finite values where finite ones are required."""


class SigmaPositivityLost(CpeError):
    """min(sigma) fell to or below the fault floor."""


class PressurePositivityLost(CpeError):
    """min(p) fell to or below the fault floor."""


class StabilityFault(CpeError):
    """Norm grew more than 10x in a single step: the step size is unstable."""


class NoContraction(CpeError):
    """Picard sweeps stopped contracting; the horizon T is too large."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ParseFault(CpeError):
    """Config file is syntactically or lexically malformed.

    Carries the offending key when one can be named.
    """

    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason
        super().__init__(f"{key}: {reason}")


class ConstraintFault(CpeError):
    """Config parsed but a value violates a model constraint."""

    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason
        super().__init__(f"{key}: {reason}")


class FormatFault(CpeError):
    """Snapshot bytes are not a valid snapshot (bad magic/version/length)."""

    def __init__(self, reason: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            reason = f"{reason} (byte offset {offset})"
        super().__init__(reason)


class IoFault(CpeError):
    """Underlying file I/O failed."""


class QNegativityWarning(UserWarning):
    """Heating term dipped below -tol_bc (possible when lambda < 0)."""


class PositivityMarginWarning(UserWarning):
    """sigma or p crossed half its modeling floor (still above the fault floor)."""


#: Exit codes for the CLI: faults map to 2, instability/no-contraction to 3.
EXIT_OK = 0
EXIT_FAULT = 2
EXIT_UNSTABLE = 3
