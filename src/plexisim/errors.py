"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(SimError):
    """Unsupported or inconsistent configuration value."""


class EnrollmentRejected(SimError):
    """Device identity already bound; enrollment returns bottom."""


class ValidationError(SimError):
    """Domain object violates its invariants."""


class StateError(SimError):
    """Operation illegal in the current workflow state."""


class AuthorizationError(SimError):
    """Actor lacks authority for the requested mutation."""


class RejectedTransactionError(SimError):
    """Transaction failed endorsement and was not committed."""


class DuplicateTransactionError(SimError):
    """Transaction signature already committed."""


class IntegrityViolationError(SimError):
    """Hash chain or state fold mismatch detected during replay."""


class IngestionError(SimError):
    """Telemetry file failed schema or monotonicity checks.

    Carries the offending 1-based row number where applicable.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class TimingError(SimError):
    """Operation invoked outside its allowed simulation-time window."""
