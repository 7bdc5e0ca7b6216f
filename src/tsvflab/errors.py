"""Exception types shared across the laboratory modules."""


class NonHermitianOperatorError(ValueError):
    """An operation required a hermitian operator and got something else."""


class OrthogonalSelectionError(ValueError):
    """Pre- and post-selection overlap is below the analytic weak-value threshold."""


class DarkDetectorError(RuntimeError):
    """The post-selected branch carries no amplitude (genuinely dark detector)."""


class UnclassifiedOrderError(RuntimeError):
    """A fitted leading order fell outside every classification band."""


class ScheduleError(ValueError):
    """A coupling or spread schedule violates its monotonicity/positivity contract."""


class FieldError(ValueError):
    """A domain object rejected one of its fields.

    ``path`` locates the field: its name, then indices and sub-fields where
    the field is a sequence, e.g. ``("steps", 3, "mode_b")``.  Front ends
    map it to a source position.
    """

    def __init__(self, message: str, *path):
        super().__init__(message)
        self.path = path
