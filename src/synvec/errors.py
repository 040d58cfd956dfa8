"""Exception hierarchy shared across the toolkit.

Every error carries a stable machine-readable ``kind`` (used for error JSON on
stderr) and an ``exit_code`` the CLI maps to: 1 domain/validation, 2 I/O or
malformed container, 3 evaluator failure.
"""


class SynvecError(Exception):
    kind = "error"
    exit_code = 1


class ValidationError(SynvecError):
    """Bad argument or violated precondition."""

    kind = "validation"


class ContainerError(SynvecError):
    """Base class for malformed checkpoint containers."""

    kind = "container"
    exit_code = 2


class InvalidHeaderError(ContainerError):
    """Header is not valid JSON or is structurally wrong."""

    kind = "invalid_header"


class UnknownDtypeError(ContainerError):
    """Header declares a dtype this toolkit does not handle."""

    kind = "unknown_dtype"


class ByteRangeError(ContainerError):
    """Tensor byte ranges overlap, leave gaps, or disagree with shapes."""

    kind = "byte_range"


class TruncatedDataError(ContainerError):
    """File ends before the bytes the header promises."""

    kind = "truncated_data"


class NonFiniteValueError(SynvecError):
    """A NaN or infinity where finite values are required."""

    kind = "non_finite"

    def __init__(self, message: str, tensor: str | None = None, index: int | None = None):
        super().__init__(message)
        self.tensor = tensor
        self.index = index


class SchemaMismatchError(SynvecError):
    """Two checkpoints do not share a compatible (name, dtype, shape) schema."""

    kind = "schema_mismatch"

    def __init__(self, report, message: str | None = None):
        super().__init__(message or f"schema mismatch: {report.describe()}")
        self.report = report


class FingerprintMismatchError(SynvecError):
    kind = "fingerprint_mismatch"


class ZeroNormError(SynvecError):
    kind = "zero_norm"


class TrainingDivergedError(SynvecError):
    kind = "training_diverged"

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class EvaluatorError(SynvecError):
    """External evaluator failed (bad exit, bad output, or timeout).

    ``failure_kind`` is spawn, exit, timeout, output or unknown; an ``exit``
    failure also carries the evaluator's ``evaluator_exit_code`` and
    ``stderr``. (``exit_code`` stays the CLI's status for this error, 3.)
    """

    kind = "evaluator"
    exit_code = 3

    def __init__(self, message: str, failure_kind: str = "unknown",
                 evaluator_exit_code: int | None = None, stderr: str = ""):
        super().__init__(message)
        self.failure_kind = failure_kind
        self.evaluator_exit_code = evaluator_exit_code
        self.stderr = stderr
