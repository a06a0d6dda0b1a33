"""Exception types shared across the package."""


class DupError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DupError, ValueError):
    """An operation received input that violates its preconditions."""


class DatasetFormatError(DupError):
    """A dataset file could not be read or a record is malformed."""


class GatewayError(DupError):
    """Base class for chat-completion gateway failures."""


class AuthenticationError(GatewayError):
    """The provider rejected our credentials. Never retried."""


class RetriesExhaustedError(GatewayError):
    """All retry attempts failed. Carries the last observed status."""

    def __init__(self, message: str, last_status: int | None = None):
        super().__init__(message)
        self.last_status = last_status


class TransientBackendError(GatewayError):
    """A retryable failure (timeout, 429, 5xx). Internal to the retry loop.

    `retry_after_s` is the wait the provider asked for, if it named one.
    """

    def __init__(
        self, message: str, status: int | None = None, retry_after_s: float | None = None
    ):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


class MalformedResponseError(GatewayError):
    """The provider returned a payload we cannot interpret."""


class RunComparisonError(DupError):
    """Two reports cannot be compared (different dataset or problem sets)."""
