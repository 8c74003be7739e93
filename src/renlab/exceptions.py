"""Error taxonomy shared across the package, and a UTF-8 reader raising it."""

from contextlib import contextmanager


class RenlabError(Exception):
    """Base class for all errors raised by renlab."""


class ShapeError(RenlabError):
    """Tensor extents do not line up for the requested operation."""


class NonFiniteError(RenlabError):
    """An operation produced NaN or infinity."""


class ConfigError(RenlabError):
    """Invalid configuration value or unknown configuration key."""


class ContractError(RenlabError):
    """A documented precondition was violated by the caller."""


@contextmanager
def open_text(path, error: type[RenlabError] = ContractError):
    """``path`` opened to read UTF-8 text.  Bytes that do not decode raise
    ``error`` naming the file, not a UnicodeDecodeError, wherever in the
    block the file is read."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"non-UTF-8 bytes in {path}: {exc.reason}") from None
