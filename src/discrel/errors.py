"""Exception types shared across the package, and the text-decoding guard
that maps a non-UTF-8 file onto them."""

from contextlib import contextmanager


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class WindowError(ValueError):
    """A sliding window or pooling request does not fit the input."""


class LabelError(ValueError):
    """A class index or sense string falls outside the label space."""


class DataError(ValueError):
    """A record is missing data required by the requested operation."""


class ParseError(ValueError):
    """A file violates its documented schema; message carries the location."""


class ConfigError(ValueError):
    """A run configuration is invalid; message names the offending key."""


class MissingGradientError(RuntimeError):
    """An optimizer step was requested before gradients were populated."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; message names the step."""


class InstanceKeyError(KeyError):
    """A requested instance is absent from a keyed store."""


@contextmanager
def utf8_text(path):
    """Report a non-UTF-8 byte read inside the block as a ParseError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
