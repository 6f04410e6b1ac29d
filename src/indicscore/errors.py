"""Exception types shared across the package, and the UTF-8 text read that
reports a bad byte as a DataError naming the file and line."""

from __future__ import annotations

from pathlib import Path


class ConfigurationError(ValueError):
    """Bad configuration: unknown language, malformed policy, bad thresholds."""


class DataError(ValueError):
    """Malformed input data (files, rows, spans).

    ``details`` carries one message per offending line/row when the error
    aggregates several problems from a single file.
    """

    def __init__(self, message: str, details: list[str] | None = None):
        self.details = details or []
        if self.details:
            message = message + "\n" + "\n".join("  " + d for d in self.details)
        super().__init__(message)


class ReferenceDataError(DataError):
    """A reference entity token is unusable for its declared matcher class."""


def read_utf8(path: str | Path) -> str:
    """Read a whole text file as UTF-8.

    A byte that is not UTF-8 raises DataError naming the file and the
    1-based line it sits on, lines ending at each newline byte.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line}: not valid UTF-8") from None
