"""Exception types raised across the toolkit.

A class exists only where the program acts on it: one per exit code and
two that carry a field callers read. Every other failure is a plain
LexnetError whose message names what went wrong.
"""


class LexnetError(Exception):
    """Base class for every error raised by lexnet.

    The CLI exits with ``exit_code``: 3 (bad input data, an unreadable input
    or an unwritable output), 2 (configuration) or 4 (degenerate graph).
    """

    exit_code = 3


class ConfigError(LexnetError):
    """A pipeline configuration value is invalid or unparsable."""

    exit_code = 2


class DegenerateGraphError(LexnetError):
    """The graph is too small or too sparse for the requested statistic."""

    exit_code = 4


# -- errors that carry a field ------------------------------------------------

class MalformedLineError(LexnetError):
    """A line of a TSV input (registry, edge list or node sidecar) is not a valid record."""

    def __init__(self, lineno: int, reason: str, where: str = "line"):
        super().__init__(f"{where} {lineno}: {reason}")
        self.lineno = lineno


class SchemaViolationError(LexnetError):
    """A report payload does not match the expected schema."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
