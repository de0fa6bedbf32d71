"""Exception types raised across the toolkit."""


class LexnetError(Exception):
    """Base class for every error raised by lexnet.

    The CLI exits with ``exit_code``: 3 (bad input data, an unreadable input
    or an unwritable output), 2 (configuration) or 4 (degenerate graph).
    """

    exit_code = 3


# -- graph construction and lookup -------------------------------------------

class EmptyNodeSetError(LexnetError):
    """A graph was requested over an empty label set."""


class DuplicateLabelError(LexnetError):
    """Two nodes share the same slug."""


class SelfLoopError(LexnetError):
    """An edge from a node to itself was rejected."""


class UnknownNodeError(LexnetError):
    """A node id is outside the graph's node range."""


class DegenerateGraphError(LexnetError):
    """The graph is too small for the requested statistic."""

    exit_code = 4


# -- metrics ------------------------------------------------------------------

class BadKError(LexnetError):
    """A ranking size k is outside 1..n."""


class UndefinedCoefficientError(LexnetError):
    """The rich-club coefficient is undefined for the requested threshold."""


class NullModelDegenerateError(LexnetError):
    """The null-model mean is zero, so normalization is impossible."""


# -- communities ---------------------------------------------------------------

class EmptyGraphError(LexnetError):
    """Modularity is undefined on a graph without edges."""

    exit_code = 4


class PartialAssignmentError(LexnetError):
    """A community assignment does not cover every node exactly once."""


class TooLargeError(LexnetError):
    """The exhaustive partition search was asked for more than 12 nodes."""


# -- null models ----------------------------------------------------------------

class TooManyEdgesError(LexnetError):
    """Requested edge count exceeds the simple-graph maximum."""


class BadLatticeDegreeError(LexnetError):
    """The ring-lattice degree must be even and within 2..n-1."""


class TooFewEdgesError(LexnetError):
    """Degree-preserving rewiring needs at least two edges."""


# -- extraction -----------------------------------------------------------------

class InvalidEncodingError(LexnetError):
    """Input bytes are not valid UTF-8 text."""


class MalformedRegistryError(LexnetError):
    """A registry line does not follow the slug/display/aliases format."""


class AmbiguousAliasError(LexnetError):
    """The same alias is claimed by two different codes."""


class DuplicateSlugError(LexnetError):
    """The same slug appears twice in a registry."""


class UnknownDocumentSlugError(LexnetError):
    """A document's slug is not present in the registry."""


class DuplicateDocumentError(LexnetError):
    """Two documents in a corpus carry the same slug."""


# -- serialization ----------------------------------------------------------------

class MalformedLineError(LexnetError):
    """An edge-list line is not a valid citing/cited/count record."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


class SelfLoopLineError(LexnetError):
    """An edge-list line records a self-citation."""

    def __init__(self, lineno: int, slug: str):
        super().__init__(f"line {lineno}: self-citation on {slug!r}")
        self.lineno = lineno


class EmptyInputError(LexnetError):
    """An edge list (plus sidecar, if any) describes no nodes at all."""


class SchemaViolationError(LexnetError):
    """A report payload does not match the expected schema."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path


class InconsistentInputsError(LexnetError):
    """Export annotations do not agree with the graph they describe."""


# -- configuration -----------------------------------------------------------------

class ConfigError(LexnetError):
    """A pipeline configuration value is invalid or unparsable."""

    exit_code = 2
