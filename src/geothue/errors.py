"""Exception taxonomy shared by all modules, and the node budget of
every bounded search with its one check, _check_budget.

The CLI maps these onto exit codes: resource limits exit 2, everything
else here exits 1.
"""


class GeothueError(Exception):
    """Base class for all library errors."""


class AlphabetError(GeothueError):
    """Unknown or malformed symbol name."""


class FormatError(GeothueError):
    """Malformed input file or word syntax."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionError(GeothueError):
    """An operation was called outside its stated preconditions."""


class StructureError(GeothueError):
    """A structure (group table, pregroup, matrix) violates its axioms."""


DEFAULT_MAX_NODES = 10 ** 6  # node budget of every bounded search


def _check_budget(max_nodes: int) -> None:
    """Refuse a node budget below 1, which no closure fits."""
    if max_nodes < 1:
        raise PreconditionError(
            f"node budget must be at least 1, got {max_nodes}")


class ResourceLimitError(GeothueError):
    """A search hit an explicit node or step cap before deciding."""

    def __init__(self, message, cap):
        super().__init__(message)
        self.cap = cap
