"""Exception types shared across modules."""


class DataFormatError(ValueError):
    """Raised on malformed input files (delimited text, IDX images, or
    serialized oracle state)."""


class UnsupportedSpaceError(TypeError):
    """Raised when an operation needs a space it cannot work in, e.g.
    centroid averaging outside squared Euclidean."""
