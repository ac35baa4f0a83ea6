"""Typed errors shared across the package."""


class GraphDeconvError(Exception):
    """Base class for all errors raised by graph_deconv."""


class DegenerateSpectrum(GraphDeconvError):
    """Two eigenvalues of the graph shift coincide within tolerance."""


class NearZeroResponse(GraphDeconvError):
    """A frequency response inside the inversion support is too close to zero."""


class NonpositiveVariance(GraphDeconvError):
    """A covariance matrix has a diagonal entry that is not positive and finite where it must be."""


class IsolatedVertex(GraphDeconvError):
    """A source-graph vertex has no incident edge, so its response cannot be estimated."""


class FileFormatError(GraphDeconvError):
    """An input file does not match the expected format."""
