"""Exception types shared across the package."""


class TorusPackError(Exception):
    """Base class for all package errors."""


class DegenerateLattice(TorusPackError):
    """Basis vectors are (numerically) linearly dependent."""


class OutOfModuliStrip(TorusPackError):
    """Point violates x^2 + y^2 >= 1, y > 0, 0 <= x <= 1/2."""


class AlphaOutOfRange(TorusPackError):
    """Self-tangent boundary angle outside [pi/3, pi/2]."""


class OverlapDetected(TorusPackError):
    """Two circles (or a circle and its own translate) overlap."""


class NoTorusEmbedding(TorusPackError, ValueError):
    """A packing's drawing carries no 2-cell torus embedding (a loop edge,
    or faces that are not disks)."""


class InconsistentLengths(TorusPackError):
    """Strut lengths disagree with the packing diameter."""


class CertificateCheckFailed(TorusPackError):
    """An exact rigidity certificate failed its re-check on the float data."""


class UnsupportedN(TorusPackError):
    """Circle count outside the range this package handles."""
