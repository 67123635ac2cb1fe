"""Exception types shared across the package.

Every failure mode callers are expected to branch on gets its own class;
all inherit from PseudohermError so blanket handling stays possible.
"""


class PseudohermError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(PseudohermError, ValueError):
    """Operands are not square or their dimensions do not match."""


class StructureError(PseudohermError, ValueError):
    """An operator lacks required structure (Hermiticity, involution, ...)."""


class PositivityError(PseudohermError, ValueError):
    """A matrix that must be positive definite is not; message names the eigenvalue."""


class InvertibilityError(PseudohermError, ValueError):
    """A matrix that must be invertible is numerically singular."""


class RealityError(PseudohermError, ValueError):
    """An eigenvalue that must be real has a significant imaginary part."""


class DiagonalizabilityError(PseudohermError, ValueError):
    """Eigenvector matrix too ill-conditioned: operator treated as defective."""


class ObstructionError(PseudohermError, ValueError):
    """Commutator equation [H0, Q] = R unsolvable: source has weight on a degenerate pair."""


class GaugeError(PseudohermError, ValueError):
    """A gauge term is not Hermitian or does not commute with H0."""


class ConsistencyError(PseudohermError, ValueError):
    """An internally derived quantity violates a structural identity."""


class ResidualError(PseudohermError, ValueError):
    """A residual that must be small exceeds its threshold; message quotes it."""


class DomainError(PseudohermError, ValueError):
    """Scalar or index argument outside its admissible range."""


class NonFiniteError(PseudohermError, ValueError):
    """A computed value overflowed to inf or NaN; message names the quantity."""


class SpecError(PseudohermError, ValueError):
    """Model specification failed validation; message carries the field path."""
