"""Exception hierarchy shared across the package.

Every named failure mode raised by the library derives from FloerDiskError,
so callers (notably the CLI) can map them onto exit codes in one place.
"""


class FloerDiskError(Exception):
    pass


# --- rings ---------------------------------------------------------------

class NonInvertibleDenominator(FloerDiskError):
    """A fraction's denominator is a zero divisor in the target ring."""


class InfiniteRing(FloerDiskError):
    """An operation requiring a finite ring was called on Z or Q."""


# --- abelian linear algebra ----------------------------------------------

class DimensionMismatch(FloerDiskError):
    pass


class TorsionGroup(FloerDiskError):
    """Intersection pairings are only defined on free groups."""


# --- scenario ingestion ---------------------------------------------------

class SchemaError(FloerDiskError):
    """The document's structure does not match the scenario schema."""


class ValidationError(FloerDiskError):
    """A structurally valid document breaks a scenario invariant."""


class UnknownScenario(FloerDiskError):
    pass


class BadParams(FloerDiskError):
    pass


# --- invariants ------------------------------------------------------------

class InsufficientLedger(FloerDiskError):
    """The ledger does not determine the requested area level."""


class HypothesisViolated(FloerDiskError):
    """The area-progression hypothesis a < 1/(k+N) fails."""


class MissingLocalSystem(FloerDiskError):
    pass


class WeightTooLarge(FloerDiskError):
    """A local-system weight over Q would exceed its size budget."""


class CancellationFails(FloerDiskError):
    """Boundary classes of the selected disks do not sum to zero.

    Carries the offending sum so reports can show it.
    """

    def __init__(self, message, boundary_sum=None):
        super().__init__(message)
        self.boundary_sum = boundary_sum


class NoLift(FloerDiskError):
    """The disk sum has no preimage under j; the scenario is inconsistent."""


# --- criterion --------------------------------------------------------------

class TwoSidedRequired(FloerDiskError):
    pass


# --- potential ---------------------------------------------------------------

class UnknownLabel(FloerDiskError):
    pass


class BasisMismatch(FloerDiskError):
    pass


class Degenerate(FloerDiskError):
    """Fewer than two distinct exponents; no valuation can balance."""


class NotSingleLevel(FloerDiskError):
    pass


class UnsupportedShape(FloerDiskError):
    """The polynomial is outside the structured family this analysis covers."""


class ResidueSearchTooLarge(FloerDiskError):
    """The residue search would exceed its work budget."""


# --- probes -------------------------------------------------------------------

class InvalidProbe(FloerDiskError):
    pass


class ProbeSearchTooLarge(FloerDiskError):
    """The probe search would exceed its work budget."""
