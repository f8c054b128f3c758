"""Exception hierarchy shared across the package.

Every named failure mode derives from FloerDiskError and declares, as
``exit_code``, the exit status the CLI returns: 3 for an input fault, else 4.
"""


class FloerDiskError(Exception):
    exit_code = 4


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
    exit_code = 3


class ValidationError(FloerDiskError):
    """A structurally valid document breaks a scenario invariant."""
    exit_code = 3


class UnknownScenario(FloerDiskError):
    exit_code = 3


class BadParams(FloerDiskError):
    exit_code = 3


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
    exit_code = 3


class BasisMismatch(FloerDiskError):
    pass


class Degenerate(FloerDiskError):
    """Fewer than two distinct exponents; no valuation can balance."""


class NotSingleLevel(FloerDiskError):
    pass


class UnsupportedShape(FloerDiskError):
    """The polynomial is outside the structured family this analysis covers,
    or too large for its work budget."""


class ResidueSearchTooLarge(FloerDiskError):
    """The residue search would exceed its work budget."""


# --- probes -------------------------------------------------------------------

class InvalidProbe(FloerDiskError):
    pass


class ProbeSearchTooLarge(FloerDiskError):
    """The probe search would exceed its work budget."""
