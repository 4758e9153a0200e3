"""Exception hierarchy shared by all zlattice modules."""


class ZLatticeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ZLatticeError):
    pass


class SchemaError(ZLatticeError):
    """Malformed or inconsistent sequence/problem document."""


class UnrepresentableSum(ZLatticeError):
    """Minkowski sum of two domains falls outside the closed domain kinds."""


class NoEnvelope(ZLatticeError):
    """Operation needs a decay envelope but the table carries none."""


class TwoSidedAxisWithoutRingRates(ZLatticeError):
    """A full-lattice axis needs a two-sided rate pair to define a ring."""


class PointOutsideRegion(ZLatticeError):
    pass


class ZeroCoordinate(ZLatticeError):
    """A coordinate of z is 0 where a negative power would be required."""


class BoundaryNotFinite(ZLatticeError):
    """Shift boundary D \\ (a+D) carries unresolved infinite mass."""


class ShiftLeavesDomain(ZLatticeError):
    """Shift offset a violates a + D subset of D."""


class CircleOutsideRegion(ZLatticeError):
    pass


class EvaluatorFailure(ZLatticeError):
    """Evaluator raised or returned a non-finite value at a contour node."""

    def __init__(self, node, cause=None):
        self.node = tuple(node)
        self.cause = cause
        super().__init__(f"evaluator failed at contour node {self.node}: {cause}")


class DivergentConvolution(ZLatticeError):
    """Envelope tail bound of a convolution sum is infinite or above tolerance."""


class SingularSymbol(ZLatticeError):
    """Symbol matrix is numerically singular at a contour node."""

    def __init__(self, node, rcond):
        self.node = tuple(complex(c) for c in node)
        self.rcond = rcond
        super().__init__(f"symbol singular at node {self.node} (rcond={rcond:.3e})")


class InitialConditionViolated(ZLatticeError):
    """Data fails the staircase zero condition of the orthant problem."""


class InsufficientWindow(ZLatticeError):
    """Stored window of a sequence does not cover the indices required."""
