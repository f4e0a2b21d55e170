"""Exception hierarchy shared by all framelab modules.

Two families of failure exist: malformed input (``ValidationError``) and
structurally valid input that the numerics refuse to process, e.g. inverting
an operator whose smallest eigenvalue sits below tolerance
(``NumericalRefusal``).  The CLI maps the two families to distinct exit codes.
"""


class FramelabError(Exception):
    """Base class for every error raised by framelab."""


class ValidationError(FramelabError):
    """Malformed input: wrong shapes, bad parameters, broken invariants."""


class NumericalRefusal(FramelabError):
    """Well-formed input rejected on numerical grounds."""


class NonSquareError(ValidationError):
    """A square matrix was required."""


class NotHermitianError(ValidationError):
    """Matrix asymmetry exceeds the roundoff symmetrization tolerance."""


class DimensionMismatchError(ValidationError):
    """Vector or coefficient length does not match the expected dimension."""


class SpaceMismatchError(ValidationError):
    """Two families were expected to share one discretized space."""


class OutOfRangeError(ValidationError):
    """A requested mass or index lies outside the admissible range."""


class NotOrthonormalError(ValidationError):
    """A function system failed the orthonormality tolerance."""


class InvalidSpecError(ValidationError):
    """A gallery spec carries missing or inconsistent parameters."""


class NotAFrameError(NumericalRefusal):
    """Lower frame bound below tolerance; inversion refused."""


class NotInvertibleError(NumericalRefusal):
    """Resolution operator condition number above the invertibility cutoff."""


class NotInjectiveError(NumericalRefusal):
    """Analysis map is rank deficient; no lower semi-frame dual exists."""


class NotSurjectiveError(NumericalRefusal):
    """Synthesis map does not reach the whole space; no partner exists."""


class PairDegenerateError(NumericalRefusal):
    """Two function families do not form a reproducing pair on their span."""
