"""Exception hierarchy shared by all twinstore modules.

Every domain error derives from TwinstoreError so callers (and the CLI)
can distinguish domain failures (exit 1) from genuine bugs; MalformedInput
marks input that cannot be parsed into the object it names (exit 2).
"""


class TwinstoreError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedInput(TwinstoreError):
    """A document or flag cannot be parsed into the object it names."""


# ---------------------------------------------------------------- field / linalg

class FieldMismatch(TwinstoreError):
    """Operands belong to different prime fields."""


class DimensionMismatch(TwinstoreError):
    """Matrix/vector shapes do not conform."""


class ZeroInverse(TwinstoreError):
    """Multiplicative inverse of zero requested."""


class SingularMatrix(TwinstoreError):
    """A square system has no unique solution."""


# ---------------------------------------------------------------- MDS codes

class TooFewPoints(TwinstoreError):
    """The field is too small to supply n distinct evaluation points."""


class DuplicatePoints(TwinstoreError):
    """Evaluation points must be pairwise distinct."""


class NotMds(TwinstoreError):
    """A k x k submatrix of the generator is singular."""


class SingularSubmatrix(TwinstoreError):
    """A decode's k code columns do not span F^k (corrupted or non-MDS code)."""


class UnverifiedCode(TwinstoreError):
    """A generator's MDS property cannot be confirmed: it contradicts its
    own style and points, or is too wide for the exhaustive minor check."""


# ---------------------------------------------------------------- twin framework

class PayloadTooLarge(TwinstoreError):
    """Payload exceeds the k*k symbols one message matrix can hold."""


class NotEnoughLiveNodes(TwinstoreError):
    """Fewer than k live nodes available for reconstruction."""


class MixedTypes(TwinstoreError):
    """A node set that must be single-type mixes both types."""


class DeadNode(TwinstoreError):
    """Operation references a failed node."""


class SameTypeHelper(TwinstoreError):
    """A repair helper must belong to the opposite node type."""


class EmptyHelper(TwinstoreError):
    """A repair helper holds no data."""


class NotEnoughHelpers(TwinstoreError):
    """Repair needs exactly k distinct live helpers."""


class WrongHelperType(TwinstoreError):
    """Explicit helper references are not all of the opposite type."""


class InsufficientSeeds(TwinstoreError):
    """Deployment needs k distinct seed nodes per type."""


# ---------------------------------------------------------------- secrecy

class BadPayloadLength(TwinstoreError):
    """Payload length does not match the secure capacity k*(k-l1-l2)."""


class BudgetExceeded(TwinstoreError):
    """Eavesdropper budget l1+l2 must stay below k."""


# ---------------------------------------------------------------- eavesdrop analysis

class MissingRepairPlan(TwinstoreError):
    """A repair-observed node has no recorded repair plan."""


class InstanceTooLarge(TwinstoreError):
    """Exhaustive enumeration would exceed the configured state limit."""


# ---------------------------------------------------------------- bounds / sim

class BadRange(MalformedInput):
    """Requested comparison series has an empty or invalid range."""


class MalformedScenario(MalformedInput):
    """Scenario failed pre-validation; wraps every loading error, domain ones too."""
