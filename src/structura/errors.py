"""Exception types shared across the library."""


class StructuraError(Exception):
    """Base class for all structura-specific errors."""


class InternalInvariantError(StructuraError):
    """An identity the library guarantees failed on its own output: a defect
    in structura, not in the input."""


def _quoted(v) -> str:
    """repr(v) cut to about 60 characters, for errors that echo the input."""
    text = repr(v)
    return text if len(text) <= 60 else f"{text[:56]}..."


def _ascii_int(text: str):
    """text as an int when it is all ASCII digits, None otherwise (also for
    more digits than int() reads)."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:
        return None


def require(cond, msg: str) -> None:
    """Check an internal identity; unlike assert, it also runs under -O."""
    if not cond:
        raise InternalInvariantError(msg)


# scalar layer
class DivisionByZeroPoly(StructuraError):
    pass


class BothZero(StructuraError):
    pass


class RootAtA(StructuraError):
    pass


class FieldNotSplit(StructuraError):
    pass


# matrix kernel
class RankDeficient(StructuraError):
    pass


class ZeroMatrix(StructuraError):
    pass


class DegreeTooSmall(StructuraError):
    pass


class DegreeMismatch(StructuraError):
    pass


# extraction / verification
class ShapeMismatch(StructuraError):
    pass


# feasibility / synthesis
class LengthMismatch(StructuraError):
    pass


class MalformedPrescription(StructuraError):
    pass


class Infeasible(StructuraError):
    pass


class ImpossibleSquareCase(StructuraError):
    pass


class SumMismatch(StructuraError):
    pass


class MajorizationFails(StructuraError):
    pass


class PreconditionViolated(StructuraError):
    pass


class NonMonicDiagonal(StructuraError):
    pass


class SingularInput(StructuraError):
    pass


# io
class ParseError(StructuraError):
    pass
