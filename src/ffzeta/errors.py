"""Exception types and the result-record base shared across the package.

Every error carries a short machine-readable reason in ``args[0]`` so the
CLI can map failures onto exit codes without string matching.  An error
that only a test oracle raises is defined next to that oracle, not here.
"""


class Record:
    """Immutable value over its ``__slots__``: equal to a record of its own type with equal fields."""

    # hand-written, not generated: the data-class module and its exec'd methods were 2/3 of the CLI's import
    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({body})"


class FFZetaError(Exception):
    """Base class for all package errors."""


class NotPrime(FFZetaError):
    pass


class BoundExceeded(FFZetaError):
    """A desk-scale enumeration or extension bound was exceeded."""


class ZeroInput(FFZetaError):
    pass


class NotAPower(FFZetaError):
    """Raised when no (r-1)-st root exists; names the failing condition."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NotOneUnit(FFZetaError):
    pass


class DomainMismatch(FFZetaError):
    pass


class BadReduction(FFZetaError):
    """No integral model with unit leading coefficient exists at the prime."""


class NotCyclic(FFZetaError):
    """Point module is not cyclic; flags a bug or a genuine counterexample."""


class SingularRecursion(FFZetaError):
    pass


class NonConvergent(FFZetaError):
    pass


class InsufficientData(FFZetaError):
    pass


class BadPrime(FFZetaError):
    """The prime meets a zero or pole of the object being evaluated."""


class NotAUnitModV(FFZetaError):
    pass


class Unsupported(FFZetaError):
    """Requested quantity is outside the implemented theory (e.g. rank-2 bad primes)."""


class CacheCorrupt(FFZetaError):
    pass


class ParseError(FFZetaError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"parse error at position {pos}: {message} (input: {text!r})")
        self.text = text
        self.pos = pos
