"""Exception hierarchy shared by all edim modules."""


class EdimError(Exception):
    """Base class for all library errors."""


# -- exactfield --------------------------------------------------------------

class NotPrime(EdimError, ValueError):
    pass


class DegreeTooLarge(EdimError, ValueError):
    pass


class ZeroElement(EdimError, ZeroDivisionError):
    pass


# -- ratfunc -----------------------------------------------------------------

class DivisionByZero(EdimError, ZeroDivisionError):
    pass


class DomainMismatch(EdimError, ValueError):
    pass


class UnboundVariable(EdimError, KeyError):
    pass


class IndeterminateForm(EdimError, ZeroDivisionError):
    pass


class PoleAtPoint(EdimError, ZeroDivisionError):
    pass


# -- groups ------------------------------------------------------------------

class TooLarge(EdimError, ValueError):
    pass


# -- fielddesc ---------------------------------------------------------------

class CharZero(EdimError, ValueError):
    pass


class CharDividesM(EdimError, ValueError):
    pass


class InconsistentCustom(EdimError, ValueError):
    pass


# -- pgl2 --------------------------------------------------------------------

class EvenChar(EdimError, ValueError):
    pass


class RealZetaAbsent(EdimError, ValueError):
    pass


class DependentAlphas(EdimError, ValueError):
    pass


# -- crossratio --------------------------------------------------------------

class AmbientTooSmall(EdimError, ValueError):
    pass


class AmbientOutOfRange(EdimError, ValueError):
    pass


# -- tschirnhaus -------------------------------------------------------------

class Unsupported(EdimError, ValueError):
    pass


class PoleAtAssignment(EdimError, ZeroDivisionError):
    pass


# Nothing in edim raises this: the specialization oracle needs no splitting
# field.  It stays because the benchmark worker (perfbench/worker.py)
# evaluates ``errors.SplittingTooLarge`` on every skipped pole, so deleting
# it would turn each skip into an AttributeError.
class SplittingTooLarge(EdimError, ValueError):
    pass


# -- edengine ----------------------------------------------------------------

class Inconsistent(EdimError, RuntimeError):
    pass


# -- cli ---------------------------------------------------------------------

class ParseError(EdimError, ValueError):
    pass
