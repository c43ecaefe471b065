"""Exception hierarchy shared by the whole kernel.

Checking functions raise; predicates (``check_*`` returning bool) catch
these internally and report.  ``path`` on DerivationError is the list of
child indices from the root of the offending derivation tree.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all kernel-level failures."""


class IndexOutOfRange(KernelError):
    pass


class ChildCountMismatch(KernelError):
    pass


class ScopeMismatch(KernelError):
    pass


class ClassMismatch(KernelError):
    pass


class ArityMismatch(KernelError):
    pass


class PremiseMismatch(KernelError):
    def __init__(self, path, expected, found):
        super().__init__(f"at {list(path)}: expected {expected!r}, found {found!r}")
        self.path = tuple(path)
        self.expected = expected
        self.found = found


class FillerConclusionMismatch(KernelError):
    pass


class TrivialityViolated(KernelError):
    """A substitution does not act trivially at ``position`` of its trivial set.

    A renaming that does not respect the type at a position raises this too:
    respecting types is acting trivially at every position."""

    def __init__(self, position, detail=""):
        super().__init__(f"substitution does not act trivially at position {position} {detail}")
        self.position = position


class HeadRequired(KernelError):
    pass


class HeadForbidden(KernelError):
    pass


class NotObjectRule(KernelError):
    pass


class NoBijection(KernelError):
    pass


class MissingWitness(KernelError):
    pass


class NotSubstitutive(KernelError):
    pass


class NotCongruous(KernelError):
    pass


class NotTight(KernelError):
    pass


class NotAcceptable(KernelError):
    pass


class StageViolation(KernelError):
    pass


class WitnessFailure(KernelError):
    pass


class SymbolArityMismatch(KernelError):
    pass


class SymbolRequired(KernelError):
    pass


class SymbolForbidden(KernelError):
    pass


class ParseError(KernelError):
    pass


class DerivationError(KernelError):
    """Wraps a failure inside a derivation tree with the path to the node."""

    def __init__(self, path, cause):
        super().__init__(f"at node {list(path)}: {cause}")
        self.path = tuple(path)
        self.cause = cause
