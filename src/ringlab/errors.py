"""Exception types shared across the package.

Every error carries a short machine-readable ``category`` string that the CLI
maps to exit codes and the JSON reports embed verbatim.
"""


class RinglabError(Exception):
    category = "internal-inconsistency"

    def __init__(self, message, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json(self):
        out = {"category": self.category, "message": self.message}
        if self.details:
            out["details"] = {k: v for k, v in sorted(self.details.items())}
        return out


class InvalidParameter(RinglabError):
    category = "invalid-parameter"


class CapacityExceeded(RinglabError):
    """Raised when an enumeration or construction outgrows its budget.

    ``partial`` may hold whatever was computed before the budget tripped
    (e.g. a truncated ideal list) so callers can report partial results.
    """

    category = "capacity-exceeded"

    def __init__(self, message, partial=None, **details):
        super().__init__(message, **details)
        self.partial = partial


class InvalidIdeal(RinglabError):
    category = "invalid-ideal"


class InvalidModule(RinglabError):
    category = "invalid-module"


class InvalidSubset(RinglabError):
    """Subset fails its closure law; ``witness`` is the offending pair."""

    category = "invalid-subset"

    def __init__(self, message, witness=None, **details):
        if witness is not None:
            details["witness"] = tuple(witness)
        super().__init__(message, **details)
        self.witness = witness


class NotDisjoint(RinglabError):
    """S meets the ideal; predicates refuse to run rather than guess."""

    category = "precondition-violation"


class NotApplicable(RinglabError):
    category = "not-applicable"


class RingMismatch(RinglabError):
    category = "ring-mismatch"


class InternalInconsistency(RinglabError):
    category = "internal-inconsistency"


class ParseError(RinglabError):
    """Expression syntax error with position and the token set expected there."""

    category = "parse-error"

    def __init__(self, message, line, col, expected=(), found=None):
        super().__init__(message, line=line, col=col,
                         expected=sorted(expected), found=found)
        self.line = line
        self.col = col
        self.expected = sorted(expected)
        self.found = found

    def __str__(self):
        exp = ", ".join(self.expected)
        loc = "line %d col %d" % (self.line, self.col)
        if exp:
            return "%s at %s (expected %s)" % (self.message, loc, exp)
        return "%s at %s" % (self.message, loc)
