"""Exception types shared across the package.

Each type carries the CLI's exit code and the stderr prefix (``kind``) of its
category: 2 "config error", 3 "numerical/channel error" (the default),
4 "bound precondition error".
"""


class XtalkError(Exception):
    """Base class for all xtalk-quant errors.

    ``tone`` is the index of the offending tone when one tone is at fault
    (a channel-file record, a channel or precoder matrix, a trial's
    resampling), else -1.
    """

    exit_code = 3
    kind = "numerical/channel error"

    def __init__(self, message: str = "", tone: int = -1):
        super().__init__(message)
        self.tone = tone


class ConfigError(XtalkError):
    """A parameter, scenario or input file the user must fix."""

    exit_code = 2
    kind = "config error"


class BoundError(XtalkError):
    """A closed-form bound's precondition does not hold."""

    exit_code = 4
    kind = "bound precondition error"


class InvalidParams(ConfigError):
    """A parameter is non-finite, out of range, or inconsistent."""


class InvalidBudget(ConfigError):
    """A link-budget field is unusable (bad PSD shape, nonpositive noise, ...)."""


class ParseError(ConfigError):
    """A channel or config file could not be parsed (``tone`` is -1 for
    header-level problems)."""


class SingularDiagonal(XtalkError):
    """A channel matrix has a zero diagonal entry."""


class InsufficientData(ConfigError):
    """Not enough tones/points to perform a fit."""


class SingularChannel(XtalkError):
    """A linear system involving the channel is numerically singular."""


class RangeError(XtalkError):
    """A precoder entry lies outside the unit box assumed by the quantizer."""


class NumericalError(XtalkError):
    """An internal consistency check failed (should never happen on finite input)."""


class BoundInapplicable(BoundError):
    """A closed-form bound was evaluated outside its validity region."""


class BitDepthTooSmall(BoundError):
    """Word length below the admissibility floor of the per-tone bound.

    ``min_bits`` is the smallest admissible (real-valued) word length.
    """

    def __init__(self, message: str, min_bits: float):
        super().__init__(message)
        self.min_bits = min_bits


class FloorNonpositive(BoundError):
    """The closed-form spectral-efficiency floor is nonpositive.

    Relative-loss bounds built on the floor are inapplicable in this regime.
    """


class TargetUnreachable(XtalkError):
    """No word length within the searched range meets the requested target."""
