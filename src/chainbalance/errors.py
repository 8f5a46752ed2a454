"""Exception types shared across the toolkit.

Errors split into two families: configuration problems (bad method names,
invalid ensemble parameters) and data problems (unparseable files, degenerate
inputs). The CLI maps them to distinct exit codes.
"""


class ChainbalanceError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ChainbalanceError, ValueError):
    """Invalid configuration value or flag combination.

    Also a ValueError, the usual type for an out-of-range argument, so the
    library's value checks can raise it and the CLI still exits 2 on them.
    """


class DataError(ChainbalanceError):
    """Base class for problems with input data."""


class MalformedArff(DataError):
    """ARFF header or data row that cannot be parsed."""


class MissingLabelAttribute(DataError):
    """The XML header names a label with no matching ARFF attribute."""


class NonBinaryLabel(DataError):
    """A label attribute whose values are not restricted to {0, 1}."""


class AllLabelsDegenerate(DataError):
    """Every label column holds a single class; nothing can be summarized."""


class SingleClassInput(DataError):
    """A binary training set with only one class where both are required."""


class SingleClassLabel(DataError):
    """A chained label with only one class in the training data."""


class ZeroMinorityCount(DataError):
    """A minority count of zero where a positive count is required."""


class ArityMismatch(ChainbalanceError):
    """Feature vector length differs from what a model was trained with."""


class LengthMismatch(ChainbalanceError):
    """Paired vectors (scores and truth) of different lengths."""
