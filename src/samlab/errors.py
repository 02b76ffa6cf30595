"""Exception types shared across the package.

Every failure mode that callers are expected to handle has its own class so
that tests and the CLI can map errors to exit codes without string matching.
"""


class SamlabError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteLoss(SamlabError):
    """A loss, gradient, or derivative query produced NaN or Inf."""


class NonFiniteState(SamlabError):
    """An integrator state or a probe's error left the finite range."""


class ZeroDirection(SamlabError):
    """A direction vector with zero norm was passed where one is required."""


class ZeroIterate(SamlabError):
    """Power iteration hit a numerically zero iterate (||Hv|| below 1e-300)."""


class DegenerateVector(SamlabError):
    """A vector that must be nonzero (or unit) failed that requirement."""


class GapViolated(SamlabError):
    """Top two eigenvalues coincide where a positive spectral gap is assumed."""


class DomainError(SamlabError):
    """A closed-form evaluator received inputs outside its domain."""


class ConfigError(SamlabError):
    """A run configuration is malformed (unknown key, bad value, missing input)."""


class EmptyDataset(SamlabError):
    """A batch was requested from a dataset with no rows."""


class BadMagic(SamlabError):
    """An IDX file does not start with the expected magic number."""


class TruncatedFile(SamlabError):
    """An IDX file is shorter than its header promises."""


class CountMismatch(SamlabError):
    """Image and label files disagree on the number of records."""
