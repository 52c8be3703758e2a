"""Exception taxonomy shared across the package."""


class TwotimeError(Exception):
    """Base class for all package-specific failures."""


class CutoffTooSmallError(TwotimeError):
    """Fock truncation cannot represent the requested state or evolution."""


class InvalidStateError(TwotimeError):
    """A density matrix violates hermiticity/positivity/trace contracts."""


class InstabilityError(TwotimeError):
    """Coefficients overflow double precision, leave the normalizable-Gaussian regime or
    drown in roundoff."""


class ZeroDenominatorError(TwotimeError):
    """Correlation normalization undefined (mean photon number ~ 0)."""


class NonIntegrableError(TwotimeError):
    """Gaussian exponent of an integrand is not negative definite."""


class QuadratureDimensionError(TwotimeError):
    """Tensor quadrature requested for an integrand shape it does not serve."""


class LMaxInsufficientError(TwotimeError):
    """Normal-order expansion order too small for the state's Fock support."""


class MeasureConventionError(TwotimeError):
    """Phase-space self-test failed; an integral likely carries a wrong pi factor."""


class SelfCheckError(TwotimeError):
    """A runtime consistency check on computed results failed; the wiring is broken."""


class ScenarioSchemaError(TwotimeError):
    """Scenario file is syntactically malformed or has invalid values."""


class ScenarioSemanticError(TwotimeError):
    """Scenario file is well-formed but internally inconsistent."""


class VarianceWarning(UserWarning):
    """Monte Carlo relative standard error exceeded its comfort threshold."""


class CutoffWarning(UserWarning):
    """Coherent amplitude close to the truncation edge; results may degrade."""
