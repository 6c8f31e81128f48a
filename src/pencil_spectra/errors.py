"""Exception hierarchy for the package."""


class PencilSpectraError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInputError(PencilSpectraError):
    """Input degenerate for the requested operation (e.g. the zero polynomial)."""


class SingularityError(PencilSpectraError):
    """Evaluation of a dielectric model at (or too close to) one of its poles."""

    def __init__(self, omega, pole):
        self.omega = omega
        self.pole = pole
        super().__init__(f"omega={omega} hits the pole {pole} of the dielectric model")


class UnsupportedModelError(PencilSpectraError):
    """Global set computation requested for a non-rational (black-box) model."""


class PreconditionError(PencilSpectraError):
    """A documented operation precondition is violated."""


class DegenerateDispersionError(PencilSpectraError):
    """Dispersion relation evaluated where the two responses cancel."""


class SpectralPointError(PencilSpectraError):
    """Resolvent solve requested at a point of the spectrum."""


class ConfigError(PencilSpectraError):
    """Material config file cannot be parsed; the message names the offending key."""
