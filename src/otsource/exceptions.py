"""Exception types shared across the package."""


class NonConvergence(RuntimeError):
    """solve's fixed-point residual is not finite, or cg_solve hit its cap.

    Carries the number of iterations performed and the last residual so
    callers can report or retune.
    """

    def __init__(self, message, iterations, residual):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class RootFindFailure(ArithmeticError):
    """Non-finite input (NaN or inf) reached the paraboloid kernel or the Huber prox."""


class UnsupportedFormat(ValueError):
    """Input file is neither a readable PGM nor a CSV matrix."""


class NegativeValue(ValueError):
    """Densities must be nonnegative."""


class EmptyImage(ValueError):
    """Input raster has no pixels."""
