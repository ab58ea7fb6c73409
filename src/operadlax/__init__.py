"""Endomorphism operads, Gerstenhaber brackets, and the isospectral
evolution of binary algebra structure constants driven by the harmonic
oscillator."""

from . import multilinear, operad, operadic_lax, oscillator
from .multilinear import *  # noqa: F401,F403
from .operad import *  # noqa: F401,F403
from .operadic_lax import *  # noqa: F401,F403
from .oscillator import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = multilinear.__all__ + operad.__all__ + oscillator.__all__ + operadic_lax.__all__
