"""Growth of free waves: norm growth envelopes and local energy decay.

The package computes the L2 norm of solutions of u_tt = Laplace(u) on
the line and the plane through exact Fourier multipliers, verifies the
proven two-sided growth envelopes (sqrt(t) in 1D, sqrt(log t) in 2D,
bounded for vanishing-mean data), and checks the virial identity chain
behind local energy decay, grid-free for centred 2D gaussian data and on
a periodic grid oracle otherwise.
"""

from .analysis import RateFit, fit_bounded, fit_loglinear, fit_power, model_select
from .bounds import BoundBreakdown, SandwichError, envelopes, sandwich_report
from .local_energy import LocalEnergyReport, local_energy_report
from .oracles import GridField, HorizonError, dalembert_l2, example_pair, grid_solve, verify_example
from .profiles import DataNorms, Profile, ProfileError, ProfilePair, moments
from .quadrature import QuadConfig, QuadratureError, integrate_oscillatory
from .spectral import NormCurve, energy, l2_norm, norm_curve

__version__ = "0.1.0"

__all__ = [
    "Profile",
    "ProfilePair",
    "ProfileError",
    "DataNorms",
    "moments",
    "QuadConfig",
    "QuadratureError",
    "integrate_oscillatory",
    "NormCurve",
    "l2_norm",
    "norm_curve",
    "energy",
    "BoundBreakdown",
    "SandwichError",
    "envelopes",
    "sandwich_report",
    "GridField",
    "HorizonError",
    "dalembert_l2",
    "grid_solve",
    "example_pair",
    "verify_example",
    "LocalEnergyReport",
    "local_energy_report",
    "RateFit",
    "fit_power",
    "fit_loglinear",
    "fit_bounded",
    "model_select",
    "__version__",
]
