"""Decoherence of a qubit plugged into a semi-infinite xx spin-1/2 chain.

The central quantity is the auto-fidelity alpha0(t), the overlap of the
evolved site-0 operator with its initial self.  It is computed by three
independent routes that must agree: an exact-rational power series over
lattice-walk counts, a Chebyshev expansion of a truncated
tridiagonal propagator, and Bessel closed forms at special coupling
ratios.  On top of alpha0 sit the qubit-level experiments: the reduced
channel, the exponentiality metric, inflection analysis, the magnetized
Bloch trace, the two-qubit singlet witness, and the finite-frequency
recurrence demo.
"""

__version__ = "0.1.0"

from .channels import (
    BlochVector,
    ChiScan,
    WitnessTrace,
    apply_channel,
    chi_metric,
    chi_scan,
    inflection_point,
    magnetized_bloch_trace,
    recurrence_demo,
    singlet_witness,
)
from .closed_forms import (
    SpecialCase,
    alpha_closed,
    bessel_j0,
    bessel_j1,
    classify_couplings,
    envelope_exponent,
)
from .propagator import (
    AlphaTrace,
    ChainSpec,
    ChebyshevAlpha,
    EigensolverError,
    SpectralAlpha,
    alpha_trace,
    build_generator,
    choose_chain_length,
    truncation_bound,
    truncation_gap,
)
from .series import (
    SeriesCoefficients,
    alpha_z,
    build_series,
    evaluate_series,
    hypergeometric_coefficient,
    series_coefficient,
)
from .walks import catalan, enumerate_walks, walk_count, walk_row

__all__ = [
    "AlphaTrace",
    "BlochVector",
    "ChainSpec",
    "ChebyshevAlpha",
    "ChiScan",
    "EigensolverError",
    "SeriesCoefficients",
    "SpecialCase",
    "SpectralAlpha",
    "WitnessTrace",
    "alpha_closed",
    "alpha_trace",
    "alpha_z",
    "apply_channel",
    "bessel_j0",
    "bessel_j1",
    "build_generator",
    "build_series",
    "catalan",
    "chi_metric",
    "chi_scan",
    "choose_chain_length",
    "classify_couplings",
    "enumerate_walks",
    "envelope_exponent",
    "evaluate_series",
    "hypergeometric_coefficient",
    "inflection_point",
    "magnetized_bloch_trace",
    "recurrence_demo",
    "series_coefficient",
    "singlet_witness",
    "truncation_bound",
    "truncation_gap",
    "walk_count",
    "walk_row",
]
