"""Named coefficient/operator presets addressable from the CLI.

Public presets (printed by ``list-presets``):

  * ``scalar-linear-osc``     du = (-u + sin(t/eps)) dt + dW
  * ``scalar-holder-osc``     scalar drift sin(sqrt|u|) plus a sqrt delay
                              integral, multiplicative cos(sqrt|u|) noise
  * ``reaction-diffusion-delay``  Laplace(u) - u|u|^{q-2} with a delayed
                              Holder drift and diagonal additive noise
  * ``porous-media-sin``      Laplace(|u|^{q-2}u + u) with Holder drift and
                              rank-one multiplicative noise

Diagnostic configurations (not listed, addressable by name where a sweep
needs them): ``heat-deterministic`` and the deliberately broken
``broken-quadratic`` used by the falsifier tests.

Every builder returns through ``_preset``, which states the frame all presets
share once: xi_2 = 1, T = 1, the history weight ``H_WEIGHT`` and a start from
a constant history; xi_1 is 1 + 0.5 sin t unless a builder passes its own.
Constant derivations for the assumption profiles are recorded in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import (
    AssumptionProfile,
    CoefficientSet,
    DiffusionSpec,
    DriftSpec,
    Oscillator,
)
from .delay import ConstantTail, DelayMeasure, HistoryBuffer, MomentDivergenceError
from .spectral import PdeOperator, SpectralSpace

H_WEIGHT = 1.0  # history weight shared by the presets


@dataclass(frozen=True)
class Preset:
    name: str
    operator: PdeOperator
    coefficients: CoefficientSet
    initial: HistoryBuffer
    dt: float
    T: float
    k_w: int

    def __post_init__(self):
        # every h-admissible history has a finite delay integral only if each
        # (measure, power) pair has a finite exp_moment(power * h)
        cs, h = self.coefficients, self.initial.h
        gamma, drift = cs.profile.gamma, cs.drift
        for name, mu, power in (("profile.mu1", cs.profile.mu1, gamma + 1.0),
                                ("profile.mu2", cs.profile.mu2, 2.0 * gamma),
                                ("drift.delay_measure", drift.delay_measure,
                                 drift.delay_kernel_power)):
            if mu is None or power is None:
                continue
            try:
                mu.exp_moment(power * h)
            except MomentDivergenceError as exc:
                raise MomentDivergenceError(
                    f"preset {self.name}: {name} with power {power} at h = {h}: {exc}") from None


def _preset(name, *, operator, drift, diffusion, profile, start, dt, k_w=1,
            space=None, osc1=Oscillator.sinusoid(1.0, 0.5, 1.0)) -> Preset:
    """The frame every preset shares: xi_2 = 1, T = 1, and a constant history
    ``start`` in the weight-H_WEIGHT phase space."""
    cs = CoefficientSet(drift=drift, diffusion=diffusion, osc1=osc1,
                        osc2=Oscillator.constant(1.0), profile=profile, space=space)
    return Preset(name=name, operator=operator, coefficients=cs,
                  initial=HistoryBuffer.from_tail(H_WEIGHT, ConstantTail(start)),
                  dt=dt, T=1.0, k_w=k_w)


def _scalar_linear_osc() -> Preset:
    return _preset(
        "scalar-linear-osc",
        operator=PdeOperator("scalar_linear", a=1.0),
        drift=DriftSpec(constant=1.0),
        diffusion=DiffusionSpec(kind="scalar", gain=1.0),
        osc1=Oscillator.sinusoid(0.0, 1.0, 1.0),
        profile=AssumptionProfile(
            alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0, gamma=1.0,
            mu1=DelayMeasure.point_mass(), mu2=DelayMeasure.point_mass(),
            overrides={"growth_alpha1": 1.0, "growth_M": 1.5},
        ),
        start=np.array([0.0]), dt=2e-4,
    )


def _scalar_holder_osc() -> Preset:
    mu = DelayMeasure.exponential(H_WEIGHT)
    return _preset(
        "scalar-holder-osc",
        operator=PdeOperator("scalar_linear", a=1.0),
        drift=DriftSpec(pointwise="sin_sqrt_abs", delay_kernel_power=0.5,
                        delay_measure=mu),
        diffusion=DiffusionSpec(kind="scalar", pointwise="cos_sqrt_abs", gain=0.5),
        profile=AssumptionProfile(
            alpha1=1.0, alpha2=2.5, M=2.5, L_M=3.5, beta=1.0, gamma=0.5,
            mu1=mu, mu2=DelayMeasure.point_mass(),
            overrides={"growth_alpha1": 1.0, "growth_M": 3.0,
                       "h5_alpha1": 1.0, "h5_alpha2": 2.5},
        ),
        start=np.array([0.5]), dt=1e-3,
    )


def _reaction_diffusion_delay(k: int = 32) -> Preset:
    mu = DelayMeasure.exponential(H_WEIGHT)
    return _preset(
        "reaction-diffusion-delay",
        operator=PdeOperator("reaction_diffusion", q=3.0),
        drift=DriftSpec(pointwise="cos_sqrt_abs", delay_kernel_power=0.5,
                        delay_measure=mu),
        diffusion=DiffusionSpec(kind="diagonal", gain=0.3),
        profile=AssumptionProfile(
            alpha1=1.0, alpha2=2.5, M=2.6, L_M=3.5, beta=1.0, gamma=0.5,
            mu1=mu, mu2=mu,
            overrides={"growth_alpha1": 1.0, "growth_M": 3.0,
                       "h5_alpha1": 1.0, "h5_alpha2": 2.5,
                       "growthA_alpha1": 10.0, "growthA_M": 1.0,
                       "coercivity_alpha1": 1.0, "coercivity_alpha2": 0.0,
                       "coercivity_M": 1e-9},
        ),
        space=SpectralSpace(1.0, k),
        # smooth initial profile: 3 * projection of x(1-x)
        start=3.0 * np.array([4.0 * math.sqrt(2.0) / (i * math.pi) ** 3
                              if i % 2 else 0.0 for i in range(1, k + 1)]),
        dt=1e-3, k_w=k,
    )


def _porous_media_sin(k: int = 16) -> Preset:
    space = SpectralSpace(1.0, k)
    pm = DelayMeasure.point_mass()
    return _preset(
        "porous-media-sin",
        operator=PdeOperator("porous_media", q=3.0),
        drift=DriftSpec(pointwise="sin_sqrt_abs"),
        diffusion=DiffusionSpec(kind="pointwise_field", pointwise="cos_sqrt_abs",
                                gain=0.5),
        profile=AssumptionProfile(
            alpha1=1.0, alpha2=1.5, M=2.0, L_M=1.5, beta=1.0, gamma=0.5,
            mu1=pm, mu2=pm,
            overrides={"growth_alpha1": 1.0, "growth_M": 2.0,
                       "h5_alpha1": 1.0, "h5_alpha2": 1.5,
                       "growthA_alpha1": 3.0, "growthA_M": 1.0,
                       "coercivity_alpha1": 1.0, "coercivity_alpha2": 0.0,
                       "coercivity_M": 1e-9},
        ),
        space=space,
        start=0.5 * space.basis_vector(1), dt=1e-3,
    )


def _heat_deterministic(k: int = 8) -> Preset:
    space = SpectralSpace(1.0, k)
    return _preset(
        "heat-deterministic",
        operator=PdeOperator("pure_laplacian"),
        drift=DriftSpec(),
        diffusion=DiffusionSpec(kind="diagonal", gain=0.0),
        osc1=Oscillator.constant(1.0),
        profile=AssumptionProfile(
            alpha1=1.0, alpha2=0.0, M=1.0, L_M=1.0, beta=1.0, gamma=1.0,
            mu1=DelayMeasure.point_mass(), mu2=DelayMeasure.point_mass(),
        ),
        space=space,
        start=space.basis_vector(1), dt=2.5e-4,
    )


def _broken_quadratic() -> Preset:
    return _preset(
        "broken-quadratic",
        operator=PdeOperator("scalar_linear", a=1.0),
        drift=DriftSpec(seminorm_power=2.0, seminorm_gain=1.0),
        diffusion=DiffusionSpec(kind="scalar", gain=0.1),
        osc1=Oscillator.constant(1.0),
        profile=AssumptionProfile(
            alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0, gamma=1.0,
            mu1=DelayMeasure.point_mass(), mu2=DelayMeasure.point_mass(),
        ),
        start=np.array([0.0]), dt=1e-3,
    )


_BUILDERS = {
    "scalar-linear-osc": _scalar_linear_osc,
    "scalar-holder-osc": _scalar_holder_osc,
    "reaction-diffusion-delay": _reaction_diffusion_delay,
    "porous-media-sin": _porous_media_sin,
    "heat-deterministic": _heat_deterministic,
    "broken-quadratic": _broken_quadratic,
}
_FIELDS = {"reaction-diffusion-delay", "porous-media-sin", "heat-deterministic"}


def public_names() -> list[str]:
    return ["porous-media-sin", "reaction-diffusion-delay",
            "scalar-linear-osc", "scalar-holder-osc"]


def get_preset(name: str, k: int | None = None) -> Preset:
    """The named preset; ``k`` sets a field preset's mode count, None keeps
    its default, and a scalar preset takes none."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(_BUILDERS)}")
    if k is None:
        return _BUILDERS[name]()
    if name not in _FIELDS:
        raise ValueError(f"k = {k}: preset {name} is scalar and has no modes")
    if k < 1:
        raise ValueError(f"k = {k}: preset {name} needs at least 1 mode")
    return _BUILDERS[name](k)


def constant_xi(preset: Preset) -> Preset:
    """Degenerate twin of a preset: oscillators replaced by their means, so
    the fast system and the averaged system coincide exactly."""
    return replace(preset, coefficients=preset.coefficients.averaged(),
                   name=preset.name + "+constant-xi")
