"""Foliated structure on a local leaf space: leaf volume and mean curvature.

A foliated manifold enters the computations only through its local quotient
chart together with the leaf dimension p and the leaf-volume profile
vol_L > 0.  The basic mean-curvature form is tied to the profile by
kappa_B = -d log vol_L, so that d vol_L + vol_L kappa_B = 0 holds exactly
whenever the closed-form logarithmic derivative is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, parameter_errors

__all__ = ["FoliatedStructure", "named_profile"]


@dataclass(frozen=True)
class FoliatedStructure:
    """Leaf dimension plus leaf-volume profile over the chart.

    ``vol`` maps chart points (..., q) to positive scalars (...,).
    ``dlog_vol``, when supplied, is the closed-form gradient of log(vol)
    as a covector field (..., q); the mean-curvature form is its negative.
    """

    leaf_dimension: int
    vol: Callable[[np.ndarray], np.ndarray]
    dlog_vol: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.leaf_dimension < 0:
            raise ConfigurationError(
                f"leaf_dimension: must be >= 0, got {self.leaf_dimension}"
            )

    @property
    def has_closed_form_kappa(self) -> bool:
        return self.dlog_vol is not None

    def vol_at(self, points: np.ndarray) -> np.ndarray:
        v = np.asarray(self.vol(np.asarray(points, dtype=float)), dtype=float)
        if np.any(v <= 0):
            raise ConfigurationError("vol profile: nonpositive sample encountered")
        return v

    def kappa_closed_form(self, points: np.ndarray) -> np.ndarray:
        """Mean-curvature covector -d log vol at chart points (closed form)."""
        if self.dlog_vol is None:
            raise ConfigurationError("no closed-form derivative for this profile")
        return -np.asarray(self.dlog_vol(np.asarray(points, dtype=float)), dtype=float)

    @staticmethod
    def trivial(leaf_dimension: int = 0) -> "FoliatedStructure":
        """Minimal foliation: vol_L = 1, kappa_B = 0."""
        return FoliatedStructure(
            leaf_dimension=leaf_dimension,
            vol=lambda b: np.ones(np.asarray(b).shape[:-1]),
            dlog_vol=lambda b: np.zeros(np.asarray(b).shape),
        )


def _coordinate(b, axis: int) -> np.ndarray:
    """Chart coordinate ``axis`` of the points b (..., q)."""
    b = np.asarray(b, dtype=float)
    if not 0 <= axis < b.shape[-1]:
        raise ConfigurationError(
            f"axis: {axis} is not an axis of the {b.shape[-1]}-dimensional chart"
        )
    return b[..., axis]


def _axis_profile(leaf_dimension: int, axis: int, vol, dlog) -> FoliatedStructure:
    """The profile vol(b_axis), whose d log vol is dlog(b_axis) on that axis."""

    def dlog_vol(b):
        out = np.zeros(np.shape(b))
        out[..., axis] = dlog(_coordinate(b, axis))
        return out

    return FoliatedStructure(leaf_dimension, lambda b: vol(_coordinate(b, axis)), dlog_vol)


def named_profile(name: str, leaf_dimension: int, params: dict | None = None
                  ) -> FoliatedStructure:
    """Named leaf-volume profiles available from experiment configs.

    * ``constant``      vol = 1
    * ``cosine_offset`` vol = c + cos(b_axis), params: offset c (default 2),
                        axis (default 0)
    * ``warped_sine``   vol = exp(p * amp * sin(b_axis)), params: amplitude
                        (default 0.1), axis (default 0)

    A profile evaluated at points of a chart that has no coordinate
    ``axis`` raises ``ConfigurationError``.
    """
    params = dict(params or {})
    with parameter_errors(f"profile {name}"):
        axis = params.pop("axis", 0)
        if axis != int(axis):
            raise ValueError(f"axis {axis!r} is not an integer")
        axis = int(axis)
        if name == "constant":
            struct = FoliatedStructure.trivial(leaf_dimension)
        elif name == "cosine_offset":
            c = float(params.pop("offset", 2.0))
            if c <= 1.0:
                raise ConfigurationError(f"offset: must exceed 1 for positivity, got {c}")
            struct = _axis_profile(leaf_dimension, axis, lambda x: c + np.cos(x),
                                   lambda x: -np.sin(x) / (c + np.cos(x)))
        elif name == "warped_sine":
            pa = leaf_dimension * float(params.pop("amplitude", 0.1))
            struct = _axis_profile(leaf_dimension, axis, lambda x: np.exp(pa * np.sin(x)),
                                   lambda x: pa * np.cos(x))
        else:
            raise ConfigurationError(f"profile: unknown name {name!r}")
        if params:
            raise ConfigurationError(f"profile {name}: unknown params {params}")
        return struct
