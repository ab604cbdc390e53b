"""Per-region material data and the plane elasticity matrix.

Internal units: E in MPa, conductivity in W/(mm*K), lengths in mm,
temperatures in Celsius (only differences enter the physics).  Material
tables quoted in W/(m*K) must be divided by 1000 before construction;
``table_material`` does this for the config's ``[material]`` blocks and the
built-in benchmark cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AssemblyError


class Plane(Enum):
    STRESS = "stress"
    STRAIN = "strain"


@dataclass(frozen=True)
class MaterialProps:
    """Isotropic thermoelastic properties of one mesh region."""

    E: float                # Young's modulus, MPa
    nu: float               # Poisson ratio
    conductivity: float     # thermal conductivity, W/(mm*K)
    alpha: float            # coefficient of thermal expansion, 1/degC
    T0: float               # reference (stress-free) temperature, degC
    plane: Plane = Plane.STRESS

    def __post_init__(self):
        for name in ("E", "nu", "conductivity", "alpha", "T0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise AssemblyError(f"material {name} must be finite, got {value}")
        if not self.E > 0:
            raise AssemblyError(f"Young's modulus must be positive, got {self.E}")
        if not (0.0 <= self.nu < 0.5):
            raise AssemblyError(f"Poisson ratio must be in [0, 0.5), got {self.nu}")
        if not self.conductivity > 0:
            raise AssemblyError(f"conductivity must be positive, got {self.conductivity}")
        if self.alpha < 0:
            raise AssemblyError(f"thermal expansion must be non-negative, got {self.alpha}")


def table_material(E_MPa: float, nu: float, k_W_per_mK: float, alpha_per_C: float,
                   T0_C: float, plane: Plane) -> MaterialProps:
    """A material from the table units of a ``[material]`` block.

    Only the conductivity changes unit: W/(m*K) in, W/(mm*K) internally.
    """
    return MaterialProps(E=E_MPa, nu=nu, conductivity=k_W_per_mK / 1000.0,
                         alpha=alpha_per_C, T0=T0_C, plane=plane)


def elasticity_matrix(props: MaterialProps) -> np.ndarray:
    """3x3 elasticity matrix in Voigt order (xx, yy, xy), engineering shear."""
    e, nu = props.E, props.nu
    if props.plane == Plane.STRESS:
        f = e / (1.0 - nu * nu)
        return f * np.array([[1.0, nu, 0.0],
                             [nu, 1.0, 0.0],
                             [0.0, 0.0, 0.5 * (1.0 - nu)]])
    f = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return f * np.array([[1.0 - nu, nu, 0.0],
                         [nu, 1.0 - nu, 0.0],
                         [0.0, 0.0, 0.5 * (1.0 - 2.0 * nu)]])


def thermal_strain_voigt(props: MaterialProps, temperature: float) -> np.ndarray:
    """Voigt thermal strain alpha*(T - T0)*[1, 1, 0].

    Under plane strain the in-plane effective coefficient is (1+nu)*alpha,
    which accounts for the suppressed out-of-plane expansion.
    """
    coeff = props.alpha * (temperature - props.T0)
    if props.plane == Plane.STRAIN:
        coeff *= 1.0 + props.nu
    return np.array([coeff, coeff, 0.0])


@dataclass(frozen=True)
class MaterialArrays:
    """Material data of a block of elements, one row per element."""

    conductivity: np.ndarray   # (m,)
    D: np.ndarray              # (m, 3, 3) elasticity matrices
    alpha: np.ndarray          # (m,)
    T0: np.ndarray             # (m,)
    nu: np.ndarray             # (m,)
    plane_strain: np.ndarray   # (m,) bool

    def thermal_strain(self, temperature: np.ndarray) -> np.ndarray:
        """(m, 3) ``thermal_strain_voigt`` of each element at its temperature."""
        coeff = self.alpha * (temperature - self.T0)
        coeff = np.where(self.plane_strain, coeff * (1.0 + self.nu), coeff)
        return np.column_stack((coeff, coeff, np.zeros_like(coeff)))


def material_for(materials: dict[int, MaterialProps], region: int,
                 element_id: int | None = None) -> MaterialProps:
    """The material of ``region``; a missing one raises AssemblyError."""
    try:
        return materials[region]
    except KeyError:
        raise AssemblyError(f"no material defined for region {region}",
                            element_id=element_id) from None


def gather_materials(materials: dict[int, MaterialProps], regions: np.ndarray,
                     element_ids: np.ndarray) -> MaterialArrays:
    """Look each distinct region up once and spread its data over the elements.

    When regions are missing, the AssemblyError names the first element (in
    the given order) whose region has no material.
    """
    uniq, first, inverse = np.unique(regions, return_index=True, return_inverse=True)
    props = [None] * len(uniq)
    for k in np.argsort(first).tolist():      # in order of first use
        props[k] = material_for(materials, int(uniq[k]), int(element_ids[first[k]]))

    def spread(values) -> np.ndarray:
        return np.array(values, dtype=float)[inverse]

    return MaterialArrays(
        conductivity=spread([p.conductivity for p in props]),
        D=np.array([elasticity_matrix(p) for p in props]).reshape(-1, 3, 3)[inverse],
        alpha=spread([p.alpha for p in props]),
        T0=spread([p.T0 for p in props]),
        nu=spread([p.nu for p in props]),
        plane_strain=np.array([p.plane == Plane.STRAIN for p in props], dtype=bool)[inverse])
