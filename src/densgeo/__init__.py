"""densgeo: the spherical information geometry of densities.

Periodic grids with spectral calculus; densities and their square-root
images on the L² sphere; spherical-Hellinger / Fisher-Rao distances and
great-circle geodesics; closed-form solutions, blowup times, and numerical
flows of the generalized Hunter-Saxton equation; Moser lifts of prescribed
Jacobians; commuting conserved-quantity chains; the α-connection family on
circle densities; and a simplex toy model.
"""

from . import errors
from .circle import (
    AlphaConnection,
    a_inverse,
    alpha_one_explicit,
    alpha_one_residual,
    duality_residual,
    evolve_classic,
)
from .density import (
    Density,
    SpherePoint,
    density_from_values,
    normalize,
    sqrt_map,
    square_map,
    uniform_density,
)
from .grid import (
    PeriodicGrid,
    ScalarField,
    derivative,
    directional_derivative,
    divergence,
    gradient,
    integrate,
    l2_inner,
    laplacian_inverse,
    laplacian_inverse_gradient,
    mean,
    random_band_limited,
)
from .hsflow import (
    FlowMap,
    HsGeodesic,
    anchored_flow_1d,
    energy,
    equation_residual,
    eulerian_rho,
    evolve_density_global,
    flow_energy,
    great_circle,
    integrate_flow,
    jacobian_by_ode,
    jacobian_formula,
    map_jacobian,
    rho_along_flow,
    sphere_path,
    sphere_velocity,
)
from .invariants import (
    TruncatedSphereCoords,
    angular_momenta,
    chain_Hk,
    chain_Hproj,
    default_truncation,
    fourier_basis,
    poisson_bracket_check,
    project,
)
from .moser import invert_map, lift_flow, transport_map
from .simplex import (
    BOUNCE_TIME,
    SimplexPoint,
    affinity,
    embed,
    fisher_rao_distance,
    geodesic_probs,
)
from .spheregeo import (
    GeodesicPath,
    bhattacharyya,
    fisher_rao_inner,
    geodesic,
    h1dot_inner,
    heat_flow,
    hellinger_distance,
    spherical_distance,
)

__version__ = "0.1.0"
