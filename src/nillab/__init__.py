"""nillab: numerical laboratory for nilmanifold dynamics.

Coordinate arithmetic in nilpotent groups, the induced metrics on their
compact quotients, a zoo of minimal systems (rotations, nilsystems, Sturmian
subshifts, full shifts, skew products, inverse-limit towers), dynamical-cube
witness searches, finite-IP independence checking, Birkhoff-average
experiments and topological-complexity estimation.
"""

from .arcs import ArcUnion, cut_midpoints
from .averages import (AverageTrace, birkhoff, coordinate, coordinate_cos,
                       geometric_grid, oscillation_contrast,
                       unique_ergodicity_probe)
from .budgets import DEFAULT_BUDGET, SearchBudget
from .complexity import (ComplexityCurve, Cover, classify_growth,
                         complexity_curve, cover_complexity,
                         inverse_limit_complexity_bound, shadowing_net)
from .cubes import (Cube, FaceMove, RPWitness, apply_face, cube_criterion,
                    rp_test, sample_cube, validate_rp_witness, vertex_set)
from .furstenberg import (coboundary_residual, furstenberg_point,
                          liouville_recipe, make_default_furstenberg,
                          make_furstenberg, validate_resonances)
from .independence import (IndependenceReport, IPSet, SetTuple,
                           check_independence, find_ip_independence, fs_set,
                           independence_ladder, sturmian_language)
from .nilgroup import (GroupElement, GroupLawError, NilGroup, abelian, element,
                       factorize, heisenberg3, identity, inv, load_group, mul,
                       named_group, power, power_sequence, psi_norm,
                       validate_group)
from .nilmetric import (BudgetError, MetricParams, QuotientPoint, dist_group,
                        dist_quotient, orbit_distance_growth, quotient_point)
from .systems import (CircleCoding, GridError, SymbolicWindow, SystemHandle,
                      approx_rational, make_fullshift, make_inverse_limit,
                      make_nilsystem, make_rotation, make_skew_product,
                      make_sturmian, product_grid, sample_points,
                      sturmian_code, sturmian_coding, wrap_dist_block)
from .targets import Ball, Cylinder, CylinderUnion

__version__ = "0.1.0"
