"""liftfix: exact lifting and fixing-region certificates for cut-generating
functions derived from lattice-free polyhedra.

All computation is exact rational arithmetic; every numeric claim in a
certificate can be re-verified independently.
"""

__version__ = "0.1.0"

from .errors import LiftfixError
from .exactgeo import HPoly, Polygon2, area, clip, slice_polygon, vertices_from_rows
from .gauge import Budget, Gauge, LiftCert, check_sfree, lifting_cone, psi_eval, v_psi, v_psi_geometric, v_seq, phi_eval, psi_star_eval
from .lattice import Lattice, TranslationGroup, contains, points_in, translation_group
from .fixing import FixApprox, CoverCert, Spindle, collision_check, cover_certify, fix_approx, slice_property_check, spindle, tki_map, translate_instance
from .type3 import (
    Pyramid,
    TiltResult,
    Type3Triangle,
    claim_check,
    figure_points,
    fixed_ball,
    one_point_fixable,
    pyramid,
    split_cover_certify,
    tilt,
    triangle_from_gammas,
    triangle_from_mixing,
)
