"""qmlab: a numerical laboratory for quasi-morphism invariants.

Modules
-------
harness     generic homogenization / defect machinery for quasi-morphisms
symplectic  Lagrangian det^2 winding and the Sp universal-cover invariant
reeb        Reeb graphs of PL Morse functions on closed surfaces
meshes      hand-built genus-g test surfaces with a height Morse function
hamflow     Hamiltonian flows on balls: Calabi, Birkhoff, tau, ball restriction
hypgeo      Poincare-disk geometry and the angle / surface-invariant estimators
cli         batch experiment front end (``qmlab <kind> --spec file.json``)
"""

from .errors import (DegenerateSaddleError, IntegrationError, InvariantError,
                     NumericalError, QmlabError, RefinePathError, ValidationError)
from .harness import (DefectEstimate, HomogenizationResult, QmEvaluator,
                      estimate_defect, homogenize)
from .symplectic import (LagrangianFrame, PhiEvaluator, SpPath, WindingValue,
                         check_symplectic, concat_power, coordinate_lagrangian,
                         full_rotation_loop, lagrangian_det2, path_compose,
                         path_inverse, phi_homog, phi_lag, random_lagrangian,
                         random_sp_path, rotation_path,
                         transversality_winding_check, winding)
from .reeb import (GraphHamiltonian, MorseField, ReebEdge, ReebGraph, ReebNode,
                   SurfaceMesh, build_reeb, classify_vertices, graph_integral,
                   prune, random_morse_field, read_morse_csv, read_off,
                   theorem2_value, trivalent_vertices, write_off)
from .meshes import (genus2_mesh, genus3_mesh, genus_chain_mesh, height_field,
                     sphere_mesh, torus_mesh)
from .hamflow import (BirkhoffResult, BumpField, FlowMap, HamiltonianScenario,
                      HyperbolicForm, PolyBumpField, QuadratureRule,
                      RadialField, SRestrictionResult, StandardForm,
                      SumField, TauResult, TimeProfile,
                      birkhoff_average, calabi, concat_scenarios,
                      conjugate_scenario, integrate_flow, jacobian_path,
                      s_restriction_value, scenario_from_json, scenario_to_json,
                      sum_scenarios, tau_ball)
from .hypgeo import (CalSResult, CirclePath, DiskIsotopy, GgResult, OneForm,
                     UnitDirection, angle_estimate, cal_s_estimate,
                     circle_index, concat_circle_paths, fiber_index_spread,
                     geodesic_endpoint, geodesic_line_integral,
                     gg_quasimorphism_estimate, gg_u, hyperbolic_distance,
                     isotopy_from_json, isotopy_to_json,
                     parallel_transport_rate, theta_lift)

__version__ = "0.1.0"
