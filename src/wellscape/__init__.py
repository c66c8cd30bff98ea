"""Numerical laboratory for well-depth microstructure energies on [0,L]x[0,1]."""

from .bounds import (BandEmpty, BoundReport, DegenerateInterval, PqRegion,
                     estimate_interp_constant, killerinterp_check,
                     lemma1_check, load_calibration, obstacle_min_1d,
                     obstacle_qp_oracle, poincare_check, pq_region,
                     proportional_band, reports_to_csv, theorem2_bounds,
                     wopper_check)
from .constructions import (BranchedSpec, BumpSpec, PotentialSpec,
                            ResolutionTooCoarse, branched_seed, convolution_oracle,
                            nucleation_bump, potential_seed, quintic_smoothstep_cutoff)
from .energy import (BSetGeometry, EmptyB, EmptyPiM, EnergyBreakdown,
                     EnergyParams, NotAdmissible, TauOne, TruncatedBSet,
                     ZeroSmoothing, b_geometry, energy, energy_gradient,
                     energy_smoothed, require_admissible, truncate_b)
from .grid import (Grid, InvalidGrid, ScalarField, d_x, d_xx, d_xy, d_y, d_yy,
                   field_from_function, integrate, l2_norm, make_grid,
                   read_field, write_field, zero_field)
from .landscape import (BracketNotFound, CriticalDeltaResult, Diverged,
                        MinimizeConfig, MinimizeResult, PortfolioShrunk,
                        ProbeReport, ScalingFit, critical_delta, fit_power_law,
                        local_minimality_probe, minimize, multistart_portfolio,
                        random_admissible, scaling_sweep)

__version__ = "0.1.0"
