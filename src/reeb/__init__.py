"""Graphs over the real line, their smoothings and interleavings."""

from __future__ import annotations

from .cosheaf import (EMPTY_INTERVAL, Cosheaf, CosheafMorphism, Interval,
                      RefinedCosheaf, check_gluing, display, evaluate,
                      expand, extend_map, intersect, interval,
                      interval_subset, is_cosheaf_iso, reeb_cosheaf,
                      refine_cosheaf, sigma_map, smooth_cosheaf,
                      validate_cosheaf, validate_cosheaf_morphism)
from .core import (RGraph, ReduceResult, RefineResult, ValidationReport,
                   build_rgraph, canonical_edge_name, canonical_vertex_name,
                   common_refinement, component_sets, empty_rgraph, fork,
                   line, loop, minimum_gap, num_components, point, reduce,
                   refine, validate)
from .dynconn import NaiveDynForest, RollbackUnionFind, make_forest
from .errors import (BudgetExceeded, ForestError, InternalError, ParseError,
                     ReebError, ValidationError)
from .fileio import (ComplexReeb, SimplicialField, emit_field, emit_morphism,
                     emit_rgraph, export_dot, parse_field, parse_morphism,
                     parse_rgraph, reeb_of_complex)
from .interleave import (Certificate, DistanceBracket, Refutation,
                         SearchOutcome, compose_certificates,
                         contract_certificate, distance_bracket,
                         finite_distance, lift_certificate,
                         quantified_iso_check,
                         search_certificate, self_certificate,
                         smoothing_certificate, stability_certificate,
                         verify_certificate, verify_refutation)
from .iso import is_isomorphic, levelwise_bijections
from .morphism import (NormalForm, RGraphMorphism, compose, identity,
                       invert_isomorphism, is_isomorphism,
                       levelwise_morphism, morphism_equal,
                       morphism_first_difference, normal_form, path_cell_at,
                       reduce_collapse, reduce_embed, refine_collapse,
                       refine_embed, shift_compose, smooth_morphism,
                       transport, validate_morphism)
from .randgen import (collision_free_epsilon, random_cosheaf, random_field,
                      random_rgraph, random_stability_pair)
from .rationals import as_rational, format_rational, parse_rational
from .smoothing import (ComposeResult, SmoothingResult, compose_smoothings,
                        smooth, smooth_naive, smooth_sweep)

__version__ = "0.1.0"
