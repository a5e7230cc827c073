"""Model checking for the intuitionistic modal logics IK and MK.

The package covers propositional Kripke models, birelational models with
the F1-F4 frame conditions, families of models joined by an accessibility
relation (partial and homogeneous models), the flattening map between the
two pictures, layered (higher-level) Kripke models, and bounded countermodel
search with a model-file front end.
"""

from .formulas import (Atom, BOTTOM, Bottom, And, Or, Implies, Box, Diamond,
                       Formula, Not, TOP, ParseError, parse, render,
                       complexity, subformulas)
from .kripke import (Frame, PropModel, build_frame, build_prop_model,
                     forces, entails, model_valid, is_partial_copy,
                     upward_restrict, ModelError, HeredityError,
                     UnknownWorldError)
from .birelational import (BirelationalModel, ConditionReport, check_condition,
                           classify, forces_ik, forces_mk, entails_ik,
                           entails_mk, valid_ik, valid_mk)
from .general import (GeneralModel, PartialModel, HomogeneousModel,
                      general_model, as_partial, as_homogeneous,
                      validate_partial, validate_homogeneous,
                      forces_partial, forces_homogeneous,
                      entails_partial, entails_homogeneous,
                      valid_at_submodel, valid_in_model, modular_mk_evaluate)
from .flatten import FlatWorld, flatten, verify_flatten_class, equivalence_report
from .higher import (HigherOrderModel, lift, evaluate, is_unirelational,
                     wrap_prop_model, from_birelational)
from .search import SearchBounds, SearchOutcome, enumerate_models, find_countermodel

__version__ = "0.1.0"
