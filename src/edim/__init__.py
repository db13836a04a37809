"""edim: certified essential-dimension bounds for finite groups.

The package has three layers:

- exact arithmetic: ``exactfield`` (Q and F_{p^k}), ``ratfunc``
  (multivariate rational functions);
- symbolic constructions: ``crossratio`` (the S_n action on cross-ratio
  fields), ``tschirnhaus`` (parameter-reducing polynomial transformations),
  ``pgl2`` (exhaustive PGL_2(F_q) computations);
- inference: ``fielddesc`` (decidable field descriptors), ``groups``
  (group expressions and certificates), ``edengine`` (the rule engine
  behind ``bound``), ``cli`` (the ``edim`` command).
"""

from .errors import EdimError
from .exactfield import FqContext, FqElement, Rational, fq_context, is_prime
from .fielddesc import (INF, NO, UNKNOWN, YES, Custom, Cyclotomic,
                        FiniteField, RationalField, TriBool, char_of,
                        contains_real_zeta, contains_zeta, extend_with_zeta,
                        finite_field_from_q, fp_dimension)
from .groups import (Alt, Cyc, Dih, ElemAb, Embedding, GroupExpr, PermGroup,
                     Product, Sym, element_orders, embedding_certificate,
                     expr_order, realize)
from .ratfunc import QQ, MultiPoly, RatFn, render
from .crossratio import (CRSymbol, apply_action, check_rewrite, cr_define,
                         cr_rewrite, generator_symbol, sn_action,
                         verify_faithful)
from .tschirnhaus import (GeneralPoly, InvertRoot, ScaleRoots, Shift,
                          TransformRecord, general_poly, parameter_count,
                          reduce_general, verify_specialization)
from .pgl2 import (Mat2, PGL2Element, dn_representation, dp_representation,
                   elemab_representation, order_census, pgl2_embeds,
                   pgl2_enumerate, pgl2_order, trace_invariant)
from .edengine import (BoundInterval, RuleCatalog, TraceNode, bound,
                       check_thm46, dn_criterion, replay_trace, trace_json)
from .cli import parse_field, parse_group
# No module imports ``unipoly`` (univariate factoring over F_q, used by the
# tests' oracles); perfbench/tracer.py looks up its factoring functions in
# sys.modules and fails without it.  Delete with those tracer targets.
from . import unipoly  # noqa: F401

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
