"""Exact symbolic invariance checking for polynomial ODEs and
algebraic hybrid-program reductions."""

from .errors import (DimensionError, InputError, NonPolynomialError,
                     OdecertError, ResourceError)
from .polyarith import (GREVLEX, LEX, MonomialOrder, PolyMatrix, Polynomial,
                        VarTable, order_by_name)
from .odecore import (GhostSpec, OdeSystem, extend_with_ghosts,
                      fresh_ghost_names, higher_lie, lie_derivative,
                      liouville_check, reverse)
from .ideals import (GroebnerBasis, MembershipWitness, RankResult,
                     differential_radical, groebner, member_with_witness,
                     rank, reduce_mod)
from .semalg import (Atom, Conjunct, Formula, NormalForm, algebraic_combine,
                     eval_formula, progress_geq, progress_gt, radical_of_chain,
                     render_formula, reverse_chain, semialg_progress,
                     to_normal_form)
from .invariant import (Certificate, ChainRecord, DarbouxCert,
                        DischargeConfig, DischargeStatus, DriCert,
                        HpReductionCert, SaiCert, SideCondition, VdbxCert,
                        Verdict, check_algebraic_invariance,
                        check_certificate, check_semialgebraic_invariance,
                        discharge, dri_companion, find_darboux_cofactor,
                        find_vectorial_darboux, sai_side_conditions)
from .hpreduce import (Assign, Choice, HybridProgram, Ode, ReductionTrace,
                       Seq, Star, Test, reduce_box, render_program)
from .smtlib import SolverConfig, emit_smtlib, run_solver
from .parser import parse_formula, parse_ode, parse_program, parse_term
from .problemfile import ProblemFile, parse_problem
from .certio import certificate_from_json, certificate_to_json

__version__ = "0.1.0"
