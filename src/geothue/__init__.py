"""String rewriting over length-reducing and length-preserving rules.

The package studies Thue systems split into a reducing part and a
length-preserving part, with tooling for:

* confluence-style analysis of geodesic rewriting (``confluence``),
* equation-driven completion into that shape (``completion``),
* pregroups, their universal rewriting systems, and the translation
  back from triangular systems (``pregroup``, ``triangular``),
* constructions for right-angled Artin, Coxeter, amalgam, and HNN
  presentations over finite groups (``groups``, ``builders``),
* brute-force reference semantics used to validate all of the above
  (``oracle``), and a command line front end (``cli``).

Words are tuples of letter ids managed by an :class:`Alphabet`.
"""

from .errors import (AlphabetError, FormatError, GeothueError,
                     PreconditionError, ResourceLimitError, StructureError)
from .words import EMPTY, Alphabet, Word, lenlex_key
from .systems import (Rule, RuleKind, RewriteSystem, format_system,
                      load_system, parse_rule_pairs, parse_system,
                      preserving, reducing, save_system)
from .rewriting import (apply_rule, dehn_wp, is_irreducible, redexes,
                        reduce_lr, reduce_lr_trace, reduce_random,
                        successors, thue_resolution)
from .weights import (WeightResult, WeightStatus, is_weight_reducing,
                      weight_assignment, word_weight)
from .confluence import (CriticalPair, FailedPair, GpVerdict, OverlapKind,
                         check_geodesically_perfect, critical_pairs,
                         descendant_closure, geodesics_of, iter_critical_pairs,
                         preperfect_wp, sp_equivalent)
from .completion import (CompletionResult, CompletionStatus, PhaseStats,
                         Resolution, ResolutionAction, kb_complete,
                         resolve_pair)
from .pregroup import (AxiomCheck, AxiomReport, Pregroup, check_axioms,
                       format_pregroup, interleave_equivalent, is_reduced,
                       load_pregroup, p_reduce, parse_pregroup, save_pregroup,
                       table_isomorphic, universal_system,
                       universal_system_prime, up_wp)
from .triangular import (LetterClasses, TriangularKind, classify_triangular,
                         letter_classes, pregroup_from_system, reducing_part)
from .groups import (FiniteGroup, GroupIso, SubgroupEmbedding, coset_decompose,
                     cyclic_group, format_group, format_map, parse_group,
                     parse_map, save_group, symmetric_group, transversal)
from .builders import (AmalgamData, CommutationGraph, CoxeterMatrix, HnnData,
                       RuleProgram, build_amalgam_pregroup,
                       build_amalgam_system, build_britton_system,
                       build_graph_group, build_hnn_pregroup,
                       build_hnn_system, build_tits_system, example_amalgam,
                       example_hnn, format_rule_program, parse_rule_program)
from .oracle import (ClassClosure, GeodesicCheck, GeodesicCheckStatus,
                     QuotientCount, WpVerdict, class_closure, class_partition,
                     enumerate_quotient, geodesic_bounded_check,
                     oracle_geodesics, oracle_wp, replay_path)

__version__ = "0.1.0"
