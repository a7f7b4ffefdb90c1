"""Exact invariants of knotted surfaces from finite crossed modules.

The package compiles movie scripts of knotted surfaces into crossed-module
presentations of their complements and counts homomorphisms into finite
crossed modules, yielding an exact rational invariant.
"""
from .counting import (
    Assignment,
    CountReport,
    count_homomorphisms,
    count_homomorphisms_naive,
    count_linear_fastpath,
    count_report,
    evaluate_crossed_word,
    evaluate_free_word,
    invariant,
)
from .crossed import (
    FiniteCrossedModule,
    ValidationReport,
    build_central_quotient_crossed_module,
    build_conjugation_crossed_module,
    build_group_algebra_crossed_module,
    format_crossed_module_text,
    parse_crossed_module_text,
    validate_crossed_module,
)
from .fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from .groups import (
    FiniteGroup,
    build_cyclic_group,
    build_quaternion_group,
    build_symmetric_group,
)
from .movies import (
    MovieScript,
    compile_movie,
    parse_movie_script,
)
from .presentations import (
    CrossedPresentation,
    CrossedWord,
    boundary_of_crossed_word,
    format_presentation_text,
    parse_presentation_text,
    validate_presentation,
)
from .words import FreeWord, parse_word, reduce_free_word

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CountReport",
    "CrossedPresentation",
    "CrossedWord",
    "FIXTURE_NAMES",
    "FiniteCrossedModule",
    "FiniteGroup",
    "FreeWord",
    "MovieScript",
    "ValidationReport",
    "boundary_of_crossed_word",
    "build_central_quotient_crossed_module",
    "build_conjugation_crossed_module",
    "build_cyclic_group",
    "build_group_algebra_crossed_module",
    "build_quaternion_group",
    "build_symmetric_group",
    "compile_movie",
    "count_homomorphisms",
    "count_homomorphisms_naive",
    "count_linear_fastpath",
    "count_report",
    "evaluate_crossed_word",
    "evaluate_free_word",
    "fixture_text",
    "format_crossed_module_text",
    "format_presentation_text",
    "invariant",
    "load_fixture",
    "parse_crossed_module_text",
    "parse_movie_script",
    "parse_presentation_text",
    "parse_word",
    "reduce_free_word",
    "validate_crossed_module",
    "validate_presentation",
]
