"""One integer check for every scalar integer parameter (`errors.integer`).

A float or a numeric string is refused by a ValueError that names the
parameter; a numpy integer gives the same result as a Python int.
"""

import ast
import json
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest

import repzeta
from repzeta.bounds import (
    isotropic_abscissa_audit,
    isotropic_case_bound,
    slm_class_growth_bound,
    unified_isotropic_bound,
)
from repzeta.census import DegreeCensus, check_exact_exponent
from repzeta.cli import main
from repzeta.errors import integer
from repzeta.euler import EulerProductConfig, divergence_probe, sandwich_check
from repzeta.finitequotients import QuotientRing, build_sl2_group, class_growth_exponents
from repzeta.rootsystems import build_root_system, coxeter_number, positive_root_count
from repzeta.sl2local import (
    sl1_division_abscissa,
    sl2_class_count,
    sl2_degree_census,
    sl2_group_order,
    sl2_local_excess,
    sl2_local_zeta,
)
from repzeta.symalt import (
    alt_degree_census,
    alt_zeta_exact,
    partitions,
    sym_degree_census,
    wreath_log_order,
    wreath_tower_conditions,
)
from repzeta.witten import dimension_census

A1 = build_root_system("A", 1)


def _ring(p, k):
    ring = QuotientRing(p, k)
    return ring.label(), ring.p, ring.k, ring.size


# (parameter name as the error names it, a call of the value, an integer it accepts)
ROUTED = [
    ("m", lambda v: slm_class_growth_bound(v, 1), 6),
    ("d", lambda v: slm_class_growth_bound(3, v), 2),
    ("m", lambda v: isotropic_case_bound("a", v, 1), 4),
    ("d", lambda v: isotropic_case_bound("a", 2, v), 3),
    ("index x", lambda v: isotropic_case_bound("b", v), 5),
    ("index x", unified_isotropic_bound, 7),
    ("x_max", lambda v: isotropic_abscissa_audit(v, 12), 12),
    ("md_max", lambda v: isotropic_abscissa_audit(12, v), 12),
    ("q", lambda v: sl2_local_zeta(v, 3.0), 5),
    ("q", lambda v: sl2_local_excess(v, 2.5), 9),
    ("q", lambda v: sl2_degree_census(v, 2), 5),
    ("level k", lambda v: sl2_degree_census(5, v), 3),
    ("level k", lambda v: sl2_class_count(3, v), 4),
    ("q", lambda v: sl2_group_order(v, 2), 7),
    ("division algebra degree", sl1_division_abscissa, 3),
    ("p", lambda v: _ring(v, 2), 5),
    ("k", lambda v: _ring(5, v), 2),
    ("q", lambda v: class_growth_exponents({1: 8, 2: 30}, v), 5),
    ("rank", lambda v: build_root_system("A", v), 2),
    ("rank", lambda v: coxeter_number("E", v), 8),
    ("rank", lambda v: positive_root_count("B", v), 3),
    ("max_dim", lambda v: dimension_census(A1, v), 100),
    ("max_entries", lambda v: dimension_census(A1, 100, max_entries=v), 1000),
    ("census cap", lambda v: DegreeCensus.from_counts({1: 1, 2: 3}, v), 10),
    ("prime bound", lambda v: EulerProductConfig(3.0, v), 100),
    ("archimedean exponent", lambda v: EulerProductConfig(3.0, 100, v), 1),
    ("prime bound", lambda v: divergence_probe(3.0, [v, 1000]), 100),
    ("prime bound", lambda v: divergence_probe(3.0, [100, v]), 1000),
    ("tower level r", lambda v: wreath_tower_conditions((5, 6, 7), v), 1),
    ("tower level j", lambda v: wreath_log_order((5, 6, 7), v), 1),
    ("partition size k", partitions, 6),
    ("partition size k", sym_degree_census, 7),
    ("alternating census k", alt_degree_census, 7),
    ("exact zeta exponent s", lambda v: alt_degree_census(6).zeta_exact(v), 2),
    ("exact zeta exponent s", lambda v: alt_zeta_exact(5, v), 1),
    ("max_order", lambda v: build_sl2_group(QuotientRing(3, 1), max_order=v).order, 24),
    ("q", lambda v: sandwich_check(v, 2.5), 5),
    ("degree", lambda v: DegreeCensus.from_counts({v: 1, 3: 2}, 10), 2),
    ("multiplicity", lambda v: DegreeCensus.from_counts({1: 1, 2: v}, 10), 3),
    ("level", lambda v: class_growth_exponents({v: 8, 2: 30}, 3), 1),
    ("class count", lambda v: class_growth_exponents({1: v}, 3), 7),
]


ROUTED_IDS = [f"{i}-{name}" for i, (name, _, _) in enumerate(ROUTED)]


@pytest.mark.parametrize("name,call,good", ROUTED, ids=ROUTED_IDS)
def test_routed_parameter_refuses_floats_and_strings_by_name(name, call, good):
    refusal = "^" + re.escape(name) + r"\b.*must be an integer, got "
    for bad in (float(good), good + 0.5, str(good)):
        with pytest.raises(ValueError, match=refusal):
            call(bad)


@pytest.mark.parametrize("name,call,good", ROUTED, ids=ROUTED_IDS)
def test_routed_parameter_takes_numpy_integers_as_python_ints(name, call, good):
    # repr tells an np.int64 that leaks into a result from the int it stands for
    expected = repr(call(good))
    for dtype in (np.int64, np.int32):
        assert repr(call(dtype(good))) == expected


def test_integer_formats():
    assert integer(np.int64(3), "n") == 3 and type(integer(np.int64(3), "n")) is int
    assert integer(True, "n") == 1
    with pytest.raises(ValueError, match=re.escape("n must be an integer, got 2.0")):
        integer(2.0, "n")
    with pytest.raises(ValueError, match=re.escape("n must be an integer, got '2'")):
        integer("2", "n")
    with pytest.raises(ValueError, match=re.escape("n must be >= 3, got 2")):
        integer(np.int64(2), "n", 3)
    assert integer(-5, "n") == -5


def test_divergence_probe_refuses_what_int_would_truncate_or_parse():
    with pytest.raises(ValueError, match="prime bound must be an integer, got 100.7"):
        divergence_probe(3.0, [100.7, 1000.2])
    with pytest.raises(ValueError, match="prime bound must be an integer, got '100'"):
        divergence_probe(3.0, ["100", "1000"])
    with pytest.raises(ValueError, match="prime bound must be >= 3, got 2"):
        divergence_probe(3.0, [2, 1000])


def test_fractional_inputs_that_used_to_run_are_refused():
    with pytest.raises(ValueError, match="k must be an integer, got 2.0"):
        QuotientRing(5, 2.0)
    with pytest.raises(ValueError, match="max_dim must be an integer, got 10.5"):
        dimension_census(A1, 10.5)
    with pytest.raises(ValueError, match="archimedean exponent must be an integer, got 0.5"):
        EulerProductConfig(3.0, 100, archimedean_exponent=0.5)


@pytest.mark.parametrize("call,name", [
    (lambda: sl2_degree_census(5.0, 2), "q"),
    (lambda: sl1_division_abscissa(2.5), "division algebra degree"),
    (lambda: wreath_tower_conditions((5, 6, 7), 1.0), "tower level r"),
    (lambda: alt_degree_census(7.5), "alternating census k"),
], ids=["sl2_degree_census", "sl1_division_abscissa", "wreath_tower_conditions",
        "alt_degree_census"])
def test_former_type_errors_are_value_errors_naming_the_parameter(call, name):
    with pytest.raises(ValueError, match=name + " must be an integer"):
        call()


def test_census_of_a_numpy_cap_is_json_serialisable():
    census = dimension_census(A1, np.int64(100))
    assert json.dumps(census.to_json_dict()) == json.dumps(dimension_census(A1, 100).to_json_dict())


def test_zeta_exact_takes_a_numpy_exponent_without_int64_overflow():
    census = alt_degree_census(28)
    assert check_exact_exponent(np.int64(2)) == 2
    assert census.zeta_exact(np.int64(2)) == census.zeta_exact(2)
    assert census.zeta_exact(np.int32(2)) == sum(
        (Fraction(m, d**2) for d, m in census.items()), Fraction(0))
    with pytest.raises(ValueError, match=r"use zeta\(s\)"):
        check_exact_exponent(-1)


def test_root_system_rank_is_checked_before_the_cache():
    warm = build_root_system("A", 2)
    with pytest.raises(ValueError, match="rank must be an integer, got 2.0"):
        build_root_system("A", 2.0)
    with pytest.raises(ValueError, match="rank must be an integer, got 13.0"):
        build_root_system("D", 13.0)  # a type no other test builds: a cold cache
    assert build_root_system("A", np.int64(2)) is warm
    assert type(build_root_system("C", np.int32(11)).rank) is int


def test_bad_schedule_token_is_named(capsys):
    assert main(["probe", "--s", "3", "--schedule", "100,1e3"]) == 2
    err = capsys.readouterr().err
    assert "--schedule" in err and "'1e3'" in err and "invalid literal" not in err


# operator.index belongs in `integer` and in the three validators of
# integer sequences, whose messages name the whole sequence
INDEX_ALLOWED = {
    "errors.py": None,
    "rootsystems.py": {"_check_weight"},
    "symalt.py": {"_check_partition", "_layer_sizes"},
}


def _operator_index_uses(tree):
    """(top-level definition or None, line) of each operator.index in a module."""
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "index"
                    and isinstance(node.value, ast.Name) and node.value.id == "operator"):
                yield where, node.lineno
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                yield where, node.lineno


def test_operator_index_only_in_the_integer_check_and_the_sequence_validators():
    package = pathlib.Path(repzeta.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        allowed = INDEX_ALLOWED.get(path.name, set())
        if allowed is None:
            continue
        for where, line in _operator_index_uses(ast.parse(path.read_text())):
            if where not in allowed:
                stray.append(f"{path.name}:{line} in {where}")
    assert not stray, "use errors.integer instead of operator.index at " + ", ".join(stray)
