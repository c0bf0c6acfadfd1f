import importlib
import itertools
from dataclasses import replace

import pytest

from illposed.classify import (
    Verdict,
    build_catalog_operator,
    build_operator,
    catalog,
    check_consistency,
    classify,
)
from illposed.directions import EnumerationParams, enumerate_directions
from illposed.operators import OperatorAttributes


def entry(label):
    return next(e for e in catalog() if e.label == label)


def test_mazur_classifies_type_one_hybrid():
    result = classify(entry("B").attributes)
    assert result.verdict is Verdict.TYPE_I
    assert result.hybrid is True
    assert any("hybrid" in line for line in result.rationale)


def test_identity_like_attrs_are_well_posed():
    attrs = OperatorAttributes(range_closed=True, nullspace_complemented=True)
    result = classify(attrs)
    assert result.verdict is Verdict.WELL_POSED
    assert result.hybrid is False


def test_embedding_attrs_are_type_two():
    assert classify(entry("E2p").attributes).verdict is Verdict.TYPE_II


def test_unknowns_yield_undecidable():
    assert (
        classify(OperatorAttributes(range_closed=True)).verdict
        is Verdict.UNDECIDABLE
    )
    assert (
        classify(
            OperatorAttributes(range_closed=False)
        ).verdict
        is Verdict.UNDECIDABLE
    )
    assert (
        classify(
            OperatorAttributes(range_closed=False, range_has_closed_infdim_subspace=False)
        ).verdict
        is Verdict.TYPE_II
    )


def _reference_verdict(rc, comp, hs):
    if rc is True and comp is True:
        return Verdict.WELL_POSED
    if rc is False or comp is False:
        if hs is True:
            return Verdict.TYPE_I
        if hs is False:
            return Verdict.TYPE_II
        return Verdict.UNDECIDABLE
    return Verdict.UNDECIDABLE


def test_exhaustive_tri_state_sweep():
    states = (True, False, None)
    for rc, comp, hs, ss in itertools.product(states, repeat=4):
        attrs = OperatorAttributes(
            range_closed=rc,
            nullspace_complemented=comp,
            range_has_closed_infdim_subspace=hs,
            strictly_singular=ss,
        )
        result = classify(attrs)
        assert result.verdict is _reference_verdict(rc, comp, hs)
        if result.hybrid:
            assert result.verdict is Verdict.TYPE_I
            assert ss is True
        check_consistency(attrs)  # must never raise


def test_rule_r1_fires_on_compact_hybrid():
    corrupted = replace(entry("B").attributes, compact=True)
    rules = {v.rule for v in check_consistency(corrupted)}
    assert "R1" in rules


def test_rule_r2_fires_on_closed_range_injective_singular():
    corrupted = replace(
        entry("E2p").attributes,
        range_closed=True,
        range_has_closed_infdim_subspace=True,
    )
    rules = {v.rule for v in check_consistency(corrupted)}
    assert "R2" in rules


def test_rule_r3_fires_on_continuous_type_one():
    corrupted = replace(
        entry("diag").attributes, range_has_closed_infdim_subspace=True
    )
    assert classify(corrupted).verdict is Verdict.TYPE_I
    rules = {v.rule for v in check_consistency(corrupted)}
    assert "R3" in rules


def test_rule_r4_fires_on_finite_rank_without_compactness():
    attrs = OperatorAttributes(
        range_closed=True,
        range_has_closed_infdim_subspace=False,
        nullspace_complemented=True,
        strictly_singular=False,
        compact=False,
    )
    rules = {v.rule for v in check_consistency(attrs)}
    assert rules == {"R4"}


def test_violations_carry_statements():
    corrupted = replace(entry("B").attributes, compact=True)
    violation = next(v for v in check_consistency(corrupted) if v.rule == "R1")
    assert "hybrid" in violation.statement


def test_catalog_is_consistent_and_matches_expectations():
    entries = catalog()
    assert len(entries) == 10
    for e in entries:
        result = classify(e.attributes)
        assert result.verdict is e.expected_verdict, e.label
        assert result.hybrid == e.expected_hybrid, e.label
        assert check_consistency(e.attributes) == [], e.label


def test_catalog_is_a_fresh_list_over_one_table_of_entries():
    first, second = catalog(), catalog()
    first.clear()
    labels = ["B", "E2p", "diag", "EoB", "CoB", "BxI", "D1", "D2", "D2oD1", "inj"]
    assert [e.label for e in second] == labels
    # the entries themselves, builders included, are built once per process
    assert all(a is b for a, b in zip(second, catalog()))


def test_remark_triple_crosses_the_type_line():
    verdicts = [classify(entry(lbl).attributes).verdict for lbl in ("D1", "D2", "D2oD1")]
    assert verdicts == [Verdict.TYPE_I, Verdict.TYPE_I, Verdict.TYPE_II]


def test_product_with_identity_is_type_one_but_not_hybrid():
    result = classify(entry("BxI").attributes)
    assert result.verdict is Verdict.TYPE_I
    assert result.hybrid is False


def test_counterexample_entry_is_type_two_with_complemented_nullspace():
    e = entry("inj")
    assert e.attributes.nullspace_complemented is True
    assert e.attributes.weakstar_to_weak_continuous is False
    assert classify(e.attributes).verdict is Verdict.TYPE_II


@pytest.mark.parametrize(
    "label", ["B", "E2p", "diag", "EoB", "CoB", "BxI", "D1", "D2", "D2oD1", "inj"]
)
def test_declared_attributes_equal_propagated_attributes(label):
    op = build_catalog_operator(label, depth=50)
    assert op.attributes == entry(label).attributes


def test_build_catalog_operator_validation():
    with pytest.raises(ValueError):
        build_catalog_operator("nope")
    with pytest.raises(ValueError):
        build_catalog_operator("B", depth=10**6)
    assert build_catalog_operator("inj", depth=1).n_cols == 2


# the package re-exports the classify() function under the module's name
CLASSIFY = importlib.import_module("illposed.classify")
DIRECTION_LABELS = ["B", "CoB", "EoB", "BxI"]


@pytest.mark.parametrize("label", ["diag", "inj", "D2oD1"])
def test_names_without_directions_never_enumerate(monkeypatch, label):
    def fail(params):
        raise AssertionError("enumerated directions")

    # an empty cache, so that reading the shared enumeration enumerates again
    CLASSIFY._default_directions.cache_clear()
    monkeypatch.setattr(CLASSIFY, "enumerate_directions", fail)
    assert build_catalog_operator(label, depth=50).n_cols in (50, 100)


def test_direction_names_share_one_default_enumeration(monkeypatch):
    calls = []

    def counted(params):
        calls.append(params)
        return enumerate_directions(params)

    CLASSIFY._default_directions.cache_clear()
    monkeypatch.setattr(CLASSIFY, "enumerate_directions", counted)
    for label in DIRECTION_LABELS * 2:
        build_catalog_operator(label)
    assert calls == [EnumerationParams()]


@pytest.mark.parametrize("depth", [1, 50, 200, 4034])
@pytest.mark.parametrize("label", DIRECTION_LABELS)
def test_shared_enumeration_builds_what_a_fresh_one_builds(label, depth):
    fresh = enumerate_directions(EnumerationParams())
    expected = build_operator(label, depth, lambda: fresh)
    for op in (build_catalog_operator(label, depth), build_catalog_operator(label, depth)):
        assert op.rows.tobytes() == expected.rows.tobytes()
        assert op.rows.shape == expected.rows.shape
        assert op.diagonal.tobytes() == expected.diagonal.tobytes()
        assert (op.domain_tag, op.codomain_tag) == (expected.domain_tag, expected.codomain_tag)
        assert op.attributes == expected.attributes
        assert (op.label, op.mazur_truncation) == (expected.label, expected.mazur_truncation)


def test_shared_enumeration_stays_read_only_and_never_builds_handles():
    for label in DIRECTION_LABELS:
        for depth in (1, 200, 4034):
            build_catalog_operator(label, depth)
    shared = CLASSIFY._default_directions()
    assert len(shared) == 4034
    for array in (shared.canon, shared.support, shared.realized, shared.antipodes):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flags.writeable = True
    assert shared._table == []
