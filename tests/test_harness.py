import hashlib
import json
import math

from partact.harness import (
    check_extension_bound,
    check_free_iff_finite,
    check_globalization_theorem,
    check_monotonicity,
    check_morita,
    check_strata_theorem,
    corpus,
    run_all_checks,
)
from partact.rokhlin import rokhlin_dimension


def test_corpus_reproducible_and_bounded():
    a = corpus(3, 12)
    b = corpus(3, 12)
    assert [pa.carrier for pa in a] == [pa.carrier for pa in b]
    assert [pa.domains for pa in a] == [pa.domains for pa in b]
    assert all(pa.size() <= 12 for pa in a)
    assert all(pa.group.order in (2, 3, 4, 6) for pa in a)


def test_reference_instances_through_checks(swap_pair, fixed_single, idle_triple):
    # The three reference instances thread the expected values through the
    # same comparisons the checks perform.
    from partact.pactions import globalize

    for pa, expected in ((swap_pair, 0), (fixed_single, math.inf), (idle_triple, 0)):
        lhs = rokhlin_dimension(pa).dimension
        rhs = rokhlin_dimension(globalize(pa).envelope).dimension
        assert lhs == rhs == expected


def test_globalization_check_small():
    report = check_globalization_theorem(11, count=12)
    assert report.passed
    assert report.instances == 12


def test_strata_check_small():
    report = check_strata_theorem(13, count=15)
    assert report.passed


def test_monotonicity_check_small():
    report = check_monotonicity(17, count=12)
    assert report.passed


def test_morita_check_small():
    report = check_morita(19, count=15)
    assert report.passed
    # Non-free instances are recorded as hypothesis failures, not errors.
    if report.notes:
        assert all("hypothesis fails" in n for n in report.notes)


def test_free_iff_finite_check_small():
    report = check_free_iff_finite(23, count=15)
    assert report.passed


def test_extension_bound_check_small():
    report = check_extension_bound(29, count=12)
    assert report.passed


def test_reports_are_reproducible():
    r1 = check_free_iff_finite(7, count=8)
    r2 = check_free_iff_finite(7, count=8)
    assert r1 == r2
    assert r1.to_payload() == r2.to_payload()


def test_run_all_checks_passes_small():
    reports = run_all_checks(5, count=6)
    assert len(reports) == 6
    assert all(r.passed for r in reports)


def test_check_morita_builds_one_crossed_product_per_instance(monkeypatch):
    from partact import fdcstar, harness

    built = []
    crossed_product = fdcstar.crossed_product

    def counted(pa):
        built.append(pa)
        return crossed_product(pa)

    monkeypatch.setattr(fdcstar, "crossed_product", counted)
    monkeypatch.setattr(harness, "crossed_product", counted)
    assert check_morita(5, count=12).passed
    assert len(built) == 12


def test_failure_records_replay_through_the_cli(monkeypatch, tmp_path, capsys):
    """A forced failure's instance is an instance document: ``partact analyze``
    reads it, and it parses back, with its labels, to the failing instance."""
    from partact import harness
    from partact.cli import instance_digest, main, parse_instance_with_labels, serialize_instance
    from partact.pactions import is_free

    monkeypatch.setattr(harness, "is_free", lambda pa: not is_free(pa))
    report = check_free_iff_finite(23, count=3)
    assert len(report.failures) == 3
    for pa, failure in zip(corpus(23, 3), report.failures):
        path = tmp_path / "failure.json"
        path.write_text(json.dumps(failure["instance"]))
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()
        again, labels = parse_instance_with_labels(path.read_text())
        assert hashlib.sha256(serialize_instance(again, labels).encode()).hexdigest() == instance_digest(pa)
