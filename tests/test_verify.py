"""The four self-check batteries and their report formatting."""

import pytest

from ttlr.verify import (
    SUITE_NAMES,
    bayes_suite,
    curvature_suite,
    format_report,
    gradient_suite,
    recovery_suite,
    run_verification,
)


def test_suite_names_are_stable():
    assert SUITE_NAMES == ("gradients", "recovery", "curvature", "bayes")


def test_gradient_suite_passes_at_reduced_size():
    checks = gradient_suite(num_configs=40, seed=123)
    assert checks
    for chk in checks:
        assert chk.passed
        assert chk.measured <= chk.tolerance


def test_recovery_suite_passes():
    checks = recovery_suite(seed=99)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert any("softmax" in n for n in names)
    assert any("loss" in n for n in names)


def test_curvature_suite_passes():
    checks = curvature_suite()
    assert all(c.passed for c in checks)
    # the regime map check counts misclassified temperature pairs
    regime = [c for c in checks if "regime" in c.name][0]
    assert regime.measured == 0


def test_bayes_suite_passes_at_reduced_size():
    checks = bayes_suite(num_multiclass=15, seed=7)
    assert all(c.passed for c in checks)


def test_run_verification_dispatch():
    report = run_verification("recovery")
    assert report.suite == "recovery"
    assert report.passed
    assert report.seconds >= 0.0
    with pytest.raises(ValueError):
        run_verification("nonsense")


def test_reports_hold_plain_python_scalars():
    for report in (run_verification("recovery"), run_verification("curvature")):
        for chk in report.checks:
            assert type(chk.passed) is bool
            assert type(chk.measured) is float
            assert type(chk.tolerance) is float
        # no numpy scalar repr leaks into the printed lines
        assert "np." not in format_report(report)


def test_format_report_lines():
    report = run_verification("recovery")
    text = format_report(report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("suite: recovery")
    assert lines[-1] == "  => all checks passed"
    for ln in lines[1:-1]:
        assert ln.lstrip().startswith(("PASS", "FAIL"))
    assert "FAIL" not in text
