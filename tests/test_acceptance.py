"""Acceptance suite: every criterion at its stated tolerance.

Each criterion test prints its ``CriterionResult.line()``, the line
``selftest`` prints (visible with ``pytest -s`` or in the captured output of
a failure), and asserts the criterion, including its stated runtime bound
where one exists.  Two more tests guard the registry and the line format
without running any criterion.
"""

from onebit_bounds import acceptance

_RESULTS = []


def _report(res, time_limit=None):
    _RESULTS.append(res)
    print(res.line())
    assert res.passed, f"criterion-{res.number}: {res.detail}"
    if time_limit is not None:
        assert res.seconds < time_limit, (
            f"criterion-{res.number} took {res.seconds:.1f}s, limit {time_limit}s")


def test_registry_holds_the_nine_criteria_in_order():
    # run_all runs _CRITERIA, so each criterion_N the tests below call is the
    # one selftest runs, at its place in the list
    assert [c.__name__ for c in acceptance._CRITERIA] == [
        f"criterion_{n}" for n in range(1, 10)]
    assert all(c is getattr(acceptance, c.__name__) for c in acceptance._CRITERIA)


def test_report_line_format():
    res = acceptance.CriterionResult(3, "x", False, "bad", 1.26)
    assert res.line() == "criterion-3 FAIL x [1.3s] bad"


def test_criterion_1_low_snr_closed_form():
    _report(acceptance.criterion_1(), time_limit=10.0)


def test_criterion_2_training_overlap_asymptotics():
    _report(acceptance.criterion_2(), time_limit=1.0)


def test_criterion_3_bussgang_dominance_and_merge():
    _report(acceptance.criterion_3(), time_limit=120.0)


def test_criterion_4_known_channel_ceiling():
    _report(acceptance.criterion_4())


def test_criterion_5_one_bit_saturation():
    _report(acceptance.criterion_5(), time_limit=120.0)


def test_criterion_6_training_shrinkage():
    _report(acceptance.criterion_6())


def test_criterion_7_csir_reduction_identity():
    _report(acceptance.criterion_7())


def test_criterion_8_exact_pipeline_agreement():
    _report(acceptance.criterion_8(), time_limit=600.0)


def test_criterion_9_property_suite():
    _report(acceptance.criterion_9())


def test_total_runtime_fits_selftest_budget():
    assert len(_RESULTS) == 9, "criteria must run before the budget check"
    total = sum(r.seconds for r in _RESULTS)
    print(f"selftest total: {total:.1f}s")
    assert total < 900.0
