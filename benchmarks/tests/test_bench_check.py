"""The output checker accepts the reference and rejects changed outputs."""
from check import compare

REFERENCE = (
    b"p_ap,loss_db,skr_lower,status,reason\n"
    b"0.0001,0,0.008692298281,ok,\n"
    b"1.058807625,0,,model-domain-error,\"afterpulse_prob must be in [0, 1], got 1.05\"\n"
)


def test_identical_output_passes():
    assert compare(REFERENCE, REFERENCE) == []


def test_last_printed_digit_within_tolerance_passes():
    assert compare(REFERENCE.replace(b"0.008692298281", b"0.008692298282"), REFERENCE) == []


def test_perturbed_number_is_rejected():
    problems = compare(REFERENCE.replace(b"0.008692298281", b"0.008692299281"), REFERENCE)
    assert len(problems) == 1 and "skr_lower" in problems[0]


def test_changed_status_cell_is_rejected():
    changed = REFERENCE.replace(b",ok,", b",infeasible,")
    problems = compare(changed, REFERENCE)
    assert len(problems) == 1 and "status" in problems[0]


def test_changed_reason_and_empty_cell_are_rejected():
    assert compare(REFERENCE.replace(b"1.05\"", b"1.06\""), REFERENCE)
    assert compare(REFERENCE.replace(b",0.008692298281,", b",,"), REFERENCE)


def test_changed_header_and_missing_row_are_rejected():
    assert compare(REFERENCE.replace(b"skr_lower", b"skr_raw"), REFERENCE)
    assert compare(REFERENCE.rsplit(b"\n", 2)[0] + b"\n", REFERENCE)
