"""Self time and per-name totals computed from synthetic spans."""
from spans import ROOT, Tracer, covered_ns, self_times_ns, summarize


def test_covered_ns_merges_overlaps_and_clips_to_interval():
    assert covered_ns((0, 100), []) == 0
    assert covered_ns((0, 100), [(10, 20), (30, 50)]) == 30
    assert covered_ns((0, 100), [(10, 40), (30, 50)]) == 40
    assert covered_ns((0, 100), [(90, 120), (-5, 5)]) == 15


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", ROOT, 0, 1000],
        ["sweep.run_sweep", 0, 100, 900],
        ["bounds.evaluate_link", 1, 200, 300],
        ["bounds.evaluate_link", 1, 400, 600],
        ["model.inner", 3, 450, 500],
    ]
    assert self_times_ns(spans) == [200, 500, 100, 150, 50]


def test_summarize_totals_self_and_parents():
    tracer = Tracer()
    tracer.spans = [
        ["optimize.maximize_skr_over_mu", ROOT, 0, 1_000_000_000],
        ["bounds.evaluate_link", 0, 0, 250_000_000],
        ["bounds.evaluate_link", 0, 500_000_000, 750_000_000],
        ["bounds.evaluate_link", ROOT, 2_000_000_000, 2_500_000_000],
    ]
    summary = summarize(tracer)
    maximize = summary["optimize.maximize_skr_over_mu"]
    assert maximize["calls"] == 1
    assert maximize["s"] == 1.0 and maximize["self_s"] == 0.5
    link = summary["bounds.evaluate_link"]
    assert link["calls"] == 3 and link["s"] == 1.0 and link["self_s"] == 1.0
    assert link["parents"] == {"optimize.maximize_skr_over_mu": 2, ROOT: 1}


def test_wrappers_record_spans_and_attributed_counts():
    tracer = Tracer()
    leaf = tracer.count("model.leaf", lambda x: x + 1)
    outer = tracer.span("outer", lambda: leaf(leaf(0)))
    assert outer() == 2 and leaf(5) == 6
    assert [span[:2] for span in tracer.spans] == [["outer", ROOT]]
    assert tracer.counts == {("model.leaf", "outer"): 2, ("model.leaf", ROOT): 1}
