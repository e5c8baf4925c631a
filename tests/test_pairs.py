"""The summary rule of ``tools/pairs.py`` on synthetic pairs; no benchmark
runs here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

# ten parent runs with quartiles 0.28 and 0.30 (IQR 0.02), median 0.29
PARENT = [0.29, 0.26, 0.30, 0.28, 0.32, 0.27, 0.30, 0.29, 0.28, 0.31]


def test_quartiles_and_medians():
    row = pairs.summarize(PARENT, [v - 0.03 for v in PARENT], "lower")
    assert row["parent"] == pytest.approx(
        {"median": 0.29, "q1": 0.28, "q3": 0.30})
    assert row["change"]["median"] == pytest.approx(0.26)
    assert row["ratio"] == pytest.approx(0.26 / 0.29)
    assert row["gain"] == pytest.approx(0.03)
    assert (row["pairs"], row["won"]) == (10, 10)


@pytest.mark.parametrize("shift, won, holds", [
    (0.03, 10, True),    # every pair won, gap 0.03 > IQR 0.02
    (0.01, 10, False),   # every pair won, gap 0.01 < IQR
    (-0.03, 0, False),   # slower
])
def test_claim_on_a_uniform_shift(shift, won, holds):
    row = pairs.summarize(PARENT, [v - shift for v in PARENT], "lower")
    assert row["won"] == won and row["gain_exceeds_parent_iqr"] == holds
    assert pairs.claim_holds(row) == holds


def test_nine_of_ten_pairs_suffice_and_eight_do_not():
    change = [v - 0.05 for v in PARENT]
    change[0] = PARENT[0]          # a tie counts for neither
    row = pairs.summarize(PARENT, change, "lower")
    assert row["won"] == 9 and pairs.claim_holds(row)
    change[1] = PARENT[1] + 0.01   # a lost pair
    row = pairs.summarize(PARENT, change, "lower")
    assert row["won"] == 8 and not pairs.claim_holds(row)


def test_higher_is_better():
    up = [v + 0.03 for v in PARENT]
    row = pairs.summarize(PARENT, up, "higher")
    assert row["won"] == 10 and row["gain"] == pytest.approx(0.03)
    assert pairs.claim_holds(row)
    assert not pairs.claim_holds(pairs.summarize(PARENT, up, "lower"))


@pytest.mark.parametrize("worse, within", [(0.95, True), (1.04, True),
                                           (1.06, False)])
def test_within_bound(worse, within):
    # a 5% bound: the change's median may exceed the parent's by 5%
    row = pairs.summarize(PARENT, [v * worse for v in PARENT], "lower")
    assert pairs.within_bound(row, 0.05) == within


def test_compare_reads_every_metric_both_sides_report():
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower",
                            "bound": 0.25}],
            "per_layer": [{"name": "arcs.fft_s", "better": "lower"}]}
    runs = [{side: {"metrics": {
        "verify-all.wall_s": {"value": v - (side == "change") * 0.03},
        "arcs-mangoldt.arcs.fft_s": {"value": v},
        "verify-all.unknown": {"value": v}}} for side in ("parent", "change")}
        for v in PARENT]
    rows = pairs.compare(runs, spec)
    assert sorted(rows) == ["arcs-mangoldt.arcs.fft_s", "verify-all.wall_s"]
    assert pairs.claim_holds(rows["verify-all.wall_s"])
    assert rows["verify-all.wall_s"]["within_bound"]
    assert "bound" not in rows["arcs-mangoldt.arcs.fft_s"]
    assert not pairs.claim_holds(rows["arcs-mangoldt.arcs.fft_s"])
