import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summarize_counts_wins_by_direction_and_skips_ties():
    parent = [4.0, 5.0, 6.0, 7.0]
    change = [0.5, 5.0, 8.0, 0.2]
    runs = [
        {
            "parent": {"metrics": {"t": p, "r": p}},
            "change": {"metrics": {"t": c, "r": c}},
        }
        for p, c in zip(parent, change)
    ]
    metrics = [
        {"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "r", "unit": "ratio", "better": "higher", "bound": 0.1},
    ]
    out = bench_pairs.summarize(runs, metrics)
    assert (out["t"]["change_wins"], out["t"]["ties"]) == (2, 1)
    assert (out["r"]["change_wins"], out["r"]["ties"]) == (1, 1)
    assert out["t"]["parent"] == {"median": 5.5, "q1": 4.25, "q3": 6.75, "iqr": 2.5}
    assert out["t"]["change"]["median"] == 2.75
    assert out["t"]["change_over_parent"] == 0.5
    assert out["t"]["gap_exceeds_parent_iqr"] is True
    assert out["t"]["pairs"] == 4
