import importlib.util
import subprocess
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


def test_worktree_export_holds_the_tree_as_on_disk_and_nothing_ignored(tmp_path):
    root, dest = tmp_path / "repo", tmp_path / "export"
    (root / "pkg").mkdir(parents=True)
    (root / ".gitignore").write_text("__pycache__/\n*.log\n")
    (root / "pkg" / "mod.py").write_text("committed\n")
    (root / "pkg" / "gone.py").write_text("committed, then deleted\n")
    git = ("git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(root))
    subprocess.run((*git, "init", "-q"), check=True)
    subprocess.run((*git, "add", "-A"), check=True)
    subprocess.run((*git, "commit", "-q", "-m", "seed"), check=True)
    (root / "pkg" / "mod.py").write_text("edited, not committed\n")
    (root / "pkg" / "gone.py").unlink()
    (root / "pkg" / "new.py").write_text("untracked\n")
    (root / "pkg" / "__pycache__").mkdir()
    (root / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    (root / "run.log").write_text("ignored\n")

    bench_pairs._export_worktree(root, dest)

    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "edited, not committed\n"
