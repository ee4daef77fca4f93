"""tools/bench_file.py: the one writer of the BENCH_<topic>.json files."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_writer_keeps_old_labels_and_imports_src(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends --src
    import bench_file

    # a stand-in package: the measured M must come from --src
    src = tmp_path / "src"
    (src / "modhadamard").mkdir(parents=True)
    (src / "modhadamard" / "__init__.py").write_text('WHERE = "stand-in"\n')
    monkeypatch.delitem(sys.modules, "modhadamard")
    old_run = {"date": "2026-01-01", "machine": "m", "results": {"x": [0.1, "é"]}}
    out = tmp_path / "BENCH_t.json"
    out.write_text(
        json.dumps({"about": "old", "runs": {"before": old_run}}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    seen = []

    def measure(M, where):
        seen.append(where)
        return {"where": M.WHERE}

    argv = ["--src", str(src), "--label", "after", "--out", str(out)]
    bench_file.main("t", "new", measure, argv)
    assert seen == [str(src)]
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert doc["about"] == "new"
    assert sorted(doc["runs"]) == ["after", "before"]
    new_run = doc["runs"]["after"]
    assert sorted(new_run) == ["date", "machine", "results"]
    assert new_run["results"] == {"where": "stand-in"}
    # the old label's text is as the file held it
    want = {"about": "new", "runs": {"before": old_run, "after": new_run}}
    assert text == json.dumps(want, indent=1, sort_keys=True) + "\n"
