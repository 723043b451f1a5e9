"""Meta-tests: the shipped tree stays lint-clean, and injections fail.

These are the acceptance contract of the linter itself: ``src`` and
``tests`` carry zero non-baselined findings, and deliberately introducing
either of the two canonical violations (a global ``np.random`` call, an
unregistered ``Estimator`` family) makes the analysis fail.
"""

import shutil
from pathlib import Path

from repro.devtools import Baseline, analyze_paths
from repro.devtools.baseline import DEFAULT_BASELINE
from repro.devtools.lint import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def repo_findings(root: Path):
    """Non-baselined findings for the repo tree rooted at ``root``."""
    findings, _ = analyze_paths([root / "src", root / "tests"], root=root)
    baseline = Baseline.load(root / DEFAULT_BASELINE)
    new, _, stale = baseline.split(findings)
    return new, stale


class TestShippedTreeIsClean:
    def test_src_and_tests_have_no_new_findings(self):
        new, stale = repo_findings(REPO_ROOT)
        assert new == [], "\n".join(f.render() for f in new)
        assert stale == [], "stale baseline entries should be removed"

    def test_baseline_stays_small_and_justified(self):
        baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
        assert len(baseline.entries) <= 5
        for entry in baseline.entries:
            assert entry.reason.strip(), f"baseline entry without reason: {entry}"

    def test_cli_exits_zero_on_repo(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src", "tests"]) == 0
        capsys.readouterr()


class TestInjections:
    """Copy a small slice of the tree, inject a violation, expect failure."""

    def _copy_api(self, tmp_path: Path) -> Path:
        target = tmp_path / "src" / "repro" / "api"
        target.parent.mkdir(parents=True)
        shutil.copytree(REPO_ROOT / "src" / "repro" / "api", target)
        return target

    def test_global_shuffle_injection_fails(self, tmp_path, monkeypatch, capsys):
        api = self._copy_api(tmp_path)
        (api / "shuffled.py").write_text(
            "import numpy as np\n\n"
            "def resample(reports):\n"
            "    np.random.shuffle(reports)\n"
            "    return reports\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        assert "RNG001" in capsys.readouterr().out

    def test_unregistered_estimator_injection_fails(self, tmp_path, monkeypatch, capsys):
        api = self._copy_api(tmp_path)
        (api / "bogus.py").write_text(
            "from repro.api.base import Estimator\n\n\n"
            "class BogusEstimator(Estimator):\n"
            "    name = 'bogus'\n"
            "    kind = 'frequency'\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REG001" in out
        assert "BogusEstimator" in out

    def test_raw_value_encode_injection_fails(self, tmp_path, monkeypatch, capsys):
        api = self._copy_api(tmp_path)
        (api / "leaky.py").write_text(
            "from repro.protocol.messages import encode_batch_v2\n\n\n"
            "def ship(values):\n"
            "    return encode_batch_v2('r', values, 'float')\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        assert "PRIV001" in capsys.readouterr().out
