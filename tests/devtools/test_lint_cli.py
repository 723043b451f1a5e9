"""CLI behavior: output format and exit codes."""

from pathlib import Path

import pytest

from repro.devtools import RULES
from repro.devtools.lint import main

_BAD_RNG = "import numpy as np\n\ndef f(x):\n    np.random.shuffle(x)\n"
_CLEAN = "import numpy as np\n\ndef f(rng):\n    return np.random.default_rng(rng)\n"


def write(tmp_path: Path, rel: str, source: str) -> Path:
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_finding_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _BAD_RNG)
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "src/mod.py:4:4 RNG001" in out

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["no-such-dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.code in out

    @pytest.mark.parametrize(
        "flag", ["--baseline=b.json", "--no-baseline", "--update-baseline"]
    )
    def test_baseline_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["src", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_quiet_omits_summary(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--quiet"]) == 0
        assert "reprolint:" not in capsys.readouterr().out


class TestOutputFormat:
    def test_ruff_style_lines(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _BAD_RNG)
        monkeypatch.chdir(tmp_path)
        main(["src"])
        line = capsys.readouterr().out.splitlines()[0]
        location, _, rest = line.partition(" ")
        path, lineno, col = location.rsplit(":", 2)
        assert path == "src/mod.py"
        assert lineno.isdigit() and col.isdigit()
        assert rest.startswith("RNG001 ")
