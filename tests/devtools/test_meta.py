"""Meta-tests: the shipped tree is lint-clean, and every rule earns its keep.

``src``, ``tests`` and ``examples`` carry zero findings. Every rule in
``RULES`` has a mutation row: one plausible edit to a copy of a real file
under ``src/repro`` that the rule must flag, while the unedited copy reads
clean. Each row anchors on an exact snippet of today's file, so a row
whose snippet has changed fails loudly and must be updated together with
the code it guards. Every name set that matches the package's own calls
names only functions defined under ``src/repro``.
"""

import ast
from pathlib import Path

import pytest

from repro.devtools import RULES, analyze_paths
from repro.devtools import rules as rules_module
from repro.devtools.analyzer import _SUPPRESSION
from repro.devtools.lint import main

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"
SHIPPED = ("src", "tests", "examples")


class TestShippedTreeIsClean:
    def test_shipped_tree_has_no_findings(self):
        findings, _ = analyze_paths(
            [REPO_ROOT / name for name in SHIPPED], root=REPO_ROOT
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_inline_suppression_gives_a_reason(self):
        unjustified = []
        for name in ("src", "examples"):
            for path in sorted((REPO_ROOT / name).rglob("*.py")):
                lines = path.read_text(encoding="utf-8").splitlines()
                for lineno, line in enumerate(lines, start=1):
                    match = _SUPPRESSION.search(line)
                    if match and not line[match.end() :].partition("--")[2].strip():
                        unjustified.append(f"{path.relative_to(REPO_ROOT)}:{lineno}")
        assert unjustified == []

    def test_cli_exits_zero_on_repo(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(list(SHIPPED)) == 0
        capsys.readouterr()


#: ``(rule, file under src/repro, exact snippet of today's file, its edit)``.
MUTATIONS = [
    pytest.param(
        "RNG001",
        "tasks/session.py",
        "        arrays = self._check_data(data)\n"
        "        gen = as_generator(rng)\n",
        "        arrays = self._check_data(data)\n"
        "        gen = np.random.default_rng()\n",
        id="RNG001-session-privatize-unseeded",
    ),
    pytest.param(
        "PRIV001",
        "protocol/server.py",
        "        return self._estimator.privatize(values, rng=rng)\n",
        "        return encode_frame(self.round_id, values, self._codec, attr=self.attr)\n",
        id="PRIV001-server-privatize-encodes-raw-values",
    ),
    pytest.param(
        "PRIV002",
        "core/square_wave.py",
        "        self.epsilon = check_epsilon(epsilon)\n"
        "        if b is None:\n"
        "            b = optimal_bandwidth(self.epsilon)\n",
        "        self.epsilon = float(epsilon)\n"
        "        if b is None:\n"
        "            b = optimal_bandwidth(self.epsilon)\n",
        id="PRIV002-squarewave-float-is-not-validation",
    ),
    pytest.param(
        "NUM001",
        "engine/solver.py",
        "np.log(self.density, out=self.log, where=self.positive)",
        "np.log(self.density, out=self.log)",
        id="NUM001-solver-log-likelihood-unmasked",
    ),
    pytest.param(
        "NUM002",
        "engine/solver.py",
        "np.maximum(self.forward.apply(v), _DENSITY_FLOOR, out=self.density)",
        "np.maximum(self.forward.to_dense() @ v, _DENSITY_FLOOR, out=self.density)",
        id="NUM002-solver-product-materializes-channel",
    ),
    pytest.param(
        "SVC001",
        "service/http.py",
        "            result = await loop.run_in_executor(\n"
        "                self._solve_pool, self.collector.estimate, round_id\n"
        "            )\n",
        "            result = self.collector.estimate(round_id)\n",
        id="SVC001-http-estimate-on-the-loop",
    ),
    pytest.param(
        "SVC001",
        "service/http.py",
        "            result = await loop.run_in_executor(\n"
        "                self._solve_pool, self.collector.advance_window, round_id\n"
        "            )\n",
        "            result = self.collector.advance_window(round_id)\n",
        id="SVC001-http-advance-on-the-loop",
    ),
    pytest.param(
        "SVC001",
        "service/http.py",
        "            result = await loop.run_in_executor(\n"
        "                self._solve_pool, self.collector.window_estimate\n"
        "            )\n",
        "            result = self.collector.window_estimate()\n",
        id="SVC001-http-stream-estimate-on-the-loop",
    ),
    pytest.param(
        "STATE001",
        "core/pipeline.py",
        '        self.ingest_counts(state["counts"])\n',
        '        self.ingest_counts(0.5 * np.asarray(state["counts"]))\n',
        id="STATE001-wave-restore-decays-by-hand",
    ),
    pytest.param(
        "FT001",
        "service/core.py",
        "            self._counters.errors += 1\n"
        '            self._counters.last_error = f"{type(exc).__name__}: {exc}"\n',
        "            pass\n",
        id="FT001-shard-fold-swallows-failure",
    ),
]


class TestMutations:
    """Each rule flags one plausible edit of a real source file."""

    @pytest.mark.parametrize(("code", "rel", "snippet", "edit"), MUTATIONS)
    def test_rule_flags_its_mutation(self, tmp_path, code, rel, snippet, edit):
        source = (PACKAGE / rel).read_text(encoding="utf-8")
        assert source.count(snippet) == 1, (
            f"the anchored snippet changed in src/repro/{rel}; update this row"
        )
        target = tmp_path / "src" / "repro" / rel
        target.parent.mkdir(parents=True)
        target.write_text(source, encoding="utf-8")
        clean, _ = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert clean == [], "\n".join(f.render() for f in clean)

        target.write_text(source.replace(snippet, edit), encoding="utf-8")
        mutated, _ = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert {f.rule for f in mutated} == {code}, (
            "\n".join(f.render() for f in mutated) or f"{code} missed the edit"
        )

    def test_every_rule_has_a_row(self):
        assert {row.values[0] for row in MUTATIONS} == {rule.code for rule in RULES}


def test_rule_name_sets_name_functions_that_exist():
    defined = {
        node.name
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for attr in (
        "_ENCODE_SINKS",
        "_SANITIZERS",
        "_EPSILON_VALIDATORS",
        "_DENSE_CALLS",
        "_BLOCKING_SOLVES",
        "_STATE_CALLS",
    ):
        missing = getattr(rules_module, attr) - defined
        assert not missing, f"{attr} names no function under src/repro: {sorted(missing)}"
