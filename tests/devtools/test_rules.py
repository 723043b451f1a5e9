"""Fixture-driven tests for every reprolint rule.

Each test writes small good/bad snippets into a temp directory and runs the
analyzer over it, asserting the rule fires exactly where it should. Snippet
modules are deliberately *not* named ``test_*.py`` so the analyzer treats
them as production code (several rules skip test files).
"""

from pathlib import Path

import pytest

from repro.devtools import analyze_paths

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def lint_source(tmp_path: Path, source: str, rel: str = "mod.py"):
    """Write one snippet and return ``(findings, suppressed)`` for it."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return analyze_paths([tmp_path], root=tmp_path)


def codes(findings) -> list[str]:
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# RNG001
# ----------------------------------------------------------------------


class TestRng001:
    def test_np_random_module_call_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def f(x):\n"
            "    np.random.shuffle(x)\n",
        )
        assert codes(findings) == ["RNG001"]
        assert "np.random.shuffle" in findings[0].message

    def test_stdlib_random_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import random\n"
            "def f():\n"
            "    return random.random()\n",
        )
        assert codes(findings) == ["RNG001"]

    def test_from_import_alias_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "from numpy.random import normal as gauss\n"
            "def f():\n"
            "    return gauss(0.0, 1.0)\n",
        )
        assert codes(findings) == ["RNG001"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "gen = np.random.default_rng()\n",
        )
        assert codes(findings) == ["RNG001"]

    def test_seeded_default_rng_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "gen = np.random.default_rng(42)\n",
        )
        assert findings == []

    def test_generator_draws_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def f(rng):\n"
            "    gen = np.random.default_rng(rng)\n"
            "    return gen.random(10)\n",
        )
        assert findings == []

    def test_rng_module_is_exempt(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def as_generator(rng=None):\n"
            "    return np.random.default_rng()\n",
            rel="utils/rng.py",
        )
        assert findings == []

    def test_applies_to_test_files_too(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def test_x():\n"
            "    np.random.seed(0)\n",
            rel="test_mod.py",
        )
        assert codes(findings) == ["RNG001"]


# ----------------------------------------------------------------------
# PRIV001
# ----------------------------------------------------------------------


class TestPriv001:
    def test_raw_values_into_sink_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def send(values):\n"
            "    return encode_frame('r', values, 'float')\n",
        )
        assert codes(findings) == ["PRIV001"]

    def test_alias_taint_tracked(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def send(values):\n"
            "    payload = values * 2\n"
            "    return encode_frame('r', payload, 'float')\n",
        )
        assert codes(findings) == ["PRIV001"]

    def test_privatize_sanitizes(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def send(mech, values):\n"
            "    reports = mech.privatize(values)\n"
            "    return encode_frame('r', reports, 'float')\n",
        )
        assert findings == []

    def test_inline_privatize_sanitizes(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def send(mech, values):\n"
            "    return encode_frame('r', mech.privatize(values), 'float')\n",
        )
        assert findings == []

    def test_only_privatize_sanitizes(self, tmp_path):
        """A call named like an encoder does not launder raw values."""
        findings, _ = lint_source(
            tmp_path,
            "def send(values):\n"
            "    return encode_frame('r', encode_report(values), 'float')\n",
        )
        assert codes(findings) == ["PRIV001"]

    def test_skips_test_files(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def send(values):\n"
            "    return encode_frame('r', values, 'float')\n",
            rel="test_send.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# PRIV002
# ----------------------------------------------------------------------


class TestPriv002:
    def test_unvalidated_constructor_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "class Mechanism:\n"
            "    def __init__(self, epsilon):\n"
            "        self.epsilon = epsilon\n",
        )
        assert codes(findings) == ["PRIV002"]

    def test_check_epsilon_satisfies(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "from repro.utils.validation import check_epsilon\n"
            "class Mechanism:\n"
            "    def __init__(self, epsilon):\n"
            "        self.epsilon = check_epsilon(epsilon)\n",
        )
        assert findings == []

    def test_delegation_satisfies(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "class Wrapper:\n"
            "    def __init__(self, epsilon):\n"
            "        self.inner = Inner(epsilon)\n",
        )
        assert findings == []

    def test_explicit_guard_satisfies(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def helper(eps):\n"
            "    if eps <= 0:\n"
            "        raise ValueError('eps')\n"
            "    return eps\n",
        )
        assert findings == []

    def test_private_helpers_exempt(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def _internal(epsilon):\n"
            "    return epsilon * 2\n",
        )
        assert findings == []

    @pytest.mark.parametrize(
        "body",
        [
            "self.epsilon = float(epsilon)",
            "self.k = int(epsilon)",
            "self.e = math.exp(epsilon)",
            "self.e = np.exp(epsilon)",
            "self.epsilon = numpy.float64(epsilon)",
        ],
    )
    def test_conversion_is_not_validation(self, tmp_path, body):
        findings, _ = lint_source(
            tmp_path,
            "import math\n"
            "import numpy\n"
            "import numpy as np\n"
            "class Mechanism:\n"
            "    def __init__(self, epsilon):\n"
            f"        {body}\n",
        )
        assert codes(findings) == ["PRIV002"]

    def test_validator_itself_exempt(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def check_epsilon(epsilon):\n"
            "    value = float(epsilon)\n"
            "    if not np.isfinite(value) or value <= 0.0:\n"
            "        raise ValueError(f'bad budget {epsilon!r}')\n"
            "    return value\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# NUM001
# ----------------------------------------------------------------------


class TestNum001:
    def test_float_equality_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def f(ratio):\n"
            "    return ratio == 1.0\n",
        )
        assert codes(findings) == ["NUM001"]

    def test_integer_equality_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def f(n):\n"
            "    return n == 1\n",
        )
        assert findings == []

    def test_unguarded_np_log_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def f(probs):\n"
            "    return np.log(probs)\n",
        )
        assert codes(findings) == ["NUM001"]

    def test_guard_on_a_sibling_attribute_is_no_guard(self, tmp_path):
        """A comparison on ``self.iterations`` says nothing of ``self.density``."""
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "class Model:\n"
            "    def log_density(self):\n"
            "        if self.iterations > 0:\n"
            "            pass\n"
            "        return np.log(self.density)\n",
        )
        assert codes(findings) == ["NUM001"]

    def test_guard_on_the_argument_attribute_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "class Model:\n"
            "    def log_density(self):\n"
            "        if self.density.min() > 0:\n"
            "            return np.log(self.density)\n"
            "        raise ValueError('zero density')\n",
        )
        assert findings == []

    def test_floored_np_log_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def f(probs):\n"
            "    return np.log(np.maximum(probs, 1e-300))\n",
        )
        assert findings == []

    def test_where_masked_np_log_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def f(p, out, mask):\n"
            "    return np.log(p, out=out, where=mask)\n",
        )
        assert findings == []

    def test_unguarded_count_division_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def f(total, n):\n"
            "    return total / n\n",
        )
        assert codes(findings) == ["NUM001"]

    def test_guarded_count_division_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def f(total, n):\n"
            "    if n < 1:\n"
            "        raise ValueError('empty batch')\n"
            "    return total / n\n",
        )
        assert findings == []

    def test_skips_test_files(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def f(ratio):\n"
            "    return ratio == 1.0\n",
            rel="test_ratio.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# NUM002
# ----------------------------------------------------------------------


class TestNum002:
    def test_dense_call_in_solver_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def solve(operator, counts):\n"
            "    m = operator.to_dense()\n"
            "    return m.sum(axis=0)\n",
            rel="engine/solver.py",
        )
        assert codes(findings) == ["NUM002"]

    def test_to_dense_implementation_allowed(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "class Op:\n"
            "    def to_dense(self):\n"
            "        return self.inner.to_dense()\n",
            rel="engine/operators.py",
        )
        assert findings == []

    def test_other_modules_unconstrained(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def build(mechanism, d):\n"
            "    return mechanism.transition_matrix(d)\n",
            rel="core/pipeline.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# suppression plumbing
# ----------------------------------------------------------------------


class TestSuppression:
    def test_inline_disable_suppresses(self, tmp_path):
        findings, suppressed = lint_source(
            tmp_path,
            "def f(ratio):\n"
            "    return ratio == 1.0  # reprolint: disable=NUM001 -- exact flag\n",
        )
        assert findings == []
        assert codes(suppressed) == ["NUM001"]

    def test_disable_is_rule_specific(self, tmp_path):
        findings, suppressed = lint_source(
            tmp_path,
            "def f(ratio):\n"
            "    return ratio == 1.0  # reprolint: disable=RNG001\n",
        )
        assert codes(findings) == ["NUM001"]
        assert suppressed == []

    def test_multiple_codes_on_one_line(self, tmp_path):
        findings, suppressed = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def f(ratio, probs):\n"
            "    return (ratio == 1.0) and np.log(probs).any()"
            "  # reprolint: disable=NUM001, RNG001\n",
        )
        assert findings == []
        assert len(suppressed) == 2

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        findings, _ = lint_source(tmp_path, "def broken(:\n")
        assert codes(findings) == ["PARSE"]


# ----------------------------------------------------------------------
# SVC001 — async service handlers must not block the event loop
# ----------------------------------------------------------------------

ASYNC_SLEEP_BAD = (
    "import time\n"
    "async def handle(request):\n"
    "    time.sleep(0.1)\n"
    "    return request\n"
)

ASYNC_SOLVE_BAD = (
    "async def handle(collector, round_id):\n"
    "    return collector.estimate(round_id)\n"
)


class TestAsyncBlockingRule:
    def test_time_sleep_in_async_handler_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, ASYNC_SLEEP_BAD, rel="service/handlers.py"
        )
        assert codes(findings) == ["SVC001"]
        assert "asyncio.sleep" in findings[0].message

    def test_asyncio_sleep_is_fine(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import asyncio\n"
            "async def handle(request):\n"
            "    await asyncio.sleep(0.1)\n",
            rel="service/handlers.py",
        )
        assert findings == []

    def test_direct_estimate_call_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, ASYNC_SOLVE_BAD, rel="service/handlers.py"
        )
        assert codes(findings) == ["SVC001"]
        assert "run_in_executor" in findings[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "collector.advance_window(round_id)",
            "collector.window_estimate()",
            "solve_cached(entries)",
            "server_module.solve_cached(entries)",
        ],
    )
    def test_window_and_batch_solves_flagged(self, tmp_path, call):
        findings, _ = lint_source(
            tmp_path,
            "async def handle(collector, server_module, entries, round_id):\n"
            f"    return {call}\n",
            rel="service/handlers.py",
        )
        assert codes(findings) == ["SVC001"]
        assert "run_in_executor" in findings[0].message

    def test_estimate_rounds_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "from repro.protocol import estimate_rounds\n"
            "async def handle(servers):\n"
            "    return estimate_rounds(servers)\n",
            rel="service/handlers.py",
        )
        assert codes(findings) == ["SVC001"]

    def test_offloaded_solve_is_exempt(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import asyncio\n"
            "async def handle(pool, collector, round_id):\n"
            "    loop = asyncio.get_running_loop()\n"
            "    return await loop.run_in_executor(\n"
            "        pool, lambda: collector.estimate(round_id)\n"
            "    )\n",
            rel="service/handlers.py",
        )
        assert findings == []

    def test_to_thread_offload_is_exempt(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import asyncio\n"
            "async def handle(collector, round_id):\n"
            "    return await asyncio.to_thread(collector.estimate, round_id)\n",
            rel="service/handlers.py",
        )
        assert findings == []

    def test_sync_socket_use_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import socket\n"
            "async def probe(host, port):\n"
            "    return socket.create_connection((host, port))\n",
            rel="service/handlers.py",
        )
        assert codes(findings) == ["SVC001"]
        assert "open_connection" in findings[0].message

    def test_nested_sync_helper_is_exempt(self, tmp_path):
        """A sync def inside the coroutine is executor fodder, not loop code."""
        findings, _ = lint_source(
            tmp_path,
            "import time\n"
            "async def handle(pool, loop):\n"
            "    def solve():\n"
            "        time.sleep(0.01)\n"
            "        return 1\n"
            "    return await loop.run_in_executor(pool, solve)\n",
            rel="service/handlers.py",
        )
        assert findings == []

    def test_sync_functions_not_checked(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import time\n"
            "def drain():\n"
            "    time.sleep(0.1)\n",
            rel="service/core.py",
        )
        assert findings == []

    def test_non_service_modules_not_checked(self, tmp_path):
        findings, _ = lint_source(tmp_path, ASYNC_SLEEP_BAD, rel="engine/jobs.py")
        assert findings == []

    def test_service_test_modules_not_checked(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, ASYNC_SOLVE_BAD, rel="service/test_handlers.py"
        )
        assert findings == []


# ----------------------------------------------------------------------
# STATE001
# ----------------------------------------------------------------------

STATE_SUB_BAD = (
    "def advance(current, evicted):\n"
    "    return current.to_state()[\"counts\"] - evicted.to_state()[\"counts\"]\n"
)

STATE_AUG_BAD = (
    "def decay(window_state, gamma):\n"
    "    window_state *= gamma\n"
    "    return window_state\n"
)


class TestState001:
    def test_subtraction_of_state_payloads_flagged(self, tmp_path):
        findings, _ = lint_source(tmp_path, STATE_SUB_BAD, rel="protocol/agg.py")
        assert codes(findings) == ["STATE001"]
        assert "subtract_state" in findings[0].message

    def test_scaling_state_variable_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def forget(state, gamma):\n"
            "    return state[\"n\"] * gamma\n",
            rel="service/core.py",
        )
        assert codes(findings) == ["STATE001"]

    def test_augmented_scaling_flagged(self, tmp_path):
        findings, _ = lint_source(tmp_path, STATE_AUG_BAD, rel="protocol/agg.py")
        assert codes(findings) == ["STATE001"]
        assert "'*'" in findings[0].message

    def test_division_of_state_call_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def norm(est):\n"
            "    return est._state()[\"counts\"] / est._state()[\"n\"]\n",
            rel="core/pipeline.py",
        )
        assert codes(findings) == ["STATE001"]

    def test_addition_is_not_flagged(self, tmp_path):
        """Merge-shaped addition is what ``merge()`` already sanctions."""
        findings, _ = lint_source(
            tmp_path,
            "def fold(state, other_state):\n"
            "    return state + other_state\n",
            rel="protocol/agg.py",
        )
        assert findings == []

    def test_api_modules_are_exempt(self, tmp_path):
        findings, _ = lint_source(tmp_path, STATE_SUB_BAD, rel="api/arithmetic.py")
        assert findings == []

    def test_streaming_modules_are_exempt(self, tmp_path):
        findings, _ = lint_source(tmp_path, STATE_AUG_BAD, rel="streaming/window.py")
        assert findings == []

    def test_non_state_names_not_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def bill(estate, rate):\n"
            "    statement = estate * rate\n"
            "    return statement - 1.0\n",
            rel="service/core.py",
        )
        assert findings == []

    def test_test_modules_not_checked(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, STATE_SUB_BAD, rel="protocol/test_agg.py"
        )
        assert findings == []


# ----------------------------------------------------------------------
# FT001
# ----------------------------------------------------------------------

SWALLOW_BAD = (
    "def drain(queue):\n"
    "    while True:\n"
    "        block = queue.get()\n"
    "        try:\n"
    "            fold(block)\n"
    "        except Exception:\n"
    "            pass\n"
)


class TestFt001:
    def test_swallowed_drain_loop_flagged(self, tmp_path):
        findings, _ = lint_source(tmp_path, SWALLOW_BAD, rel="service/core.py")
        assert codes(findings) == ["FT001"]
        assert "swallows" in findings[0].message

    def test_bare_except_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        return None\n",
            rel="service/http.py",
        )
        assert codes(findings) == ["FT001"]

    def test_tuple_containing_broad_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except (ValueError, Exception):\n"
            "        return None\n",
            rel="service/core.py",
        )
        assert codes(findings) == ["FT001"]

    def test_error_counter_update_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "class Shard:\n"
            "    def drain(self, queue):\n"
            "        try:\n"
            "            fold(queue.get())\n"
            "        except Exception:\n"
            "            self._counters.errors += 1\n",
            rel="service/core.py",
        )
        assert findings == []

    def test_bound_exception_recorded_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "class Shard:\n"
            "    def drain(self, queue):\n"
            "        try:\n"
            "            fold(queue.get())\n"
            "        except Exception as exc:\n"
            "            self.last = repr(exc)\n",
            rel="service/core.py",
        )
        assert findings == []

    def test_reraise_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        cleanup()\n"
            "        raise\n",
            rel="service/core.py",
        )
        assert findings == []

    def test_narrow_handler_ok(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            "import queue\n"
            "def f(q):\n"
            "    try:\n"
            "        q.put_nowait(None)\n"
            "    except queue.Full:\n"
            "        pass\n",
            rel="service/core.py",
        )
        assert findings == []

    def test_non_service_modules_not_checked(self, tmp_path):
        findings, _ = lint_source(tmp_path, SWALLOW_BAD, rel="engine/solve.py")
        assert findings == []

    def test_test_modules_not_checked(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, SWALLOW_BAD, rel="service/test_core.py"
        )
        assert findings == []
