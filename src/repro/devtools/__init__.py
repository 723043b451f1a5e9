"""repro.devtools — machine-checked invariants for the repro codebase.

The estimator contract rests on conventions that code review alone cannot
hold at scale: every randomized component threads ``rng`` through
``repro.utils.rng.as_generator`` (bit-reproducible sweeps), raw user values
never reach a ``repro.protocol`` encode path unprivatized (the eps-LDP
boundary), every ``epsilon`` is validated positive, probability math never
divides or logs unguarded, hot solver paths never materialize dense
channels, service coroutines never block the event loop or swallow a
failure, and window state is maintained only through the sanctioned state
arithmetic.

``reprolint`` turns those conventions into a stdlib-``ast`` static analysis
pass::

    python -m repro.devtools.lint src tests examples

See :mod:`repro.devtools.rules` for the rule catalogue and the README's
"Correctness tooling" section for suppression etiquette. That every
concrete estimator family is registered is checked at runtime, against the
registry itself, by ``tests/api/test_registry.py``.
"""

from repro.devtools.analyzer import AnalyzedModule, analyze_paths, load_module
from repro.devtools.findings import Finding
from repro.devtools.rules import RULES, rule_catalog

__all__ = [
    "AnalyzedModule",
    "Finding",
    "RULES",
    "analyze_paths",
    "load_module",
    "rule_catalog",
]
