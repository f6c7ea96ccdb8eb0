"""RL002 rng-discipline: no global or constant-seeded randomness in src."""

from __future__ import annotations

from tests.lint.conftest import rule_ids

GLOBAL_SEED = """
import numpy as np

def setup():
    np.random.seed(0)
"""

STDLIB_RANDOM = """
import random

def jitter():
    return random.random()
"""

ARGLESS_DEFAULT_RNG = """
import numpy as np

def make_rng():
    return np.random.default_rng()
"""

CONSTANT_SEEDED_FACTORY = """
from dataclasses import dataclass, field
import numpy as np

@dataclass
class Device:
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(3))
"""

GLOBAL_DRAW = """
import numpy as np

def noise(n):
    return np.random.uniform(size=n)
"""

SEED_THREADED = """
import numpy as np

def make_rng(seed):
    return np.random.default_rng(seed)

def noise(rng, n):
    return rng.normal(size=n)
"""


def test_np_random_seed_is_flagged(lint_snippet):
    result = lint_snippet(GLOBAL_SEED, rel_path="repro/iot/device.py", rules=["RL002"])
    assert rule_ids(result) == ["RL002"]
    assert "np.random.seed" in result.findings[0].message


def test_stdlib_random_import_is_flagged(lint_snippet):
    result = lint_snippet(STDLIB_RANDOM, rel_path="repro/iot/device.py", rules=["RL002"])
    assert "RL002" in rule_ids(result)


def test_argless_default_rng_is_flagged(lint_snippet):
    result = lint_snippet(
        ARGLESS_DEFAULT_RNG, rel_path="repro/iot/device.py", rules=["RL002"]
    )
    assert rule_ids(result) == ["RL002"]
    assert "no seed" in result.findings[0].message


def test_constant_seeded_default_factory_is_flagged(lint_snippet):
    result = lint_snippet(
        CONSTANT_SEEDED_FACTORY, rel_path="repro/iot/device.py", rules=["RL002"]
    )
    assert rule_ids(result) == ["RL002"]
    assert "constant-seeded" in result.findings[0].message


def test_global_numpy_draw_is_flagged(lint_snippet):
    result = lint_snippet(GLOBAL_DRAW, rel_path="repro/iot/device.py", rules=["RL002"])
    assert rule_ids(result) == ["RL002"]


def test_seed_threaded_generator_is_clean(lint_snippet):
    result = lint_snippet(SEED_THREADED, rel_path="repro/iot/device.py", rules=["RL002"])
    assert rule_ids(result) == []


def test_tests_and_testing_module_are_out_of_scope(lint_snippet):
    for rel in ("tests/iot/test_device.py", "repro/testing.py"):
        result = lint_snippet(GLOBAL_SEED, rel_path=rel, rules=["RL002"])
        assert rule_ids(result) == [], rel


def test_inline_suppression_is_honoured(lint_snippet):
    suppressed = CONSTANT_SEEDED_FACTORY.replace(
        "np.random.default_rng(3))",
        "np.random.default_rng(3))  # repro-lint: disable=RL002",
    )
    result = lint_snippet(suppressed, rel_path="repro/iot/device.py", rules=["RL002"])
    assert rule_ids(result) == []
    assert result.suppressed == 1
