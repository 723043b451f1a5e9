"""ServiceConfig validation."""

import pytest

from repro.service import ServiceConfig
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, Mean


@pytest.fixture(scope="module")
def plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=32),
            AttributeSpec("income", low=0.0, high=1e5, d=32),
        ),
        tasks=(Distribution("age"), Mean("income")),
    )


class TestServiceConfig:
    def test_defaults(self, plan):
        config = ServiceConfig(plan=plan)
        assert config.n_shards == 2

    def test_queue_depth_is_not_an_option(self, plan):
        with pytest.raises(TypeError, match="queue_depth"):
            ServiceConfig(plan=plan, queue_depth=2)

    def test_planned_is_resolved_once_and_cached(self, plan):
        config = ServiceConfig(plan=plan)
        assert config.planned is config.planned
        assert set(config.planned.allocation) == {"age", "income"}

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_shards": 0}, "n_shards"),
            ({"max_body_bytes": 0}, "max_body_bytes"),
        ],
    )
    def test_invalid_knobs_rejected(self, plan, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServiceConfig(plan=plan, **kwargs)

    def test_from_plan_file(self, plan, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        config = ServiceConfig.from_plan_file(path, n_shards=4)
        assert config.plan.to_dict() == plan.to_dict()
        assert config.n_shards == 4
