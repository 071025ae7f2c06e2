import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from effx.dataset import Dataset, DmuRecord, bundled_fixture

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def airports() -> Dataset:
    return bundled_fixture()


def random_dataset(rng: np.random.Generator, n: int, m: int = 2, s: int = 2) -> Dataset:
    """Small synthetic dataset with positive inputs and positive outputs."""
    records = []
    for i in range(n):
        inputs = tuple(float(v) for v in rng.uniform(0.5, 10.0, m))
        outputs = tuple(float(v) for v in rng.uniform(0.5, 10.0, s))
        records.append(DmuRecord(id=f"u{i}", name=f"unit {i}", inputs=inputs, outputs=outputs))
    return Dataset(
        dmus=tuple(records),
        input_names=tuple(f"in{j}" for j in range(m)),
        output_names=tuple(f"out{j}" for j in range(s)),
    )


def index_of(ds: Dataset, dmu_id: str) -> int:
    """Position of the unit with id dmu_id in ds."""
    for i, rec in enumerate(ds.dmus):
        if rec.id == dmu_id:
            return i
    raise KeyError(dmu_id)


def collapsing_rows(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """68 (x, y) rows whose Tobit likelihood on [0, 1] has no maximum: one
    interior row (0.5, 0.5), which any line through it fits exactly, and
    rows at 0 with x in (-1, -0.1) and at 1 with x in (1.1, 2), which the
    line y = x agrees with."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.5], rng.uniform(-1, -0.1, 33), rng.uniform(1.1, 2, 34)])
    y = np.concatenate([[0.5], np.zeros(33), np.ones(34)])
    return x, y
