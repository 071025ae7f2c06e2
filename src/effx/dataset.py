"""Decision-making-unit datasets: parsing, validation, summary statistics.

A dataset is an ordered collection of units, each with strictly positive
inputs and non-negative outputs. The package ships a 30-unit dataset of
Italian airport operators (2019 figures) as a bundled fixture.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Sequence

import numpy as np

__all__ = [
    "ColumnSummary",
    "DataValidationError",
    "Dataset",
    "DmuRecord",
    "DuplicateId",
    "FIXTURE_INPUTS",
    "FIXTURE_OUTPUTS",
    "InvalidDataset",
    "MissingColumn",
    "NonNumericCell",
    "NonPositiveInput",
    "SummaryStats",
    "bundled_fixture",
    "parse_dataset",
    "serialize_dataset",
    "summarize",
]

FIXTURE_INPUTS = ("EMPLOYEES", "CHINDESKS", "RUNWAYMT", "PRODCOSTS")
FIXTURE_OUTPUTS = ("TOTPAX", "GOODS", "TOTPLANES", "TOTREVENUES")
_FIXTURE_FILE = "italian_airports_2019.csv"


class DataValidationError(Exception):
    """Base class for dataset ingestion and invariant failures."""


class MissingColumn(DataValidationError):
    def __init__(self, column: str):
        super().__init__(f"required column {column!r} not found in header")
        self.column = column


class NonNumericCell(DataValidationError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}, column {column!r}: not a number: {value!r}")
        self.row = row
        self.column = column


class NonPositiveInput(DataValidationError):
    def __init__(self, row: int, column: str, value: float):
        super().__init__(f"row {row}, column {column!r}: input must be > 0, got {value}")
        self.row = row
        self.column = column


class DuplicateId(DataValidationError):
    def __init__(self, dmu_id: str):
        super().__init__(f"duplicate unit id {dmu_id!r}")
        self.dmu_id = dmu_id


class InvalidDataset(DataValidationError):
    """A structural invariant (n >= 1, column lengths, value signs) failed."""


@dataclass(frozen=True)
class DmuRecord:
    """One evaluated unit: strictly positive inputs, non-negative outputs."""

    id: str
    name: str
    inputs: tuple[float, ...]
    outputs: tuple[float, ...]
    group: bool = False


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of units sharing input/output columns."""

    dmus: tuple[DmuRecord, ...]
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dmus", tuple(self.dmus))
        object.__setattr__(self, "input_names", tuple(self.input_names))
        object.__setattr__(self, "output_names", tuple(self.output_names))
        if len(self.dmus) < 1:
            raise InvalidDataset("a dataset needs at least one unit (n >= 1)")
        if len(self.input_names) < 1 or len(self.output_names) < 1:
            raise InvalidDataset("at least one input and one output column required")
        seen: set[str] = set()
        for rec in self.dmus:
            if rec.id in seen:
                raise DuplicateId(rec.id)
            seen.add(rec.id)
            if len(rec.inputs) != self.m:
                raise InvalidDataset(f"unit {rec.id!r}: expected {self.m} inputs")
            if len(rec.outputs) != self.s:
                raise InvalidDataset(f"unit {rec.id!r}: expected {self.s} outputs")
            for col, v in zip(self.input_names, rec.inputs):
                if not np.isfinite(v) or v <= 0.0:
                    raise InvalidDataset(
                        f"unit {rec.id!r}, input {col!r}: must be finite and > 0, got {v}"
                    )
            for col, v in zip(self.output_names, rec.outputs):
                if not np.isfinite(v) or v < 0.0:
                    raise InvalidDataset(
                        f"unit {rec.id!r}, output {col!r}: must be finite and >= 0, got {v}"
                    )

    @property
    def n(self) -> int:
        return len(self.dmus)

    @property
    def m(self) -> int:
        return len(self.input_names)

    @property
    def s(self) -> int:
        return len(self.output_names)

    @property
    def strong_rule(self) -> bool:
        """n > 3 (m + s): comfortable discriminatory power."""
        return self.n > 3 * (self.m + self.s)

    @property
    def weak_rule(self) -> bool:
        """n >= m + s: minimal discriminatory power."""
        return self.n >= self.m + self.s

    @cached_property
    def input_matrix(self) -> np.ndarray:
        """n x m array of inputs (read-only)."""
        X = np.array([rec.inputs for rec in self.dmus], dtype=float)
        X.setflags(write=False)
        return X

    @cached_property
    def output_matrix(self) -> np.ndarray:
        """n x s array of outputs (read-only)."""
        Y = np.array([rec.outputs for rec in self.dmus], dtype=float)
        Y.setflags(write=False)
        return Y


def _parse_number(raw: str, row: int, column: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise NonNumericCell(row, column, raw) from None


def parse_dataset(
    text: str,
    input_names: Sequence[str],
    output_names: Sequence[str],
) -> Dataset:
    """Parse CSV text into a validated Dataset.

    The header must contain an ``id`` column plus every schema column;
    ``name`` and ``GROUP`` columns are optional. Column order follows the
    schema arguments, not the file.
    """
    input_names = tuple(input_names)
    output_names = tuple(output_names)
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    for required in ("id", *input_names, *output_names):
        if required not in header:
            raise MissingColumn(required)
    has_name = "name" in header
    has_group = "GROUP" in header

    records: list[DmuRecord] = []
    ids: set[str] = set()
    for row_no, row in enumerate(reader, start=1):
        dmu_id = (row["id"] or "").strip()
        if dmu_id in ids:
            raise DuplicateId(dmu_id)
        ids.add(dmu_id)
        inputs = []
        for col in input_names:
            v = _parse_number(row[col], row_no, col)
            if not v > 0.0:
                raise NonPositiveInput(row_no, col, v)
            inputs.append(v)
        outputs = [_parse_number(row[col], row_no, col) for col in output_names]
        group = False
        if has_group:
            group = _parse_number(row["GROUP"], row_no, "GROUP") != 0.0
        records.append(
            DmuRecord(
                id=dmu_id,
                name=row["name"] if has_name else dmu_id,
                inputs=tuple(inputs),
                outputs=tuple(outputs),
                group=group,
            )
        )
    return Dataset(dmus=tuple(records), input_names=input_names, output_names=output_names)


def serialize_dataset(ds: Dataset) -> str:
    """Write a Dataset back to CSV text; parse(serialize(ds)) == ds."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "name", *ds.input_names, *ds.output_names, "GROUP"])
    for rec in ds.dmus:
        writer.writerow(
            [rec.id, rec.name, *map(repr, rec.inputs), *map(repr, rec.outputs), int(rec.group)]
        )
    return buf.getvalue()


@dataclass(frozen=True)
class ColumnSummary:
    name: str
    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float
    stdev: float


@dataclass(frozen=True)
class SummaryStats:
    """Per-column order statistics and moments, inputs first then outputs.

    ``stdev_defined`` is False for single-row datasets, where the sample
    standard deviation is reported as 0.
    """

    columns: tuple[ColumnSummary, ...]
    stdev_defined: bool


def summarize(ds: Dataset) -> SummaryStats:
    """Column summaries with quartiles by linear interpolation of order
    statistics and sample (n - 1) standard deviations."""
    names = ds.input_names + ds.output_names
    data = np.hstack([ds.input_matrix, ds.output_matrix])
    defined = ds.n > 1
    cols = []
    for j, name in enumerate(names):
        v = data[:, j]
        q = np.quantile(v, [0.0, 0.25, 0.5, 0.75, 1.0])
        sd = float(np.std(v, ddof=1)) if defined else 0.0
        cols.append(
            ColumnSummary(
                name=name,
                minimum=float(q[0]),
                q1=float(q[1]),
                median=float(q[2]),
                mean=float(np.mean(v)),
                q3=float(q[3]),
                maximum=float(q[4]),
                stdev=sd,
            )
        )
    return SummaryStats(columns=tuple(cols), stdev_defined=defined)


def bundled_fixture() -> Dataset:
    """The bundled 30-unit airport dataset (4 inputs, 4 outputs).

    Six units aggregate several airports run by one corporate group and
    carry the group flag.
    """
    text = resources.files("effx").joinpath(f"data/{_FIXTURE_FILE}").read_text("utf-8")
    return parse_dataset(text, FIXTURE_INPUTS, FIXTURE_OUTPUTS)
