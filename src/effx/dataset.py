"""Decision-making-unit datasets: parsing, validation, summary statistics.

A dataset is an ordered collection of units, each with strictly positive
inputs and non-negative outputs. The package ships a 30-unit dataset of
Italian airport operators (2019 figures) as a bundled fixture.

CSV text reads as ``csv.DictReader`` reads it. A plain text (no quotes,
carriage returns or NULs, as many commas on every line as in the header)
is split on ',' in one call; any other goes through ``csv.reader`` (see
_csv_columns). The CLI's score and covariate readers share this reader.
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
        # Checked a column at a time; only a dataset that fails is scanned
        # unit by unit, to raise the error of the first bad unit.
        X = Y = None
        shapes = {(len(rec.inputs), len(rec.outputs)) for rec in self.dmus}
        if len({rec.id for rec in self.dmus}) == self.n and shapes == {(self.m, self.s)}:
            X = np.array([rec.inputs for rec in self.dmus])
            Y = np.array([rec.outputs for rec in self.dmus])
        numeric = X is not None and X.dtype.kind in "biuf" and Y.dtype.kind in "biuf"
        if not (numeric and np.isfinite(X).all() and (X > 0).all() and np.isfinite(Y).all() and (Y >= 0).all()):
            self._raise_first_error()
        if numeric:
            for name, matrix in (("input_matrix", X), ("output_matrix", Y)):
                matrix = matrix.astype(float)
                matrix.setflags(write=False)
                object.__setattr__(self, name, matrix)

    def _raise_first_error(self):
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
    schema arguments, not the file. Rows read as ``csv.DictReader`` reads
    them (see _csv_columns).

    Whole columns are converted at once; if that fails, a scan of the rows
    in order raises the error of the first bad cell.
    """
    input_names = tuple(input_names)
    output_names = tuple(output_names)
    header, cells, error = _csv_columns(text)
    for required in ("id", *input_names, *output_names):
        if required not in header:
            raise MissingColumn(required)
    ids = [(rid or "").strip() for rid in cells["id"]]
    if error:  # csv.DictReader yields the rows before the one it cannot read
        _raise_first_bad_cell(ids, cells, input_names, output_names)
        raise error
    try:
        inputs = [list(map(float, cells[col])) for col in input_names]
        outputs = [list(map(float, cells[col])) for col in output_names]
        group = [v != 0.0 for v in map(float, cells["GROUP"])] if "GROUP" in cells else [False] * len(ids)
        valid = len(set(ids)) == len(ids) and (np.array(inputs) > 0.0).all()
    except (TypeError, ValueError):
        valid = False
    if not valid:
        _raise_first_bad_cell(ids, cells, input_names, output_names)
    names = cells["name"] if "name" in cells else ids
    records = tuple(
        DmuRecord(id=dmu_id, name=name, inputs=x, outputs=y, group=g)
        for dmu_id, name, x, y, g in zip(ids, names, zip(*inputs), zip(*outputs), group)
    )
    return Dataset(dmus=records, input_names=input_names, output_names=output_names)


def _csv_columns(text: str) -> tuple[list[str], dict[str, Sequence[str | None]], csv.Error | None]:
    """The header of CSV text, its cells by header name and the
    ``csv.Error`` that stopped the rows, if one did.

    Cells read as ``csv.DictReader`` reads them: blank rows are skipped, a
    short row reads None for its missing cells, the cells of a long row
    past the header are dropped, and a repeated header name reads its last
    column. A ``csv.Error`` in a row is returned, not raised, with the
    cells of the rows before it: ``csv.DictReader`` hands over the header
    and those rows first, so a caller checks them before raising it.

    A plain text is split on ',' in one call: its header line is not
    empty, it holds no '"', '\\r' or NUL, every non-blank line holds
    exactly as many commas as the header, and no line is longer than
    ``csv.field_size_limit()``. Any other text goes through
    ``csv.reader``, the only path that reads quoted fields and ragged
    rows. Either way a line ends at '\\n' only, as ``io.StringIO`` splits
    text into lines.
    """
    head = text.partition("\n")[0]
    header = head.split(",")
    width = len(header)
    plain = _plain_rows(text, head, width)
    if plain is None:
        reader = csv.reader(io.StringIO(text))
        header = next(reader, [])
        width = len(header)
        rows, error = [], None
        try:
            for row in reader:
                if row:
                    rows.append(row)
        except csv.Error as err:
            error = err
        if set(map(len, rows)) - {width}:
            rows = [(row + [None] * width)[:width] for row in rows]
        return header, dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ()), error
    flat = plain.split(",") if plain else []
    return header, {name: flat[j::width] for j, name in enumerate(header)}, None


def _plain_rows(text: str, head: str, width: int) -> str | None:
    """The non-blank lines of a plain text after its header line, joined
    by ',', or None if the text is not plain (see _csv_columns).

    Lines and commas are counted over the UTF-8 bytes, where ',' and '\\n'
    never occur inside a multi-byte character; a length in bytes bounds
    the length in characters from above."""
    if not head or any(special in text for special in '"\r\0'):
        return None
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    ends = np.concatenate(([-1], np.flatnonzero(raw == ord("\n")), [raw.size]))
    length = np.diff(ends) - 1
    commas = np.diff(np.searchsorted(np.flatnonzero(raw == ord(",")), ends))
    if length.max() > csv.field_size_limit() or (commas[length > 0] != width - 1).any():
        return None
    body = text[len(head) + 1 :]
    if (length[1:-1] == 0).any():  # a blank line before the last line
        return ",".join(filter(None, body.split("\n")))
    return body.rstrip("\n").replace("\n", ",")


def _raise_first_bad_cell(
    ids: list[str], cells: dict[str, Sequence[str | None]], input_names: tuple[str, ...], output_names: tuple[str, ...]
):
    """Scan the rows in order and raise the first row's first error: a
    repeated id, then its inputs, outputs and GROUP cell in turn."""
    seen: set[str] = set()
    for i, dmu_id in enumerate(ids):
        row_no = i + 1
        if dmu_id in seen:
            raise DuplicateId(dmu_id)
        seen.add(dmu_id)
        for col in input_names:
            v = _parse_number(cells[col][i], row_no, col)
            if not v > 0.0:
                raise NonPositiveInput(row_no, col, v)
        for col in output_names:
            _parse_number(cells[col][i], row_no, col)
        if "GROUP" in cells:
            _parse_number(cells["GROUP"][i], row_no, "GROUP")


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
