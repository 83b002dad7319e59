"""Dataset ingestion, splitting, and missing-value mask generation.

A :class:`MaskedDataset` is an instances-by-variables matrix plus a boolean
observed mask; hidden cells hold NaN so accidental use is loud.  The module
also implements the benchmark's experimental protocol: deterministic equal
train/test splits and per-cell Bernoulli hiding, both driven by integer
seeds derived from a single base seed.

Every CSV the package writes gives floats as their shortest round-trip ``repr``.
All but the benchmark grid's (LF line ends) go through :func:`_write_csv`:
UTF-8, CRLF line ends, hidden cells empty.

:func:`load_csv` picks its path before it parses.  One scan of the body
(:func:`_needs_csv_pass`) sends a file with an empty or blank cell, a comma
next to whitespace or a quote, or an underscore to the ``csv`` module, which
reads it row by row and parses each cell with ``float()``.  Any other body is
parsed in one ``np.loadtxt`` call, which rounds as ``float()`` does (both call
``PyOS_string_to_double``).  When that call refuses the body or reads a
non-finite value, the ``csv`` pass reads the file again and names the first
bad cell.  The scan reads 64K characters at a time and ``np.loadtxt`` a line
at a time, so no path holds the whole text at once.
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateColumnError,
    EmptyInputError,
    InvalidInputError,
    OutOfRangeError,
    ParseError,
    ValidationError,
    _integer,
)

__all__ = [
    "MaskedDataset",
    "ExperimentProtocol",
    "load_csv",
    "save_csv",
    "make_split",
    "apply_missing_mask",
    "derive_seed",
    "prepare_communities_csv",
]

# Rows that load_csv's csv pass parses at once; a block's cell strings are
# all held at once, so the block bounds that memory.
_PARSE_ROWS = 64

# Purpose tags mixed into derived seeds so different uses of the same base
# seed get independent streams.
SEED_TAG_SPLIT = 1
SEED_TAG_MASK_TRAIN = 2
SEED_TAG_MASK_TEST = 3
SEED_TAG_SAMPLE = 4

# Columns of the raw communities file that identify rather than measure
# (dataset's own documentation marks them non-predictive).
_CRIME_IDENTIFIER_COLUMNS = ("state", "county", "community", "communityname", "fold")


def derive_seed(*components):
    """Deterministic 32-bit seed from non-negative integer components.

    Streams derived from distinct component tuples are statistically
    independent; the result is a plain int so it can be recorded in output
    rows and reused verbatim.
    """
    seeds = [_integer(c, "seed component", 0, OutOfRangeError) for c in components]
    seq = np.random.SeedSequence(seeds)
    return int(seq.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True, eq=False)
class MaskedDataset:
    """Real-valued instance matrix with a per-cell observed mask.

    Attributes
    ----------
    values : ndarray, shape (M, N)
        Cell values; hidden cells are NaN.
    observed : ndarray of bool, shape (M, N)
        True where the cell is observed.
    column_names : tuple of str
    """

    values: np.ndarray
    observed: np.ndarray
    column_names: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        if values.ndim != 2:
            raise InvalidInputError(f"values must be 2-d, got shape {values.shape}")
        if observed.shape != values.shape:
            raise InvalidInputError(
                f"mask shape {observed.shape} does not match values shape {values.shape}"
            )
        names = tuple(str(n) for n in self.column_names)
        if len(names) != values.shape[1]:
            raise InvalidInputError(
                f"{len(names)} column names for {values.shape[1]} columns"
            )
        if not np.all(np.isfinite(values[observed])):
            raise InvalidInputError("observed cells contain non-finite values")
        values = values.copy()
        values[~observed] = np.nan
        values.setflags(write=False)
        observed = observed.copy()
        observed.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "column_names", names)

    @classmethod
    def from_values(cls, values, column_names=None):
        """Build from a matrix where NaN marks hidden cells."""
        values = np.asarray(values, dtype=float)
        if column_names is None:
            column_names = tuple(f"x{i}" for i in range(values.shape[1]))
        return cls(values, ~np.isnan(values), tuple(column_names))

    @property
    def num_rows(self):
        return self.values.shape[0]

    @property
    def num_cols(self):
        return self.values.shape[1]

    @property
    def fully_observed(self):
        return bool(self.observed.all())

    def take_rows(self, indices):
        indices = np.asarray(indices, dtype=int)
        return MaskedDataset(self.values[indices], self.observed[indices], self.column_names)

    def take_columns(self, indices):
        indices = np.asarray(indices, dtype=int)
        names = tuple(self.column_names[i] for i in indices)
        return MaskedDataset(self.values[:, indices], self.observed[:, indices], names)


@dataclass(frozen=True)
class ExperimentProtocol:
    """Split/mask protocol of the benchmark.

    Attributes
    ----------
    num_splits : int
        Number of random equal train/test splits, at least 1.
    base_seed : int
        Root of all derived randomness, non-negative.
    mask_scope : str
        "train_only" hides cells only in training halves; "train_and_test"
        hides in both (test scores then use the missing-data bound).
    """

    num_splits: int = 10
    base_seed: int = 0
    mask_scope: str = "train_only"

    def __post_init__(self):
        for name, floor in (("num_splits", 1), ("base_seed", 0)):
            value = _integer(getattr(self, name), name, floor, ValidationError)
            object.__setattr__(self, name, value)
        if self.mask_scope not in ("train_only", "train_and_test"):
            raise ValidationError(f"unknown mask_scope {self.mask_scope!r}")


def load_csv(path):
    """Read a comma-separated table with a header row into a dataset.

    The file is UTF-8, with or without a byte-order mark.  Empty cells
    become masked entries.  Columns must parse as decimal
    numbers everywhere they are non-empty; constant columns and columns
    with fewer than two observed values are rejected.

    A body that :func:`_needs_csv_pass` finds plain (no empty or blank
    cell, no comma next to whitespace or a quote, no underscore) is parsed
    in one ``np.loadtxt`` call, which rounds each cell as ``float()`` does.
    Every other body, and one that call refuses or reads a non-finite
    value from, is read by the ``csv`` module row by row, which also finds
    the first bad cell for the message.  Both give the same values, errors
    and messages.

    Raises
    ------
    ParseError
        Malformed header, ragged rows, or a non-numeric, infinite or
        ``nan`` cell (the message names the 1-based row and column).
    DegenerateColumnError
        A constant or nearly-empty column (the message names it).
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        # readline, not the file's own iterator, keeps fh.tell() usable.
        reader = csv.reader(iter(fh.readline, ""))
        names = _header(path, reader)
        values = _parse_body(fh, len(names))
        if values is None:
            if fh.seekable():
                # From the start, so the decoder's chunks and the reader's
                # line count fall as in one pass over the file.
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)  # the header, already read and checked
            values = _parse_rows(path, names, reader)
    if not values.shape[0]:
        raise EmptyInputError(f"{path}: no data rows")
    data = MaskedDataset.from_values(values, tuple(names))
    for j, name in enumerate(data.column_names):
        col = data.values[data.observed[:, j], j]
        if col.size < 2:
            raise DegenerateColumnError(
                f"column '{name}' has {col.size} observed values; need at least 2"
            )
        if float(col.max()) == float(col.min()):
            raise DegenerateColumnError(f"column '{name}' is constant; it cannot be modeled")
    return data


def _header(path, reader):
    """The stripped column names of the header row ``reader`` reads next."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: file is empty") from None
    except (csv.Error, UnicodeDecodeError) as err:
        raise _unreadable(path, reader, err) from None
    names = [h.strip() for h in header]
    if any(not n for n in names):
        raise ParseError(f"{path}: header has an empty column name")
    if len(set(names)) != len(names):
        raise ParseError(f"{path}: header has duplicate column names")
    return names


def _parse_body(fh, width):
    """The rest of ``fh`` as a (rows, ``width``) array from one ``np.loadtxt``
    call, or None where the csv pass must read it: :func:`_needs_csv_pass`
    says so, or the call refuses a cell, finds no row, the wrong number of
    columns or a non-finite value.  A stream that cannot seek (a pipe) is
    left to the csv pass, which reads it once."""
    if not fh.seekable():
        return None
    start = fh.tell()
    try:
        if _needs_csv_pass(fh):
            return None
        fh.seek(start)
        with warnings.catch_warnings():
            # loadtxt warns on a body with no rows; the csv pass reports it.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:  # a cell loadtxt cannot read, or bytes that are not UTF-8
        return None
    if values.shape[0] and values.shape[1] == width and np.isfinite(values).all():
        return values
    return None


def _needs_csv_pass(fh):
    """Whether the rest of ``fh`` holds text that only the csv pass reads
    as ``float()`` of each stripped cell does, read in chunks that double
    from 8K to 64K characters.

    That is a comma next to another comma, a line end or any ASCII
    character below it (so every empty or blank cell, a cell padded with
    ASCII whitespace, and a quoted one), an underscore, or a whole chunk
    without a comma or line end.  No chunk is longer than half the csv
    module's field limit, so a field over that limit covers a whole chunk.
    Anything else ``np.loadtxt`` either reads as the csv pass would, or
    refuses.
    """
    cap = min(1 << 16, (csv.field_size_limit() + 1) // 2)
    size = min(1 << 13, cap)  # small at first: a file with hidden cells shows one early
    last = b"\n"  # the body starts a line
    while chunk := fh.read(size):
        if "_" in chunk:
            return True
        if len(chunk) == size and not ("," in chunk or "\n" in chunk or "\r" in chunk):
            return True
        # UTF-8 keeps each ASCII character one byte and writes no other byte below 128.
        text = np.frombuffer(last + chunk.encode(), np.uint8)
        if (np.maximum(text[1:], text[:-1]) == ord(",")).any():
            return True
        last = text[-1:].tobytes()
        size = min(2 * size, cap)
    return last == b","


def _parse_rows(path, names, reader):
    """The (rows, columns) values of the rows ``reader`` reads after the header,
    parsed ``_PARSE_ROWS`` at a time by :func:`_parse_cells`."""
    blocks, rows, line_numbers, failure = [], [], [], None
    try:
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                failure = ParseError(
                    f"{path}: row {r} has {len(row)} cells, expected {len(names)}"
                )
                break
            rows.append(row)
            line_numbers.append(r)
            if len(rows) == _PARSE_ROWS:
                blocks.append(_parse_cells(path, names, rows, line_numbers))
                rows, line_numbers = [], []
    except (csv.Error, UnicodeDecodeError) as err:
        failure = _unreadable(path, reader, err)
    # Parsed before the failure is raised: a bad cell in a row read before
    # it is reported first.  Bytes that are not UTF-8 fail the whole chunk
    # the decoder reads them in (8 KB), so no row of that chunk is read.
    blocks.append(_parse_cells(path, names, rows, line_numbers))
    if failure is not None:
        raise failure
    return np.concatenate(blocks)


def _unreadable(path, reader, err):
    """The ``ParseError`` for bytes that are not UTF-8 or a line the csv reader
    rejects.  A decode error's position counts from its chunk, so it is left out."""
    if isinstance(err, UnicodeDecodeError):
        return ParseError(f"{path}: not UTF-8 text ({err.reason})")
    return ParseError(f"{path}: line {reader.line_num}: {err}")


def _parse_cells(path, names, rows, line_numbers):
    """The (rows, columns) values of CSV rows: Python ``float`` of each cell,
    NaN for an empty one.  All cells are parsed in one pass; only when one
    fails does a cell-by-cell pass find the first bad cell for the message
    (1-based row and column)."""
    cells = [cell.strip() for row in rows for cell in row]
    try:
        values = np.fromiter(map(float, [cell or "nan" for cell in cells]), float, len(cells))
        clean = not any(cells[i] for i in np.flatnonzero(~np.isfinite(values)).tolist())
    except ValueError:
        clean = False
    if not clean:
        for r, row in zip(line_numbers, rows):
            for c, cell in enumerate(row):
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {r}, column {c + 1} ({names[c]}): cannot parse {cell!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: row {r}, column {c + 1} ({names[c]}): {cell!r} is not a finite number"
                    )
    return values.reshape(len(rows), len(names))


def _write_csv(path, header, rows):
    """Write a header row and then ``rows`` as UTF-8 CSV; floats come out as
    their shortest round-trip ``repr`` and ``None`` as an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(data, path):
    """Write a dataset as CSV that :func:`load_csv` reads back bit for bit:
    observed cells as their shortest round-trip ``repr``, hidden cells empty."""
    _write_csv(path, data.column_names, np.where(data.observed, data.values, None).tolist())


def make_split(data, protocol, split_index):
    """Deterministic equal train/test split.

    The row permutation is a pure function of ``(base_seed, split_index)``;
    halves are returned in ascending original-row order, train first.
    """
    split_index = _integer(split_index, "split_index", 0, OutOfRangeError)
    if split_index >= protocol.num_splits:
        raise OutOfRangeError(
            f"split_index {split_index} outside [0, {protocol.num_splits})"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence([protocol.base_seed, SEED_TAG_SPLIT, split_index])
    )
    perm = rng.permutation(data.num_rows)
    n_train = (data.num_rows + 1) // 2  # the extra row of an odd count goes to train
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return data.take_rows(train_idx), data.take_rows(test_idx)


def apply_missing_mask(data, p, seed):
    """Hide each observed cell independently with probability ``p``.

    Deterministic given ``seed``.  If hiding would leave a column with
    fewer than two observed values, the newly hidden cells with the lowest
    row indices in that column are restored; this keeps every column
    fittable and (for realistic p) almost never triggers.
    """
    if not 0.0 <= p < 1.0:
        raise OutOfRangeError(f"missing fraction must be in [0,1), got {p}")
    seed = _integer(seed, "seed", 0, OutOfRangeError)
    if p == 0.0:
        return data
    rng = np.random.default_rng(seed)
    hide = rng.random(data.values.shape) < p
    observed = data.observed & ~hide
    for j in range(data.num_cols):
        short = 2 - int(observed[:, j].sum())
        if short > 0:
            restorable = np.nonzero(data.observed[:, j] & ~observed[:, j])[0]
            observed[restorable[:short], j] = True
    values = np.where(observed, data.values, np.nan)
    return MaskedDataset(values, observed, data.column_names)


def _parse_names_file(text):
    names = []
    for line in text.splitlines():
        line = line.strip()
        if line.lower().startswith("@attribute"):
            parts = line.split()
            if len(parts) >= 2:
                names.append(parts[1])
    return names


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def prepare_communities_csv(data_path, names_path, out_path):
    """Convert the raw communities table to this package's CSV contract.

    The raw file is headerless and comma-separated with ``?`` marking
    missing values.  The recipe, recorded here so runs are reproducible:

    1. attach column names parsed from the companion names file
       (``@attribute`` lines; generic ``col_i`` names if none found);
    2. drop the identifier columns (state, county, community,
       communityname, fold) and any column with a non-numeric cell;
    3. drop columns missing in more than half of the rows;
    4. write the survivors as a header CSV with ``?`` turned into empty
       cells.

    Returns the list of kept column names.
    """
    with open(data_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            raw_rows = [[cell.strip() for cell in row] for row in reader if row]
        except (csv.Error, UnicodeDecodeError) as err:
            raise _unreadable(data_path, reader, err) from None
    if not raw_rows:
        raise ParseError(f"{data_path}: no rows")
    width = len(raw_rows[0])
    for r, row in enumerate(raw_rows, start=1):
        if len(row) != width:
            raise ParseError(f"{data_path}: row {r} has {len(row)} cells, expected {width}")
    names = []
    if names_path is not None:
        with open(names_path, "r", encoding="utf-8", errors="replace") as fh:
            names = _parse_names_file(fh.read())
    if len(names) != width:
        names = [f"col_{i}" for i in range(width)]

    keep = []
    for j in range(width):
        column = [row[j] for row in raw_rows if row[j] not in ("?", "")]
        if (names[j] not in _CRIME_IDENTIFIER_COLUMNS and 2 * len(column) >= len(raw_rows)
                and all(map(_is_number, column))):
            keep.append(j)
    kept = [names[j] for j in keep]
    _write_csv(out_path, kept, [[None if row[j] == "?" else row[j] for j in keep]
                                for row in raw_rows])
    return kept
