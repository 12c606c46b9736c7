"""Dataset container, simulation generator, the CSV format, encoding, splits.

Every CSV file tvcm reads goes through ``read_columns`` (``csv_header``
reads the header alone), which skips a UTF-8 byte-order mark and rejects
a header that names a column twice; its cells convert through one
routine that names the file, row and column of the first bad cell.
Every CSV file tvcm writes goes through ``write_csv``.

One routine, ``OneHotMap``, turns one-hot groups into the positions of
their level columns and into group labels, and checks their names. One
routine, ``onehot_fill``, writes categorical levels into those 0/1
columns, in training (``onehot_encode``) and in scoring.

Random draws use numpy's PCG64 generator; normal variates come from its
ziggurat-based ``standard_normal``, so identical seeds reproduce
datasets bit for bit.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError

SIM_DIM = 8
# corr(X2, X8) of the simulated features, and the sd of the response noise
SIM_CORR_X2_X8 = 0.5
SIM_NOISE_SD = 1.0


@dataclass
class Dataset:
    """Rows of (response y, weight w, feature matrix X).

    Every coefficient beta_j is a function of the same feature rows it
    multiplies; per-dimension modifier sets pick the columns of X each
    coefficient may split on. Categorical columns are one-hot encoded:
    ``onehot_groups`` maps each to its 0/1 member columns of X. Instances
    are treated as immutable once built; all transforms return new
    datasets.
    """

    y: np.ndarray
    w: np.ndarray
    X: np.ndarray
    x_names: list[str]
    onehot_groups: dict[str, list[str]] = field(default_factory=dict)

    @property
    def Z(self) -> np.ndarray:
        # Read only by bench/, which still names a separate modifier
        # matrix; a benchmark-only change deletes this alias.
        return self.X

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    @property
    def p(self) -> int:
        return int(self.X.shape[1])

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset."""
        return Dataset(
            y=self.y[idx],
            w=self.w[idx],
            X=self.X[idx],
            x_names=list(self.x_names),
            onehot_groups={k: list(v) for k, v in self.onehot_groups.items()},
        )


@dataclass(frozen=True)
class SimulationSpec:
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("simulation size must be >= 1")


def true_beta(x) -> np.ndarray:
    """Coefficient functions of the simulated law for rows of 8 features.

    Component order (1-based): 0.5, -x2/4, sgn(x3)*sin(2*x3)/2, x5/4,
    x4/4, x5^2/8, 0, 0.
    """
    x = np.asarray(x, dtype=float)
    one_row = x.ndim == 1
    if one_row:
        x = x[None, :]
    if x.shape[1] != SIM_DIM:
        raise DataError(f"expected {SIM_DIM} features, got {x.shape[1]}")
    beta = np.zeros_like(x)
    beta[:, 0] = 0.5
    beta[:, 1] = -x[:, 1] / 4.0
    beta[:, 2] = 0.5 * np.sign(x[:, 2]) * np.sin(2.0 * x[:, 2])
    beta[:, 3] = x[:, 4] / 4.0
    beta[:, 4] = x[:, 3] / 4.0
    beta[:, 5] = x[:, 4] ** 2 / 8.0
    return beta[0] if one_row else beta


def true_mu(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    one_row = x.ndim == 1
    if one_row:
        x = x[None, :]
    mu = np.sum(true_beta(x) * x, axis=1)
    return float(mu[0]) if one_row else mu


def simulate(spec: SimulationSpec) -> tuple[Dataset, np.ndarray]:
    """Simulated Gaussian dataset plus the true mean vector.

    Features are standard normal with independent components except
    corr(X2, X8) = SIM_CORR_X2_X8, realized through a two-column factor
    that keeps X8's variance at one. The response is mu(x) plus
    N(0, SIM_NOISE_SD^2) noise.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    X = rng.standard_normal((spec.n, SIM_DIM))
    rho = SIM_CORR_X2_X8
    X[:, 7] = rho * X[:, 1] + np.sqrt(1.0 - rho * rho) * X[:, 7]
    mu = true_mu(X)
    y = mu + SIM_NOISE_SD * rng.standard_normal(spec.n)
    names = [f"x{j}" for j in range(1, SIM_DIM + 1)]
    ds = Dataset(y=y, w=np.ones(spec.n), X=X, x_names=names)
    return ds, mu


@dataclass(frozen=True)
class Schema:
    """Column roles and cleaning directives for CSV ingestion.

    ``response_kind`` is "real" or "count"; counts must be nonnegative.
    ``response_per_weight`` divides the response by the weight column at
    load time (claim counts over exposure become frequencies, matching
    the scale the loss functions expect). ``caps`` clip any column (the
    response and weight included); ``floors`` clip and ``transforms``
    ("log" or "log1p") transform a numeric column, and ``ordinal`` maps
    a string column listed under ``numeric`` to 1-based codes over an
    explicitly declared level order. No recode or transform ever happens
    implicitly. Training and scoring clean columns with the same two
    methods and encode them with the same ``onehot_fill``, so a scored
    row sees exactly the features training saw.
    """

    response: str
    numeric: tuple[str, ...]
    categorical: tuple[str, ...] = ()
    weight: str | None = None
    response_kind: str = "real"
    response_per_weight: bool = False
    caps: dict[str, float] = field(default_factory=dict)
    floors: dict[str, float] = field(default_factory=dict)
    transforms: dict[str, str] = field(default_factory=dict)
    ordinal: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.response_kind not in ("real", "count"):
            raise ConfigError(f"unknown response_kind {self.response_kind!r}")
        for col, name in self.transforms.items():
            if name not in ("log", "log1p"):
                raise ConfigError(f"unknown transform {name!r} for column {col!r}")
        if self.response_per_weight and self.weight is None:
            raise ConfigError("response_per_weight requires a weight column")
        for col in self.ordinal:
            if col not in self.numeric:
                raise ConfigError(
                    f"ordinal column {col!r} must be listed under numeric"
                )

    def numeric_values(self, col: str, cells: list[str], path) -> np.ndarray:
        """Feature values of numeric column ``col`` from its text cells:
        ordinal code or float, then the declared floor, cap and transform.
        """
        if col in self.ordinal:
            levels = self.ordinal[col]
            code = {lv: float(k + 1) for k, lv in enumerate(levels)}
            what = f"unknown ordinal level (declared: {', '.join(levels)})"
            v = np.asarray(_cell_values(code.__getitem__, what, cells, col, path))
        else:
            v = float_cells(cells, col, path)
        require_finite(v, [col], path)
        if col in self.floors:
            v = np.maximum(v, self.floors[col])
        if col in self.caps:
            v = np.minimum(v, self.caps[col])
        transform = self.transforms.get(col)
        if transform == "log":
            require_all(v > 0, "log transform of a non-positive value", col, path)
            v = np.log(v)
        elif transform == "log1p":
            require_all(v > -1, "log1p transform of a value <= -1", col, path)
            v = np.log1p(v)
        return v

    def weight_values(self, cells: list[str], path) -> np.ndarray:
        """Weights from the text cells of the weight column: capped as
        declared, then required finite and positive."""
        col = self.weight
        w = float_cells(cells, col, path)
        if col in self.caps:
            w = np.minimum(w, self.caps[col])
        require_finite(w, [col], path)
        require_all(w > 0, "non-positive weight", col, path)
        return w


def float_cells(cells: list[str], col: str, path) -> np.ndarray:
    """Floats of the text cells of column ``col`` of file ``path``."""
    return np.asarray(
        _cell_values(float, "unparsable numeric value", cells, col, path), dtype=float
    )


def int_cells(cells: list[str], col: str, path) -> list[int]:
    """Integers of the text cells of column ``col`` of file ``path``."""
    return _cell_values(int, "unparsable integer value", cells, col, path)


def _cell_values(convert, what: str, cells: list[str], col: str, where) -> list:
    """``convert`` of every cell of column ``col``; the first cell it
    rejects (ValueError or KeyError) is a DataError naming its row."""
    try:
        return list(map(convert, cells))
    except (KeyError, ValueError):
        pass  # the loop below names the cell that failed
    values = []
    for r, text in enumerate(cells):
        try:
            values.append(convert(text))
        except (KeyError, ValueError):
            raise DataError(
                f"{where}: {what} {text!r} at row {r}, column {col!r}"
            ) from None
    return values


def require_all(ok: np.ndarray, what: str, col: str, where) -> None:
    """DataError naming the first row where ``ok`` is False."""
    if not np.all(ok):
        r = int(np.flatnonzero(~ok)[0])
        raise DataError(f"{where}: {what} at row {r}, column {col!r}")


def require_finite(M, names, where: str) -> None:
    """DataError naming the first row of M holding a NaN or an infinity,
    and that row's first such column; a 1-D M is one column."""
    ok = np.isfinite(M)
    if ok.ndim == 1:
        ok = ok[:, None]
    if not ok.all():
        r, c = divmod(int(np.flatnonzero(~ok)[0]), ok.shape[1])
        raise DataError(f"{where}: non-finite value at row {r}, column {names[c]!r}")


def require_unique(items, what: str, where) -> None:
    """DataError naming the first item that is listed twice."""
    seen = set()
    for item in items:
        if item in seen:
            raise DataError(f"{where}: {what} {item!r} listed twice")
        seen.add(item)


def require_fit_response(y, w, loss, where: str) -> None:
    """DataError naming the first row of y or w holding a NaN or an
    infinity, then of a weight <= 0 and, under the Poisson loss, of a
    response < 0. The fit's inner loop evaluates the loss unchecked, so
    every public fit entry point runs this first."""
    require_finite(y, ["response"], where)
    require_finite(w, ["weight"], where)
    require_all(w > 0, "non-positive weight", "weight", where)
    if loss.kind == "poisson_deviance":
        require_all(y >= 0, "negative response", "response", where)


def require_fit_data(ds: Dataset, loss, where: str = "training data") -> None:
    """``require_fit_response`` after the same NaN/infinity check on X,
    whose message names the feature column."""
    require_finite(ds.X, ds.x_names, where)
    require_fit_response(ds.y, ds.w, loss, where)


@contextmanager
def _csv_rows(path):
    """The checked header of a CSV file and a reader over its rows; a
    file that is not UTF-8 is a DataError naming its first bad line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            require_unique(header, "column", path)
            yield header, reader
    except UnicodeDecodeError:
        # raised at a chunk read, whose offset does not give the line;
        # UTF-8 never splits a character at a newline
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    raise DataError(f"{path}: line {lineno} is not UTF-8 text") from None
        raise


def csv_header(path) -> list[str]:
    """Column names of a CSV file, checked as ``read_columns`` checks them."""
    with _csv_rows(path) as (header, _):
        return header


def read_columns(path, names) -> tuple[dict[str, list[str]], int]:
    """Text cells of the named columns of a CSV file, and the number of
    data rows.

    Every row must have as many fields as the header. Reported row
    numbers are 0-based data rows (the header is not counted).
    """
    with _csv_rows(path) as (header, reader):
        for col in names:
            if col not in header:
                raise DataError(f"{path}: missing column {col!r}")
        rows = list(reader)
    for r, rec in enumerate(rows):
        if len(rec) != len(header):
            raise DataError(f"{path}: row {r} has {len(rec)} fields, "
                            f"expected {len(header)}")
    pos = {col: header.index(col) for col in names}
    return {col: [rec[i] for rec in rows] for col, i in pos.items()}, len(rows)


def _fmt(value) -> str:
    if value is None:  # an empty cell, as the csv module writes it
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# a row of these cells needs no quoting, so it is written without csv
_PLAIN_CELL_TYPES = frozenset((float, int))
# numpy's float64 (a float subclass) and integer scalars need none either
_NUMBER_CELL_TYPES = _PLAIN_CELL_TYPES | {np.float64} | {
    np.dtype(c).type for c in np.typecodes["AllInteger"]
}


def write_csv(path: str, header: list[str], rows) -> None:
    """Headered CSV; ints print as ints and floats in shortest
    round-trip form, so rereading a cell gives back its exact value.
    A row of Python floats and ints is joined with ``repr``, and any
    other row of Python or numpy float64 and integer cells with
    ``float.__repr__`` and integer text: the bytes the csv module would
    write. A row with any other cell (a string, a bool, None, a
    float32) goes through the csv module, which quotes strings where
    needed; None is an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        write = fh.write
        for row in rows:
            if _PLAIN_CELL_TYPES.issuperset(map(type, row)):
                write(",".join(map(repr, row)))
            elif _NUMBER_CELL_TYPES.issuperset(map(type, row)):
                write(",".join([
                    float.__repr__(cell) if isinstance(cell, float)
                    else str(int(cell))
                    for cell in row
                ]))
            else:
                writer.writerow([
                    cell if isinstance(cell, str) else _fmt(cell)
                    for cell in row
                ])
                continue
            write("\r\n")


def load_csv(path, schema: Schema) -> Dataset:
    """Parse a comma-separated, headered, UTF-8 file into a Dataset.

    Numeric columns come first, in schema order; ``onehot_encode`` then
    appends the categorical columns' 0/1 columns. Reported row numbers
    are 0-based data rows (the header is not counted).
    """
    names = [schema.response, *schema.numeric, *schema.categorical]
    if schema.weight:
        names.append(schema.weight)
    cells, n = read_columns(path, names)
    if n == 0:
        raise DataError(f"{path}: no data rows")
    y = float_cells(cells[schema.response], schema.response, path)
    require_finite(y, [schema.response], path)
    if schema.response_kind == "count":
        require_all(y >= 0, "negative count", schema.response, path)
    if schema.response in schema.caps:
        y = np.minimum(y, schema.caps[schema.response])
    w = schema.weight_values(cells[schema.weight], path) if schema.weight else np.ones(n)
    if schema.response_per_weight:
        y = y / w

    cols = [schema.numeric_values(col, cells[col], path) for col in schema.numeric]
    X = np.column_stack(cols) if cols else np.empty((n, 0))
    ds = Dataset(y=y, w=w, X=X, x_names=list(schema.numeric))
    return onehot_encode(ds, {col: cells[col] for col in schema.categorical})


def onehot_fill(X: np.ndarray, col: str, cells, level_column: dict, where) -> None:
    """Set ``X[r, level_column[cells[r]]] = 1`` for every row r of
    categorical column ``col``; a level missing from ``level_column`` is
    a DataError naming the row, the column and the level."""
    pos = _cell_values(level_column.__getitem__, "unseen level", cells, col, where)
    X[np.arange(len(pos)), pos] = 1.0


class OneHotMap:
    """The one-hot groups of feature columns ``names``, by position.

    ``onehot_groups`` lists each categorical column's member columns
    ``column=level`` (a level may contain "="). ``members[base]`` maps
    each level of group ``base`` to its column's position, in the
    group's order; ``labels`` holds the group labels (a member's group,
    any other column's own name) in first-seen order over the columns,
    and ``label_of[j]`` is column j's index into them; ``grouped[j]`` is
    True for member columns. A group or member name that disagrees with
    ``names`` is an ``error`` naming it.
    """

    def __init__(self, names, onehot_groups, error=DataError):
        pos = {name: j for j, name in enumerate(names)}
        label, grouped, members = list(names), np.zeros(len(names), dtype=bool), {}
        for base, group in onehot_groups.items():
            if base in pos:
                raise error(f"one-hot group {base!r} is also a feature column")
            members[base] = {}
            for m in group:
                j = pos.get(m)
                if j is not None and (grouped[j] or names.count(m) > 1):
                    raise error(f"one-hot column {m!r} of group {base!r} is listed "
                                "twice or shares its name with another column")
                if j is None or not m.startswith(base + "="):
                    raise error(f"one-hot column {m!r} of group {base!r} is not a "
                                f"feature column named {base}=<level>")
                grouped[j], label[j] = True, base
                members[base][m[len(base) + 1:]] = j
        index: dict[str, int] = {}
        label_of = [index.setdefault(lb, len(index)) for lb in label]
        self.members, self.labels, self.grouped = members, list(index), grouped
        self.label_of = np.asarray(label_of, dtype=np.int64)


def onehot_encode(ds: Dataset, categorical=None) -> Dataset:
    """Append 0/1 columns to X for ``categorical``, which maps column
    names to one level string per row.

    Each column's sorted levels become its member columns ``column=level``
    (no reference level is dropped), appended in column-name order and
    recorded in the group map. A member or group name that is also
    another column is a DataError naming it. Without categorical columns
    ``ds`` is returned unchanged.
    """
    if not categorical:
        return ds
    names = list(ds.x_names)
    groups = {k: list(v) for k, v in ds.onehot_groups.items()}
    for col in sorted(categorical):
        groups[col] = [f"{col}={lv}" for lv in sorted(set(categorical[col]))]
        names.extend(groups[col])
    members = OneHotMap(names, groups).members
    X = np.zeros((ds.n, len(names)))
    X[:, :ds.p] = ds.X
    for col, cells in categorical.items():
        onehot_fill(X, col, cells, members[col], "onehot_encode")
    return Dataset(y=ds.y, w=ds.w, X=X, x_names=names, onehot_groups=groups)


def split_indices(n: int, frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted row indices of a seeded two-way split of n rows; the first
    part holds round(frac * n) rows of a PCG64 permutation."""
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    n1 = int(round(frac * n))
    return np.sort(perm[:n1]), np.sort(perm[n1:])


def split(ds: Dataset, fractions, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive two-way split by seeded permutation."""
    f1, f2 = float(fractions[0]), float(fractions[1])
    if abs(f1 + f2 - 1.0) > 1e-9:
        raise ConfigError("split fractions must sum to 1")
    idx1, idx2 = split_indices(ds.n, f1, seed)
    return ds.take(idx1), ds.take(idx2)


def split_by_indices(ds: Dataset, first_idx) -> tuple[Dataset, Dataset]:
    """Split with an explicit index list for the first part (row order kept)."""
    first_idx = np.asarray(first_idx, dtype=np.int64)
    if first_idx.size and (first_idx.min() < 0 or first_idx.max() >= ds.n):
        raise DataError("split index out of range")
    mask = np.zeros(ds.n, dtype=bool)
    mask[first_idx] = True
    if int(mask.sum()) != first_idx.size:
        raise DataError("split index list contains duplicates")
    return ds.take(first_idx), ds.take(np.flatnonzero(~mask))


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine maps fitted on training data.

    One-hot columns keep mean 0 / sd 1 so 0/1 indicators pass through;
    constant columns get sd 1 to avoid dividing by zero.
    """

    x_mean: np.ndarray
    x_sd: np.ndarray

    def apply_x(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.x_mean) / self.x_sd


def standardize(ds: Dataset) -> tuple[Dataset, Standardizer]:
    """Center/scale the continuous columns of X to mean 0, sd 1."""
    grouped = OneHotMap(ds.x_names, ds.onehot_groups).grouped
    mean = ds.X.mean(axis=0)
    sd = ds.X.std(axis=0)
    sd[sd == 0.0] = 1.0
    mean[grouped] = 0.0
    sd[grouped] = 1.0
    scaler = Standardizer(x_mean=mean, x_sd=sd)
    return replace(ds, X=scaler.apply_x(ds.X)), scaler
