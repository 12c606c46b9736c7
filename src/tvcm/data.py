"""Dataset container, simulation generator, CSV ingestion, encoding, splits.

Random draws use numpy's PCG64 generator; normal variates come from its
ziggurat-based ``standard_normal``, so identical seeds reproduce
datasets bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError

SIM_DIM = 8


@dataclass
class Dataset:
    """Rows of (response y, weight w, feature matrix X).

    Every coefficient beta_j is a function of the same feature rows it
    multiplies; per-dimension modifier sets pick the columns of X each
    coefficient may split on. Categorical columns arrive as integer codes
    in ``cat_codes`` and stay there until ``onehot_encode`` expands them
    into 0/1 columns of X. Instances are treated as immutable once built;
    all transforms return new datasets.
    """

    y: np.ndarray
    w: np.ndarray
    X: np.ndarray
    x_names: list[str]
    onehot_groups: dict[str, list[str]] = field(default_factory=dict)
    cat_codes: dict[str, np.ndarray] = field(default_factory=dict)
    cat_levels: dict[str, list[str]] = field(default_factory=dict)

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
            cat_codes={k: v[idx] for k, v in self.cat_codes.items()},
            cat_levels={k: list(v) for k, v in self.cat_levels.items()},
        )


@dataclass(frozen=True)
class SimulationSpec:
    n: int
    seed: int
    corr_x2_x8: float = 0.5
    noise_sd: float = 1.0

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
    corr(X2, X8) = corr_x2_x8, realized through a two-column factor that
    keeps X8's variance at one. The response is mu(x) plus
    N(0, noise_sd^2) noise.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    X = rng.standard_normal((spec.n, SIM_DIM))
    rho = spec.corr_x2_x8
    X[:, 7] = rho * X[:, 1] + np.sqrt(1.0 - rho * rho) * X[:, 7]
    mu = true_mu(X)
    y = mu + spec.noise_sd * rng.standard_normal(spec.n)
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
    methods, so a scored row sees exactly the features training saw.
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
            code = {lv: float(levels.index(lv) + 1) for lv in levels}
            for r, text in enumerate(cells):
                if text not in code:
                    raise DataError(
                        f"{path}: unknown ordinal level {text!r} at row {r}, "
                        f"column {col!r} (declared: {', '.join(levels)})"
                    )
            v = np.asarray([code[text] for text in cells], dtype=float)
        else:
            v = _floats(cells, col, path)
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
        w = _floats(cells, col, path)
        if col in self.caps:
            w = np.minimum(w, self.caps[col])
        require_finite(w, [col], path)
        require_all(w > 0, "non-positive weight", col, path)
        return w


def _floats(cells: list[str], col: str, path) -> np.ndarray:
    try:
        return np.asarray(list(map(float, cells)), dtype=float)
    except ValueError:
        pass  # the loop below names the cell that failed
    values = []
    for r, text in enumerate(cells):
        try:
            values.append(float(text))
        except ValueError:
            raise DataError(
                f"{path}: unparsable numeric value {text!r} at row {r}, "
                f"column {col!r}"
            ) from None
    return np.asarray(values, dtype=float)


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


def csv_header(path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise DataError(f"{path}: empty file")
    return header


def read_columns(path, names) -> tuple[dict[str, list[str]], int]:
    """Text cells of the named columns of a comma-separated, headered,
    UTF-8 file, and the number of data rows.

    Every row must have as many fields as the header. Reported row
    numbers are 0-based data rows (the header is not counted).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
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


def load_csv(path, schema: Schema) -> Dataset:
    """Parse a comma-separated, headered, UTF-8 file into a Dataset.

    Categorical columns become integer codes over lexicographically
    sorted level names, pending one-hot expansion. Reported row numbers
    are 0-based data rows (the header is not counted).
    """
    names = [schema.response, *schema.numeric, *schema.categorical]
    if schema.weight:
        names.append(schema.weight)
    cells, n = read_columns(path, names)
    if n == 0:
        raise DataError(f"{path}: no data rows")
    y = _floats(cells[schema.response], schema.response, path)
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

    cat_codes: dict[str, np.ndarray] = {}
    cat_levels: dict[str, list[str]] = {}
    for col in schema.categorical:
        values = cells[col]
        levels = sorted(set(values))
        lookup = {lv: i for i, lv in enumerate(levels)}
        cat_codes[col] = np.asarray([lookup[v] for v in values], dtype=np.int64)
        cat_levels[col] = levels

    return Dataset(
        y=y,
        w=w,
        X=X,
        x_names=list(schema.numeric),
        cat_codes=cat_codes,
        cat_levels=cat_levels,
    )


def onehot_member_name(column: str, level: str) -> str:
    return f"{column}={level}"


def onehot_encode(ds: Dataset) -> Dataset:
    """Expand pending categorical codes into 0/1 columns of X.

    Every level keeps its own column (no reference level is dropped);
    the group map records member column names per original column.
    """
    if not ds.cat_codes:
        return ds
    blocks = [ds.X]
    names = list(ds.x_names)
    groups = {k: list(v) for k, v in ds.onehot_groups.items()}
    for col in sorted(ds.cat_codes):
        codes = ds.cat_codes[col]
        levels = ds.cat_levels[col]
        block = np.zeros((ds.n, len(levels)))
        block[np.arange(ds.n), codes] = 1.0
        blocks.append(block)
        members = [onehot_member_name(col, lv) for lv in levels]
        names.extend(members)
        groups[col] = members
    X = np.column_stack(blocks)
    return Dataset(
        y=ds.y,
        w=ds.w,
        X=X,
        x_names=names,
        onehot_groups=groups,
    )


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
    if ds.cat_codes:
        raise DataError("standardize expects one-hot encoding to have run")
    members = {m for group in ds.onehot_groups.values() for m in group}
    mean = ds.X.mean(axis=0)
    sd = ds.X.std(axis=0)
    for k, name in enumerate(ds.x_names):
        if name in members:
            mean[k] = 0.0
            sd[k] = 1.0
        elif sd[k] == 0.0:
            sd[k] = 1.0
    scaler = Standardizer(x_mean=mean, x_sd=sd)
    return replace(ds, X=scaler.apply_x(ds.X)), scaler
