"""Seeded generator for a claim-frequency CSV shaped like freMTPL2.

The real freMTPL2 file is not shipped with the repository, so the
``claims-poisson`` workload writes its own. Every column carries the
``real`` CLI profile's name and the property of the real column that
changes how tvcm treats it; the comment on each draw says which one.
The same ``(n, seed)`` always produces a byte-identical file: draws come
from one PCG64 stream in a fixed order and floats are written with
``repr``.
"""

from __future__ import annotations

import numpy as np

BRANDS = ("B1", "B2", "B3", "B4", "B5", "B6", "B10", "B11", "B12", "B13", "B14")
BRAND_P = (0.24, 0.24, 0.08, 0.04, 0.05, 0.04, 0.03, 0.02, 0.24, 0.01, 0.01)
REGIONS = (
    "R11", "R21", "R22", "R23", "R24", "R25", "R26", "R31", "R41", "R42",
    "R43", "R52", "R53", "R54", "R72", "R73", "R74", "R82", "R83", "R91",
    "R93", "R94",
)
AREAS = ("A", "B", "C", "D", "E", "F")
HEADER = (
    "IDpol", "ClaimNb", "Exposure", "Area", "VehPower", "VehAge", "DrivAge",
    "BonusMalus", "VehBrand", "VehGas", "Density", "Region",
)
# Schema of the ``real`` CLI profile; kept literal so the benchmark does
# not depend on how the CLI resolves its profiles.
SCHEMA_KW = dict(
    response="ClaimNb",
    weight="Exposure",
    response_kind="count",
    response_per_weight=True,
    numeric=("VehPower", "VehAge", "DrivAge", "BonusMalus", "Density", "Area"),
    categorical=("VehBrand", "VehGas", "Region"),
    ordinal={"Area": AREAS},
    caps={"ClaimNb": 4.0, "Exposure": 1.0},
)


def claim_columns(n: int, seed: int) -> dict[str, np.ndarray]:
    """Column arrays of one synthetic portfolio (cells not yet text)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    # Exposure: policy-years in (0, 1]; about a third are full-year
    # policies, as in the real file, and the rest are cut short. Two
    # decimals and a 0.01 floor keep every weight strictly positive.
    exposure = np.where(
        rng.random(n) < 0.35, 1.0, np.round(rng.uniform(0.01, 1.0, n), 2)
    )
    exposure = np.maximum(exposure, 0.01)
    # Density: inhabitants per km^2, heavy-tailed integers 1..27000.
    # High cardinality means thousands of distinct split thresholds,
    # the one column where the presorted scan meets many candidates.
    density = np.clip(np.round(np.exp(rng.normal(6.0, 1.8, n))), 1, 27000)
    # Area: ordinal A..F driven by density plus noise, so it is a coarse,
    # correlated copy of Density (the real file's Area is too); it goes
    # through the ordinal-code path of load_csv.
    area_code = np.clip(
        np.floor((np.log(density) + rng.normal(0.0, 0.7, n)) / 1.6), 0, 5
    ).astype(int)
    # VehPower: small integers 4..15 with most mass at 5..7, a
    # low-cardinality numeric column with few candidate thresholds.
    veh_power = np.clip(4 + rng.poisson(2.2, n), 4, 15)
    # VehAge: integer years, geometric-like with a long tail to 40.
    veh_age = np.clip(rng.geometric(0.13, n) - 1, 0, 40)
    # DrivAge: integer 18..90, roughly normal around 45.
    driv_age = np.clip(np.round(rng.normal(45.0, 14.0, n)), 18, 90).astype(int)
    # BonusMalus: integer 50..230 with a point mass at 50 (the floor of
    # the bonus scale); young drivers start higher on the scale.
    young = driv_age < 30
    bm_excess = rng.geometric(np.where(young, 0.06, 0.15), n) - 1
    bonus_malus = np.clip(
        50 + np.where(rng.random(n) < np.where(young, 0.25, 0.65), 0, bm_excess),
        50, 230,
    )
    # VehBrand (11 levels) and Region (22 levels): skewed categoricals;
    # one-hot encoding turns them into 33 indicator dimensions.
    brand = rng.choice(len(BRANDS), size=n, p=BRAND_P)
    region = rng.choice(
        len(REGIONS), size=n, p=np.linspace(2.0, 0.5, len(REGIONS)) / 27.5
    )
    # VehGas: balanced binary categorical.
    diesel = rng.random(n) < 0.5

    # Planted varying coefficients (log frequency), so tuning keeps
    # trees on some dimensions while most dimensions stay at kappa 0:
    #  - the BonusMalus slope is four times as steep for drivers under 30;
    #  - the VehAge slope changes sign with the fuel type;
    #  - the DrivAge slope is negative up to 35 and flat beyond.
    bm = (bonus_malus - 50) / 10.0
    eta = (
        -1.6
        + np.where(young, 0.40, 0.10) * bm
        + np.where(diesel, 0.06, -0.06) * (veh_age - 7)
        + np.where(driv_age < 35, -0.06, 0.0) * (driv_age - 35)
        + 0.06 * (np.log(density) - 6.0)
        + 0.05 * (veh_power - 6)
    )
    claims = rng.poisson(np.exp(eta) * exposure)
    # A handful of rows above the profile's cap of 4 exercise cap:ClaimNb.
    claims = np.where(rng.random(n) < 2e-4, claims + 5, claims)
    return {
        "IDpol": np.arange(1, n + 1),
        "ClaimNb": claims,
        "Exposure": exposure,
        "Area": np.asarray(AREAS)[area_code],
        "VehPower": veh_power,
        "VehAge": veh_age,
        "DrivAge": driv_age,
        "BonusMalus": bonus_malus,
        "VehBrand": np.asarray(BRANDS)[brand],
        "VehGas": np.where(diesel, "Diesel", "Regular"),
        "Density": density.astype(int),
        "Region": np.asarray(REGIONS)[region],
    }


def write_claims_csv(path, n: int, seed: int) -> None:
    """Write ``n`` synthetic policies to ``path`` as headered CSV."""
    cols = claim_columns(n, seed)
    text = [
        [repr(float(v)) if k == "Exposure" else str(v) for v in cols[k]]
        for k in HEADER
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        for row in zip(*text):
            fh.write(",".join(row) + "\n")
