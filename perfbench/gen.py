"""Seeded, byte-deterministic input worlds for the report workloads.

The generator uses numpy only and none of judgebench, so a change to the
program under test cannot change the benchmark's inputs.  It follows the
model of ``judgebench.syngen``: an AR(1) actual with noisy revisions, a common
baseline, and forecaster judgments with own-lag persistence ``rho_own``,
cross-release carryover ``kappa`` and a share ``p_neutral`` of zero judgments.
A share ``INFORMED_SHARE`` of the economists is informative: their judgment
mostly corrects the common baseline's error, with little noise, so they beat
the median baseline while the others do not.  The accuracy stage's beat
shares and per-forecaster comparisons then carry information the checks can
test.

``dirty=True`` then dirties the forecasts file the way real survey files are
dirty: report dates on the rows, dated and undated duplicate keys, firm-only
rows and a shuffled row order.  The counts it injects are returned, so the
cleaning layer's drops can be checked against them.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID_TENTHS = 10  # forecasts are reported on a 0.1 grid

# An informed economist's judgment: INFORMED_SKILL of the baseline's error is
# corrected, and the judgment noise is scaled down by INFORMED_NOISE.
INFORMED_SHARE = 0.25
INFORMED_SKILL = 0.7
INFORMED_NOISE = 0.25

# Shares of clean forecast rows that get a dirty counterpart.
DATED_DUPLICATE_SHARE = 0.15
UNDATED_PAIR_SHARE = 0.08
FIRM_ONLY_SHARE = 0.08


@dataclass(frozen=True)
class WorldSpec:
    n_forecasters: int
    n_quarters: int
    start_year: int
    participation: tuple[float, float]
    rho_own: float = 0.1
    kappa: float = 0.0
    p_neutral: float = 0.0
    dirty: bool = False


def _actual_path(rng: np.random.Generator, t: int) -> np.ndarray:
    burn = 50
    eps = rng.normal(0.0, 2.0, size=t + burn)
    path = np.empty(t + burn)
    path[0] = 0.5 / (1.0 - 0.3) + eps[0]
    for i in range(1, t + burn):
        path[i] = 0.5 + 0.3 * path[i - 1] + eps[i]
    return path[burn:]


def _quarter_labels(start_year: int, t: int) -> list[str]:
    return [f"{start_year + i // 4}Q{i % 4 + 1}" for i in range(t)]


def _release_date(start_year: int, i_t: int, release: int, offset: int) -> datetime.date:
    """A plausible report date: after the quarter ends, later for later releases."""
    year, q = start_year + i_t // 4, i_t % 4 + 1
    next_quarter = datetime.date(year + (q == 4), 1 if q == 4 else 3 * q + 1, 1)
    return next_quarter + datetime.timedelta(days=20 + 30 * (release - 1) + offset)


def write_world(spec: WorldSpec, seed: int, out_dir: Path) -> dict:
    """Write actuals.csv, forecasts.csv and spf.csv; return the input facts."""
    rng = np.random.default_rng([seed, spec.n_forecasters, spec.n_quarters])
    n, t = spec.n_forecasters, spec.n_quarters
    labels = _quarter_labels(spec.start_year, t)

    actuals = np.empty((3, t))
    actuals[0] = _actual_path(rng, t)
    actuals[1] = actuals[0] + rng.normal(0.0, 0.3, size=t)
    actuals[2] = actuals[1] + rng.normal(0.0, 0.3, size=t)
    baselines = actuals + rng.normal(0.0, 0.1, size=(3, t))

    informed = rng.permutation(n) < round(INFORMED_SHARE * n)
    skill = np.where(informed, INFORMED_SKILL, 0.0)
    eta = rng.normal(0.0, 0.2, size=(n, t, 3)) * np.where(informed, INFORMED_NOISE, 1.0)[:, None, None]
    neutral = rng.random(size=(n, t, 3)) < spec.p_neutral
    judgments = np.zeros((n, t, 3))
    for i_t in range(t):
        for k in range(3):
            j = eta[:, i_t, k] + skill * (actuals[k, i_t] - baselines[k, i_t])
            if i_t > 0:
                j += spec.rho_own * judgments[:, i_t - 1, k]
            if k > 0:
                j += spec.kappa * judgments[:, i_t, k - 1]
            j[neutral[:, i_t, k]] = 0.0
            judgments[:, i_t, k] = j
    tenths = np.rint((baselines.T[None, :, :] + judgments) * GRID_TENTHS).astype(np.int64)

    # Participation rates spread evenly over [low, high], each economist
    # reporting in exactly round(rate * t) random quarters: the row count is
    # then the same for every seed, and only which cells are filled varies.
    low, high = spec.participation
    rates = rng.permutation(np.linspace(low, high, n))
    mask = np.argsort(rng.random(size=(n, t)), axis=1) < np.rint(rates * t)[:, None]
    date_offsets = rng.integers(0, 10, size=n)

    # One row per (economist, quarter, release): [quarter, release, econ, firm, tenths, date].
    rows: list[list] = []
    for i in range(n):
        econ, firm = f"E{i:04d}", f"F{i % max(n // 2, 1):04d}"
        for i_t in np.flatnonzero(mask[i]).tolist():
            for k in range(3):
                when = _release_date(spec.start_year, i_t, k + 1, int(date_offsets[i])) if spec.dirty else None
                rows.append([labels[i_t], k + 1, econ, firm, int(tenths[i, i_t, k]), when])
    facts = {
        "economists": int(mask.any(axis=1).sum()),
        "informed_economists": int(informed.sum()),
        "quarters": t,
        "clean_rows": len(rows),
        "dated_duplicates": 0,
        "undated_pairs": 0,
        "firm_only": 0,
    }
    if spec.dirty:
        rows = _dirty(rng, rows, n, labels, facts)

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["quarter,release,economist_id,firm_id,value,report_date"]
    lines += [
        f"{q},{k},{e},{f},{v / GRID_TENTHS:.1f},{d.isoformat() if d else ''}"
        for q, k, e, f, v, d in rows
    ]
    (out_dir / "forecasts.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["quarter,release,value"]
    lines += [f"{labels[i_t]},{k + 1},{actuals[k, i_t]:.6f}" for i_t in range(t) for k in range(3)]
    (out_dir / "actuals.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    spf_median = actuals[0] + rng.normal(0.0, 0.5, size=t)
    spf_mean = spf_median + rng.normal(0.0, 0.1, size=t)
    lines = ["quarter,median,mean"]
    lines += [f"{labels[i_t]},{spf_median[i_t]:.6f},{spf_mean[i_t]:.6f}" for i_t in range(t)]
    (out_dir / "spf.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    facts["rows"] = len(rows)
    facts["expected_dropped"] = facts["dated_duplicates"] + facts["undated_pairs"] + facts["firm_only"]
    return facts


def _dirty(rng: np.random.Generator, rows: list[list], n: int, labels: list[str], facts: dict) -> list[list]:
    """Inject duplicates and firm-only rows, then shuffle the row order.

    Every injected row is one that cleaning must drop: a dated duplicate
    carries an earlier report date than the row it copies, an undated pair
    blanks the original's date and adds a second undated row (cleaning breaks
    the tie by distance to the quarter median, then input order), and a
    firm-only row has no economist id.
    """
    n_clean = len(rows)
    picks = rng.permutation(n_clean)
    n_dated = int(round(DATED_DUPLICATE_SHARE * n_clean))
    n_undated = int(round(UNDATED_PAIR_SHARE * n_clean))
    n_firm = int(round(FIRM_ONLY_SHARE * n_clean))
    nudges = rng.integers(1, 6, size=n_dated + n_undated) * rng.choice([-1, 1], size=n_dated + n_undated)
    early = rng.integers(1, 30, size=n_dated)
    extra = []
    for j, pos in enumerate(picks[:n_dated].tolist()):
        q, k, e, f, v, d = rows[pos]
        extra.append([q, k, e, f, v + int(nudges[j]), d - datetime.timedelta(days=int(early[j]))])
    for j, pos in enumerate(picks[n_dated:n_dated + n_undated].tolist()):
        rows[pos][5] = None
        q, k, e, f, v, _ = rows[pos]
        extra.append([q, k, e, f, v + int(nudges[n_dated + j]), None])
    firm_q = rng.integers(0, len(labels), size=n_firm)
    firm_k = rng.integers(1, 4, size=n_firm)
    firm_f = rng.integers(0, max(n // 2, 1), size=n_firm)
    firm_v = rng.integers(-60, 60, size=n_firm)
    for j in range(n_firm):
        extra.append([labels[int(firm_q[j])], int(firm_k[j]), "", f"F{int(firm_f[j]):04d}", int(firm_v[j]), None])
    facts.update(dated_duplicates=n_dated, undated_pairs=n_undated, firm_only=n_firm)
    rows = rows + extra
    return [rows[pos] for pos in rng.permutation(len(rows)).tolist()]
