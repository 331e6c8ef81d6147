"""Dependency-free statistical verification for the randomized workloads.

Probabilistic claims ("Ben-Or's round count has a geometric tail set by
the coin bias", "the coin stream is uniform") cannot be checked on one
run; they are checked on *seeded ensembles*.  This module supplies the
machinery without scipy:

* :func:`ks_statistic` / :func:`ks_critical` — one-sample
  Kolmogorov-Smirnov against any CDF, with the asymptotic critical value
  ``c(α)/√n``;
* :func:`chi_square_pvalue` — Pearson χ² with the p-value computed from
  the regularized upper incomplete gamma function (Numerical-Recipes
  series + continued fraction over :func:`math.lgamma`);
* the Ben-Or round-count model: in a fault-free run with mixed inputs
  every correct processor sees the same report multiset, so a round of
  coin flips succeeds iff at least ``thr = ⌊(n+t)/2⌋ + 1`` of the ``n``
  flips agree — :func:`benor_success_probability` — and the number of
  coin rounds to success is geometric
  (:func:`coin_rounds_to_success` extracts it from a finished run);
* :func:`run_statistical_smoke` — the seeded <10s CI gate behind
  ``make approx-smoke``.

Everything is deterministic for a fixed seed: samples come from
:class:`~repro.approx.coins.CoinSource` streams, never from ``random``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.approx.benor import BenOr
from repro.approx.coins import CoinSource
from repro.approx.filtered_mean import FilteredMeanApprox
from repro.approx.midpoint import MidpointApprox
from repro.core.runner import RunResult, run

__all__ = [
    "ks_statistic",
    "ks_critical",
    "chi_square_pvalue",
    "binomial_tail_ge",
    "benor_success_probability",
    "observed_rounds",
    "coin_rounds_to_success",
    "sample_benor_rounds",
    "geometric_bin_probabilities",
    "bin_round_counts",
    "run_statistical_smoke",
]

# ---------------------------------------------------------------- KS test

#: Asymptotic KS critical coefficients c(α): reject when the statistic
#: exceeds ``c(α)/√n``.
_KS_COEFFICIENTS = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}


def ks_statistic(samples: Sequence[float], cdf: Callable[[float], float]) -> float:
    """One-sample KS statistic ``sup |F_n(x) − F(x)|`` against *cdf*."""
    if not samples:
        raise ValueError("KS statistic needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    worst = 0.0
    for i, x in enumerate(ordered):
        theoretical = cdf(x)
        worst = max(
            worst,
            abs((i + 1) / n - theoretical),
            abs(theoretical - i / n),
        )
    return worst


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """The asymptotic rejection threshold for a level-``alpha`` KS test."""
    try:
        coefficient = _KS_COEFFICIENTS[alpha]
    except KeyError:
        raise ValueError(
            f"alpha must be one of {sorted(_KS_COEFFICIENTS)}, got {alpha!r}"
        ) from None
    return coefficient / math.sqrt(n)


# ------------------------------------------------------------------ χ² test


def _gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma ``Q(s, x)`` (s > 0, x ≥ 0)."""
    if x < 0 or s <= 0:
        raise ValueError(f"gamma_q needs s > 0, x >= 0; got s={s}, x={x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        # Series for P(s, x); Q = 1 − P.
        term = 1.0 / s
        total = term
        a = s
        for _ in range(500):
            a += 1.0
            term *= x / a
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        p = total * math.exp(-x + s * math.log(x) - math.lgamma(s))
        return max(0.0, min(1.0, 1.0 - p))
    # Lentz continued fraction for Q(s, x).
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    q = h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    return max(0.0, min(1.0, q))


def chi_square_pvalue(
    observed: Sequence[float], expected: Sequence[float]
) -> float:
    """Pearson χ² goodness-of-fit p-value (no estimated parameters).

    Degrees of freedom are ``len(observed) − 1``; expected cells must be
    positive (merge sparse bins before calling).
    """
    if len(observed) != len(expected) or len(observed) < 2:
        raise ValueError("observed and expected need equal length >= 2")
    if any(e <= 0 for e in expected):
        raise ValueError("expected cell counts must be positive")
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    df = len(observed) - 1
    return _gamma_q(df / 2.0, statistic / 2.0)


# --------------------------------------------------- the Ben-Or round model


def binomial_tail_ge(n: int, k: int, p: float) -> float:
    """``P[Bin(n, p) ≥ k]``, exactly (math.comb, no continuity tricks)."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    return sum(
        math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k, n + 1)
    )


def benor_success_probability(n: int, t: int, bias: float) -> float:
    """Per-coin-round success probability in a fault-free mixed run.

    All correct processors see the identical multiset of ``n`` coin
    flips; the round produces a decision iff one value reaches the
    report threshold ``thr = ⌊(n+t)/2⌋ + 1`` — that is, at least ``thr``
    ones or at least ``thr`` zeros among ``Bin(n, bias)``.
    """
    thr = (n + t) // 2 + 1
    ones = binomial_tail_ge(n, thr, bias)
    zeros = binomial_tail_ge(n, thr, 1.0 - bias)
    return ones + zeros


def observed_rounds(result: RunResult) -> int:
    """Logical Ben-Or rounds a run used (from its last active phase)."""
    return (result.metrics.last_active_phase + 1) // 2


def coin_rounds_to_success(result: RunResult) -> int | None:
    """Coin rounds a fault-free mixed-input Ben-Or run needed to decide.

    Round 1 is burned on the deterministic mixed-report stalemate, and
    the deciding round consumes one more; the count of *coin* rounds is
    therefore ``observed_rounds − 2``.  ``None`` when the run hit its
    cap undecided (censored sample — callers decide how to treat it).
    """
    if any(value is None for value in result.decisions.values()):
        return None
    return observed_rounds(result) - 2


def sample_benor_rounds(
    n: int,
    t: int,
    bias: float,
    count: int,
    *,
    seed: int = 0,
) -> list[int | None]:
    """Coin-round counts from *count* seeded fault-free Ben-Or runs.

    Run ``i`` uses coin seed ``seed + i``; inputs alternate by pid, so
    every run starts from the mixed-report stalemate the geometric model
    assumes.  Entries are ``None`` for (rare) runs censored at the cap of
    40 rounds.
    """
    algorithm = BenOr(n, t, max_rounds=40, coin_bias=bias)
    samples: list[int | None] = []
    for i in range(count):
        result = run(
            algorithm,
            algorithm.inputs[algorithm.transmitter],
            coins=algorithm.coin_source(seed + i),
            record_history=False,
        )
        samples.append(coin_rounds_to_success(result))
    return samples


def geometric_bin_probabilities(p: float, bins: int) -> list[float]:
    """``P[K = 1], ..., P[K = bins − 1], P[K ≥ bins]`` for K ~ Geom(p)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"geometric parameter must be in (0, 1), got {p!r}")
    cells = [p * (1.0 - p) ** (k - 1) for k in range(1, bins)]
    cells.append((1.0 - p) ** (bins - 1))
    return cells


def bin_round_counts(samples: Sequence[int | None], bins: int) -> list[int]:
    """Histogram of coin-round counts into ``1..bins−1`` plus a tail bin.

    Censored samples (``None``) land in the tail bin — the run needed at
    least that many rounds.
    """
    cells = [0] * bins
    for value in samples:
        if value is None or value >= bins:
            cells[-1] += 1
        elif value >= 1:
            cells[value - 1] += 1
        else:
            raise ValueError(f"coin-round count must be >= 1, got {value!r}")
    return cells


# -------------------------------------------------------------- CI smoke


def run_statistical_smoke(seed: int = 0) -> dict[str, object]:
    """The seeded ``make approx-smoke`` gate: three cheap ensemble checks.

    1. **Coin uniformity** — 2000 draws from one
       :class:`~repro.approx.coins.CoinSource` stream pass a KS test
       against U(0, 1) at α = 0.01.
    2. **Ben-Or geometric tail** — 150 fault-free mixed-input runs at
       ``n=6, t=1`` with a fair coin; the coin-round histogram passes a
       χ² test against Geom(0.6875) at p > 10⁻³.
    3. **ε-convergence** — midpoint and filtered-mean runs at
       ``n=7, t=2`` land within their declared ``eps`` (deterministic).

    Deterministic for a fixed *seed*; raises ``AssertionError`` with the
    failing measurement on any miss, returns the measurements otherwise.
    """
    report: dict[str, object] = {"seed": seed}

    coins = CoinSource(seed)
    draws = [coins.uniform(lane, r) for lane in range(20) for r in range(100)]
    ks = ks_statistic(draws, lambda x: min(1.0, max(0.0, x)))
    threshold = ks_critical(len(draws), alpha=0.01)
    report["coin_ks"] = ks
    report["coin_ks_critical"] = threshold
    assert ks < threshold, (
        f"coin stream failed KS uniformity: statistic {ks:.4f} >= "
        f"critical {threshold:.4f} (seed {seed})"
    )

    n, t, bias, count = 6, 1, 0.5, 150
    samples = sample_benor_rounds(n, t, bias, count, seed=seed)
    p = benor_success_probability(n, t, bias)
    bins = 3
    observed = bin_round_counts(samples, bins)
    expected = [count * cell for cell in geometric_bin_probabilities(p, bins)]
    pvalue = chi_square_pvalue(observed, expected)
    report["benor_success_probability"] = p
    report["benor_round_histogram"] = observed
    report["benor_chi2_pvalue"] = pvalue
    assert pvalue > 1e-3, (
        f"ben-or round counts diverge from Geom({p:.4f}): histogram "
        f"{observed}, chi^2 p-value {pvalue:.2e} (seed {seed})"
    )

    for algorithm in (MidpointApprox(7, 2, eps=0.25), FilteredMeanApprox(7, 2, eps=0.25)):
        result = run(
            algorithm,
            algorithm.inputs[algorithm.transmitter],
            record_history=False,
        )
        verdict = algorithm.conditions(result)
        report[f"{algorithm.name}_rounds"] = algorithm.m
        assert verdict.ok, (
            f"{algorithm.name} failed fault-free eps-convergence: {verdict}"
        )

    return report
