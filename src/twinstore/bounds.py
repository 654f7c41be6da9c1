"""Closed-form file-size and secrecy bounds for regenerating-code storage.

Everything is evaluated in exact rational arithmetic (fractions.Fraction);
fractional quantities are only rounded when serialized (6 decimals in CSV).

The comparison series reproduce three standard desk-scale comparisons
between the twin-type framework (file size k^2, secure size k(k-l1-l2))
and MBR / MSR codes at matched operating points:

  fig5 -- plain file size vs k, beta = 1 (MBR at alpha = d = k,
          MSR at d = 2k - 1);
  fig8 -- secure file size vs l = l1 eavesdroppers at fixed k (MBR side);
  fig9 -- secure file size vs l2 observed repairs at fixed k, l1 (MSR side).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import BadRange
from .secure import secure_capacity_twin


@dataclass(frozen=True)
class BoundParams:
    """Operating point of a regenerating code."""

    k: int
    d: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.k < 1 or self.d < self.k:
            raise ValueError(f"need 1 <= k <= d, got k={self.k}, d={self.d}")
        if self.beta < 0 or self.beta > self.alpha:
            raise ValueError(f"need 0 <= beta <= alpha, got beta={self.beta}, "
                             f"alpha={self.alpha}")

    @property
    def gamma(self) -> Fraction:
        """Total repair bandwidth d * beta."""
        return self.d * self.beta


def capacity_bound(p: BoundParams) -> Fraction:
    """Max file size: sum_{i=0}^{k-1} min(alpha, (d-i) beta), the
    secrecy bound with no eavesdropper."""
    return secrecy_bound_pawar(p, 0)


def msr_point(s, k: int, d: int) -> tuple:
    """Minimum-storage extreme: (S/k, (S/k) * d / (d - k + 1))."""
    s = Fraction(s)
    alpha = s / k
    return alpha, alpha * Fraction(d, d - k + 1)


def mbr_point(s, k: int, d: int) -> tuple:
    """Minimum-bandwidth extreme: storage equals repair bandwidth."""
    both = Fraction(s) / k * Fraction(2 * d, 2 * d - k + 1)
    return both, both


def mbr_file_size(k: int, d: int, beta) -> Fraction:
    """(kd - C(k,2)) * beta; reduces to k(k+1)/2 at beta=1, alpha=d=k."""
    return (k * d - comb(k, 2)) * Fraction(beta)


def msr_file_size(k: int, d: int, beta) -> tuple:
    """Return (S, alpha) with alpha = (d-k+1) beta and S = k alpha."""
    alpha = (d - k + 1) * Fraction(beta)
    return k * alpha, alpha


def twin_file_size(k: int) -> int:
    """k^2 symbols per message matrix."""
    return k * k


def secrecy_bound_pawar(p: BoundParams, l: int) -> Fraction:
    """Secure file-size bound: sum_{i=l}^{k-1} min(alpha, (d-i) beta)."""
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    return sum((min(p.alpha, (p.d - i) * p.beta) for i in range(l, p.k)),
               Fraction(0))


def secure_mbr_size(k: int, d: int, beta, l: int) -> Fraction:
    """(kd - C(k,2)) beta - (ld - C(l,2)) beta; (k-l)(k+1-l)/2 at alpha=d=k, beta=1."""
    return mbr_file_size(k, d, beta) - mbr_file_size(l, d, beta)


def secure_msr_size(k: int, d: int, alpha, l1: int, l2: int) -> Fraction:
    """(k - l1 - l2) (1 - 1/(d-k+1))^l2 * alpha, exact rational."""
    shrink = (1 - Fraction(1, d - k + 1)) ** l2
    return (k - l1 - l2) * shrink * Fraction(alpha)


@dataclass(frozen=True)
class BoundRow:
    """One comparison-series row; absent quantities stay None."""

    k: int
    l1: int
    l2: int
    s_twin: Fraction | int | None
    s_mbr: Fraction | int | None
    s_msr: Fraction | int | None


def comparison_series(kind: str, *, k_max: int = 50, k: int = 50,
                      l1: int = 2) -> list:
    """Rows for one of the three comparison plots; see the module docstring."""
    rows = []
    if kind == "fig5":
        if k_max < 3:
            raise BadRange(f"fig5 needs k_max >= 3, got {k_max}")
        for kk in range(3, k_max + 1):
            rows.append(BoundRow(
                k=kk, l1=0, l2=0,
                s_twin=twin_file_size(kk),
                s_mbr=mbr_file_size(kk, kk, 1),
                s_msr=msr_file_size(kk, 2 * kk - 1, 1)[0]))
    elif kind == "fig8":
        if k < 2:
            raise BadRange(f"fig8 needs k >= 2, got {k}")
        for l in range(1, k):
            rows.append(BoundRow(
                k=k, l1=l, l2=0,
                s_twin=secure_capacity_twin(k, l, 0),
                s_mbr=secure_mbr_size(k, k, 1, l),
                s_msr=None))
    elif kind == "fig9":
        if l1 < 0 or k - l1 - 1 < 1:
            raise BadRange(f"fig9 needs l2 range 1..k-l1-1 nonempty, "
                           f"got k={k}, l1={l1}")
        for l2 in range(1, k - l1):
            rows.append(BoundRow(
                k=k, l1=l1, l2=l2,
                s_twin=secure_capacity_twin(k, l1, l2),
                s_mbr=None,
                s_msr=secure_msr_size(k, 2 * k - 1, k, l1, l2)))
    else:
        raise BadRange(f"unknown series kind {kind!r}; expected fig5|fig8|fig9")
    return rows


CSV_HEADER = ("k", "l1", "l2", "s_twin", "s_mbr", "s_msr")


def _format_quantity(val) -> str:
    if val is None:
        return ""
    frac = Fraction(val)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{float(frac):.6f}"


def series_to_csv(rows) -> str:
    """Stable CSV text with header k,l1,l2,s_twin,s_mbr,s_msr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([row.k, row.l1, row.l2,
                         _format_quantity(row.s_twin),
                         _format_quantity(row.s_mbr),
                         _format_quantity(row.s_msr)])
    return buf.getvalue()
