"""Closed-form and recursive routes to the matrix counts.

Everything here returns exact Python ints.  The k = 3 sum works in
``fractions.Fraction``, the other routes in integers, and every division
that must come out exact is checked, so a formula transcription error
surfaces as an :class:`ExactnessError` (also under ``python -O``) instead of a silently
wrong count.

The four ``lambda2_*`` entry points compute the k = 2 count through
independent routes (a partition sum and three different recursions);
they exist separately so they can be cross-validated against each other
and against the enumeration and profile-DP oracles.  The three
recursions memoize their values in module-level lists, which grow only
under one lock, so they are safe to call from several threads.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial

from .errors import ExactnessError, InconsistentInputError, InvalidParameterError, is_int

__all__ = [
    "lambda2_partition_sum",
    "lambda2_anand",
    "lambda2_good",
    "lambda2_system",
    "lambda2_plus",
    "lambda_plus_from_total",
    "lambda_minus_from_plus",
    "lambda3_explicit",
]

# Serializes every extension of the memo lists below: without it two
# threads can both read len(memo) == m and append twice, shifting every
# later entry to the wrong index.
_MEMO_LOCK = threading.Lock()


def _check_positive(n: int) -> None:
    if not is_int(n) or n < 1:
        raise InvalidParameterError("n must be a positive integer")


def lambda2_partition_sum(n: int) -> int:
    """k = 2 count as a sum over partitions of n into parts >= 2.

    A partition with multiplicities x_r of each part r, m parts in all,
    contributes (n!)^2 / prod_r x_r! (2r)^x_r.  That is 2^-n times the
    integer n! w 2^(n-m), where w = n! / prod_r r^x_r x_r! is the number
    of permutations of that cycle type.  A depth-first walk over the
    partitions, parts descending, carries w as an exact integer and sums
    the integer terms; the total is divided by 2^n once, checked exact.
    The walk closes each partition's parts of 2 in one step.  n = 1 has
    no such partition and gives 0.
    """
    _check_positive(n)
    twos = [1]  # twos[x] = 2^x x!, what x parts of 2 divide w by
    for x in range(1, n // 2 + 1):
        twos.append(twos[-1] * 2 * x)
    total = 0

    def walk(left: int, max_part: int, weight: int, parts: int) -> None:
        nonlocal total
        if left % 2 == 0:
            x = left // 2
            total += (weight // twos[x]) << (n - parts - x)
        for part in range(min(left, max_part), 2, -1):
            w = weight
            for mult in range(1, left // part + 1):
                w //= part * mult
                rest = left - part * mult
                if rest == 0:
                    total += w << (n - parts - mult)
                elif rest > 1:
                    walk(rest, part - 1, w, parts + mult)

    nfact = factorial(n)
    walk(n, n, nfact, 0)
    value, rest = divmod(nfact * total, 1 << n)
    if rest:
        raise ExactnessError("partition sum must be an integer")
    return value


_ANAND = [0, 0, 1, 6]  # index n; entry 0 is a sentinel


def lambda2_anand(n: int) -> int:
    """k = 2 count by the classical three-term recursion

        lam(n) = n (n-1)^2 / 2 * ((2n-3) lam(n-2) + (n-2)^2 lam(n-3))

    for n >= 4, with lam(1) = 0, lam(2) = 1, lam(3) = 6.  Values are
    memoized and filled bottom-up.
    """
    _check_positive(n)
    with _MEMO_LOCK:
        while len(_ANAND) <= n:
            m = len(_ANAND)
            num = m * (m - 1) ** 2 * ((2 * m - 3) * _ANAND[m - 2] + (m - 2) ** 2 * _ANAND[m - 3])
            half, rest = divmod(num, 2)
            if rest:
                raise ExactnessError("three-term recursion must divide evenly by 2")
            _ANAND.append(half)
        return _ANAND[n]


_GOOD = [0, 0, 1]  # index n; entry 0 is a sentinel


def lambda2_good(n: int) -> int:
    """k = 2 count by the classical two-term recursion

        lam(n) = (n-1) n lam(n-1) + (n-1)^2 n / 2 * lam(n-2)

    for n >= 3, with lam(1) = 0, lam(2) = 1.  Memoized bottom-up.
    """
    _check_positive(n)
    with _MEMO_LOCK:
        while len(_GOOD) <= n:
            m = len(_GOOD)
            num = (m - 1) ** 2 * m * _GOOD[m - 2]
            half, rest = divmod(num, 2)
            if rest:
                raise ExactnessError("two-term recursion must divide evenly by 2")
            _GOOD.append((m - 1) * m * _GOOD[m - 1] + half)
        return _GOOD[n]


_SYS_LAM = [0, 0, 1]  # index n; entry 0 is a sentinel
_SYS_AUX = [0, 0, 0, 0, 9]  # auxiliary sequence; bases aux(1..3) = 0, aux(4) = 9


def lambda2_system(n: int) -> tuple[int, int]:
    """k = 2 count by a coupled forward recursion with an auxiliary
    sequence aux that the count recursion subtracts:

        lam(n) = (n-1)(2n-3) lam(n-1) + (n-1)^2 lam(n-2) - aux(n)     n >= 3
        aux(n) = (n-1)^2 (n-2)^2 / 4 * (8 (n-3)(n-4) lam(n-3)
                 + (n-3)^2 lam(n-4) - 4 aux(n-2))                     n >= 5

    with lam(1) = 0, lam(2) = 1 and aux(1..3) = 0, aux(4) = 9.  Returns
    (lam(n), aux(n)); both divisions are checked exact.
    """
    _check_positive(n)
    with _MEMO_LOCK:
        while len(_SYS_LAM) <= n:
            m = len(_SYS_LAM)
            if m >= 5:
                if len(_SYS_AUX) != m:
                    raise ExactnessError("auxiliary sequence out of step with the count")
                coeff, rest = divmod((m - 1) ** 2 * (m - 2) ** 2, 4)
                if rest:
                    raise ExactnessError("auxiliary coefficient must divide evenly by 4")
                aux = coeff * (
                    8 * (m - 3) * (m - 4) * _SYS_LAM[m - 3]
                    + (m - 3) ** 2 * _SYS_LAM[m - 4]
                    - 4 * _SYS_AUX[m - 2]
                )
                if aux < 0:
                    raise ExactnessError(f"auxiliary term aux({m}) came out negative")
                _SYS_AUX.append(aux)
            lam = (
                (m - 1) * (2 * m - 3) * _SYS_LAM[m - 1]
                + (m - 1) ** 2 * _SYS_LAM[m - 2]
                - _SYS_AUX[m]
            )
            if lam < 0:
                raise ExactnessError(f"coupled recursion gave a negative count at n = {m}")
            _SYS_LAM.append(lam)
        return _SYS_LAM[n], _SYS_AUX[n]


def lambda2_plus(n: int) -> int:
    """Corner-one k = 2 count: plus(n) = 2(n-1) lam(n-1) + (n-1)^2 lam(n-2)
    for n >= 3, with the lam subterms from :func:`lambda2_good`."""
    if not is_int(n) or n < 3:
        raise InvalidParameterError("the corner-one formula needs n >= 3")
    return 2 * (n - 1) * lambda2_good(n - 1) + (n - 1) ** 2 * lambda2_good(n - 2)


def lambda_plus_from_total(n: int, k: int, lam: int) -> int:
    """Corner-one share of a total count: k * lam / n, exactly.

    Raises :class:`InconsistentInputError` when k * lam is not divisible
    by n, since a true total always splits evenly.
    """
    if not is_int(n) or not is_int(k) or not 1 <= k <= n:
        raise InvalidParameterError("need 1 <= k <= n")
    scaled = k * lam
    plus, rest = divmod(scaled, n)
    if rest:
        raise InconsistentInputError(
            f"{k} * {lam} is not divisible by {n}; not a valid total count"
        )
    return plus


def lambda_minus_from_plus(n: int, k: int, lam_plus: int) -> int:
    """Corner-zero count from the corner-one count: (n-k) * plus / k, exactly."""
    if not is_int(n) or not is_int(k) or not 1 <= k <= n:
        raise InvalidParameterError("need 1 <= k <= n")
    scaled = (n - k) * lam_plus
    minus, rest = divmod(scaled, k)
    if rest:
        raise InconsistentInputError(
            f"{n - k} * {lam_plus} is not divisible by {k}; not a valid corner-one count"
        )
    return minus


def lambda3_explicit(n: int) -> int:
    """k = 3 count by the explicit alternating triple sum

        (n!^2 / 6^n) * sum over a+b+g = n of
            (-1)^b (b+3g)! 2^a 3^b / (a! b! g!^2 6^g)

    evaluated over all (n+2)(n+1)/2 nonnegative solutions in exact
    rational arithmetic.  The result is checked to be a nonnegative
    integer; n < 3 correctly comes out 0.
    """
    _check_positive(n)
    total = Fraction(0)
    for g in range(n + 1):
        for b in range(n + 1 - g):
            a = n - g - b
            term = Fraction(
                factorial(b + 3 * g) * 2**a * 3**b,
                factorial(a) * factorial(b) * factorial(g) ** 2 * 6**g,
            )
            total += -term if b & 1 else term
    value = Fraction(factorial(n) ** 2, 6**n) * total
    if value.denominator != 1 or value < 0:
        raise ExactnessError("explicit k=3 sum must be a nonnegative integer")
    return int(value)
