"""Exact integer Chebyshev-type polynomials and their product rules: the
tests' reference for the Verlinde rings' supports and FP dimensions.

The family Delta_k is defined by Delta_0 = 1, Delta_1 = x and the
recursion Delta_k = x * Delta_{k-1} - Delta_{k-2}.  These are the
normalised Chebyshev polynomials of the second kind.  All coefficient
arithmetic is exact over Python integers; coefficients grow with k, so
machine-width integers are deliberately avoided.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; ``coefficients[d]`` multiplies ``x**d``.

    Trailing zero coefficients are trimmed on construction, so the
    leading coefficient is nonzero unless the polynomial is zero.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return IntPolynomial(
            tuple(self.coefficient(d) + other.coefficient(d) for d in range(n))
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coefficients))
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def divmod_monic(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Exact quotient and remainder by a monic divisor."""
        if divisor.is_zero() or divisor.coefficients[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coefficients)
        quo = [0] * max(len(rem) - divisor.degree, 0)
        for top in range(len(rem) - 1, divisor.degree - 1, -1):
            factor = rem[top]
            if factor == 0:
                continue
            shift = top - divisor.degree
            quo[shift] = factor
            for d, c in enumerate(divisor.coefficients):
                rem[shift + d] -= factor * c
        return IntPolynomial(tuple(quo)), IntPolynomial(tuple(rem))

    def __call__(self, y: float) -> float:
        return evaluate(self, y)


ZERO = IntPolynomial(())
ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))

_deltas = [ONE, X]


def delta(k: int) -> IntPolynomial:
    """The k-th polynomial Delta_k; results are memoised."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    while len(_deltas) <= k:
        _deltas.append(X * _deltas[-1] - _deltas[-2])
    return _deltas[k]


def product_support(i: int, j: int, n: int) -> list[int]:
    """Indices k with Delta_k appearing in Delta_i * Delta_j inside R_n.

    Returns {|i-j|, |i-j|+2, ..., min(i+j, 2n-(i+j)-2)} with any term
    equal to n dropped (Delta_n = 0 in R_n).  Every surviving index is
    < n and appears with multiplicity one.
    """
    if n < 1:
        raise ValueError(f"ring order must be positive, got {n}")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"indices ({i}, {j}) out of range for ring order {n}")
    lo = abs(i - j)
    hi = min(i + j, 2 * n - (i + j) - 2)
    return [k for k in range(lo, hi + 1, 2) if k != n]


def evaluate(p: IntPolynomial, y: float) -> float:
    """Horner evaluation of p at the real argument y."""
    acc = 0.0
    for c in reversed(p.coefficients):
        acc = acc * y + c
    return acc
