"""A 40-digit reference for the paper's curves, in stdlib ``decimal`` alone.

It imports neither numpy nor ``entfilter``, so no BLAS kernel and no code under
test sets its digits. A ``phi+`` pair whose photon A crossed bit-flip (x axis)
or phase-flip (z axis) noise of weight p is a mixture of two Bell states. Filter
A favors |H> and the compensator on B favors |V> (the orientation ``-T a`` of
both noises, and the fallback ``-a`` where T a vanishes). Such filters keep the
pair an X state, nonzero only on the diagonal and the anti-diagonal, so every
column of a curve has a closed form:

* the spectrum is that of the two 2x2 blocks {HH, VV} and {HV, VH};
* both marginals are diagonal;
* C = 2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44)).
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 40


def _entropy_bits(weights) -> Decimal:
    # -sum(w log2 w); a weight of 0 (or -1e-40 from the rounding of a block root) adds nothing
    return -sum((w * w.ln() for w in weights if w > 0), Decimal(0)) / Decimal(2).ln()


def _block_eigenvalues(a: Decimal, d: Decimal, z: Decimal) -> tuple[Decimal, Decimal]:
    # eigenvalues of the real symmetric block [[a, z], [z, d]]
    mean, half = (a + d) / 2, (a - d) / 2
    root = (half * half + z * z).sqrt()
    return mean + root, mean - root


def filtered_pair(noise: str, p: float, gamma_a: float, gamma_b: float) -> tuple[float, float, float]:
    """(mutual information in bits, concurrence, transmission) of one filtered pair.

    ``noise`` is "bitflip" or "phaseflip"; each float argument is taken at its
    exact binary value.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        p, gamma_a, gamma_b = Decimal(p), Decimal(gamma_a), Decimal(gamma_b)
        kept, flipped = 1 - p / 2, p / 2  # weights of phi+ and of psi+ (x) or phi- (z)
        half = Decimal(1) / 2
        if noise == "bitflip":
            diagonal = (kept * half, flipped * half, flipped * half, kept * half)
            r14, r23 = kept * half, flipped * half
        elif noise == "phaseflip":
            diagonal = (half, Decimal(0), Decimal(0), half)
            r14, r23 = (kept - flipped) * half, Decimal(0)
        else:
            raise ValueError(f"unknown noise {noise!r}")
        # amplitude of the normalized filters e^(-g/2) P on |HH>, |HV>, |VH>, |VV>:
        # A passes |H> and damps |V> by e^-gA, B passes |V> and damps |H> by e^-gB
        a, b = (-gamma_a).exp(), (-gamma_b).exp()
        f = (b, Decimal(1), a * b, a)
        passed = [fi * fi * r for fi, r in zip(f, diagonal)]
        transmission = sum(passed)
        s11, s22, s33, s44 = (x / transmission for x in passed)
        s14 = f[0] * f[3] * r14 / transmission
        s23 = f[1] * f[2] * r23 / transmission
        spectrum = (*_block_eigenvalues(s11, s44, s14), *_block_eigenvalues(s22, s33, s23))
        mutual_info = (
            _entropy_bits((s11 + s22, s33 + s44))
            + _entropy_bits((s11 + s33, s22 + s44))
            - _entropy_bits(spectrum)
        )
        excess = max(Decimal(0), abs(s14) - (s22 * s33).sqrt(), abs(s23) - (s11 * s44).sqrt())
        return float(mutual_info), float(2 * excess), float(transmission)


def optimal_gamma_b(noise: str, p: float, gamma_a: float) -> float:
    """atanh(||T a|| tanh gA), with ||T a|| = 1 - p for bit flip and 1 for phase flip."""
    if noise == "phaseflip" or p == 0:
        return gamma_a  # atanh(tanh gA) = gA
    with localcontext() as ctx:
        ctx.prec = DIGITS
        e = (-2 * Decimal(gamma_a)).exp()
        x = (1 - Decimal(p)) * (1 - e) / (1 + e)
        return float(((1 + x) / (1 - x)).ln() / 2)
