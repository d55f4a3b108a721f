from fractions import Fraction

import numpy as np
import pytest

from lcfield.grid import Axis, Representation, SampledFunction, _cis, _turns, norm
from lcfield.spectral import _signed_dft, parseval_check, to_momentum, to_position


def make_axis(n=2048, span=80.0):
    return Axis(start=-span / 2, step=span / n, count=n)


def position_fn(axis, values, s=1):
    return SampledFunction(axis=axis, values=values,
                           representation=Representation.POSITION_CHI, s=s)


def unit_gaussian(axis, width=2.0, carrier=0.0, s=1):
    chi = axis.points()
    vals = (np.pi * width**2) ** -0.25 * np.exp(-chi**2 / (2 * width**2))
    vals = vals.astype(complex)
    if carrier:
        vals *= np.exp(1j * s * carrier * chi)
    return position_fn(axis, vals, s=s)


class TestToMomentum:
    @pytest.mark.parametrize("s", [+1, -1])
    def test_gaussian_pair(self, s):
        w = 2.0
        ax = make_axis()
        f = unit_gaussian(ax, width=w, s=s)
        ft = to_momentum(f)
        k = ft.axis.points()
        expected = (w**2 / np.pi) ** 0.25 * np.exp(-(w**2) * k**2 / 2)
        assert np.abs(ft.values - expected).max() < 1e-8
        assert norm(ft) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("s", [+1, -1])
    def test_carrier_peak_at_positive_k(self, s):
        # e^{+i*s*k0*chi} lands at +k0 under the e^{-i*s*k*chi} kernel
        # for either direction flag.
        ax = make_axis()
        k0 = 2.5
        f = unit_gaussian(ax, width=8.0, carrier=k0, s=s)
        ft = to_momentum(f)
        peak = ft.axis.points()[np.argmax(np.abs(ft.values))]
        assert peak == pytest.approx(k0, abs=ft.axis.step)

    def test_zero_maps_to_zero(self):
        ax = make_axis(n=128, span=8.0)
        f = position_fn(ax, np.zeros(128))
        assert np.all(to_momentum(f).values == 0)

    def test_rejects_momentum_input(self):
        f = to_momentum(unit_gaussian(make_axis()))
        with pytest.raises(ValueError):
            to_momentum(f)

    def test_tags_preserved(self):
        ax = make_axis(n=128, span=8.0)
        f = SampledFunction(axis=ax, values=np.zeros(128),
                            representation=Representation.POSITION_CHI,
                            s=-1, pol="V")
        ft = to_momentum(f)
        assert ft.representation is Representation.MOMENTUM_K
        assert (ft.s, ft.pol) == (-1, "V")


class TestToPosition:
    @pytest.mark.parametrize("s", [+1, -1])
    def test_roundtrip_random_bandlimited(self, s):
        rng = np.random.default_rng(7)
        ax = make_axis(n=512, span=40.0)
        k = ax.conjugate().points()
        # random spectrum confined to the inner quarter band
        spec = np.where(np.abs(k) < 0.25 * np.abs(k).max(),
                        rng.normal(size=512) + 1j * rng.normal(size=512), 0.0)
        mom = SampledFunction(axis=ax.conjugate(), values=spec,
                              representation=Representation.MOMENTUM_K, s=s)
        f = to_position(mom, target=ax)
        back = to_momentum(f)
        assert np.abs(back.values - mom.values).max() < 1e-10

    @pytest.mark.parametrize("s", [+1, -1])
    def test_single_bin_spike(self, s):
        ax = make_axis(n=256, span=16.0)
        kax = ax.conjugate()
        spike = np.zeros(256, dtype=complex)
        idx = 140
        spike[idx] = 1.0
        k0 = kax.points()[idx]
        f = to_position(SampledFunction(axis=kax, values=spike,
                                        representation=Representation.MOMENTUM_K,
                                        s=s), target=ax)
        expected = np.exp(1j * s * k0 * ax.points()) * kax.step / np.sqrt(2 * np.pi)
        assert np.abs(f.values - expected).max() < 1e-10

    def test_zero(self):
        kax = make_axis(n=64, span=8.0).conjugate()
        f = to_position(SampledFunction(axis=kax, values=np.zeros(64),
                                        representation=Representation.MOMENTUM_K,
                                        s=1))
        assert np.all(f.values == 0)

    def test_rejects_position_input(self):
        with pytest.raises(ValueError):
            to_position(unit_gaussian(make_axis()))

    def test_rejects_asymmetric_k_axis(self):
        kax = make_axis(n=64, span=8.0).conjugate()
        shifted = Axis(start=kax.start + kax.step / 3, step=kax.step, count=64)
        with pytest.raises(ValueError, match="symmetric"):
            to_position(SampledFunction(axis=shifted, values=np.ones(64),
                                        representation=Representation.MOMENTUM_K, s=1))

    def test_rejects_nonconjugate_target(self):
        ft = to_momentum(unit_gaussian(make_axis()))
        with pytest.raises(ValueError):
            to_position(ft, target=Axis(start=0.0, step=1.0, count=2048))


def direct_transform(values, chi_axis, sign, to_k):
    """The O(N^2) sum of values * exp(i*sign*k*chi) * dchi/sqrt(2*pi) between
    chi_axis and its conjugate k axis, every phase reduced exactly.

    With chi = (offset + i)*dchi and k = (m - n/2)*dk, k*chi/(2*pi) is
    (m - n/2)*(offset + i)/n; offset is a binary fraction p/q, so that is
    the integer (m - n/2)*(p + i*q) over n*q, reduced mod n*q in integers.
    """
    n = chi_axis.count
    p, q = (chi_axis.start / chi_axis.step).as_integer_ratio()
    i = np.arange(n, dtype=object)
    turns = np.multiply.outer(i - n // 2, p + i * q) % (n * q) / (n * q)
    kernel = np.exp(2j * np.pi * sign * turns.astype(float))  # [m, i]
    out = (kernel if to_k else kernel.T) @ values
    return out * (chi_axis.step if to_k else chi_axis.conjugate().step) / np.sqrt(2 * np.pi)


class TestSignedDft:
    """Both transforms against the exactly phased direct sum.  The starts
    include offsets start/step that are not integers, and a grid far from
    zero, whose phases k*chi reach ~1e7 rad at N = 256.
    """

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("start", [None, 0.0, 0.37, -12.3456789, 1e3, -7.7e5])
    @pytest.mark.parametrize("s", [+1, -1])
    def test_matches_direct_sum(self, n, start, s):
        step = 0.3
        chi_axis = Axis(start=-(n // 2) * step if start is None else start,
                        step=step, count=n)
        rng = np.random.default_rng(n)
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        ft = to_momentum(position_fn(chi_axis, values, s=s))
        want = direct_transform(values, chi_axis, -s, to_k=True)
        assert np.abs(ft.values - want).max() <= 1e-13 * np.abs(want).max()
        mom = SampledFunction(axis=chi_axis.conjugate(), values=values,
                              representation=Representation.MOMENTUM_K, s=s)
        f = to_position(mom, target=chi_axis)
        want = direct_transform(values, chi_axis, s, to_k=False)
        assert np.abs(f.values - want).max() <= 1e-13 * np.abs(want).max()

    @staticmethod
    def outer_product_dft(values, offset, sign, to_k):
        """_signed_dft with its whole n-long linear phase built first, as the
        outer product of the coarse and fine tables, and the input copied
        before it is multiplied in place.
        """
        n = len(values)
        r = sign * offset / n
        width = 1 << (n.bit_length() // 2)
        coarse = _cis(_turns(r, np.arange(-(n // 2), n // 2, width)))
        fine = _cis(_turns(r, np.arange(width)))
        phase = np.multiply.outer(coarse, fine).ravel()[:n]
        out = np.array(values, dtype=complex)
        if to_k:
            out[1::2] *= -1
        else:
            out *= phase
        if sign == -1:
            np.fft.fft(out, out=out)
        else:
            np.fft.ifft(out, norm="forward", out=out)
        if to_k:
            out *= phase
        else:
            out[1::2] *= -1
        return out

    # Row widths 2, 32, 32, 64, 256, 256 over 3, 25, 32 (the last row
    # short), 64, 256 and 257 rows (the last row short, past two full
    # blocks of rows).  An offset of -n/2 is a half turn, which
    # test_half_turn_is_an_exact_sign_flip covers.
    @pytest.mark.parametrize("n", [6, 800, 1000, 2**12, 2**16, 2**16 + 2])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("to_k", [True, False])
    def test_bit_identical_to_outer_product_phase(self, n, sign, to_k):
        rng = np.random.default_rng(n)
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        for offset in (-12.3456789 / 0.3, 7.7e5 / 0.3):
            got = _signed_dft(values, offset, sign, to_k)
            want = self.outer_product_dft(values, offset, sign, to_k)
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def sign_flip_dft(values, offset, sign, to_k):
        """_signed_dft for an integer 2*r = 2*sign*offset/n, whose linear
        phase exp(2*pi*i*r*q) is exactly (-1)**(2*r*q): a sign flip where
        2*r*q is odd.
        """
        n = len(values)
        chi_flip = np.arange(n) % 2 == 1
        k_flip = (np.arange(n) - n // 2) * (2 * sign * offset // n) % 2 == 1
        out = np.array(values, dtype=complex)
        out[chi_flip if to_k else k_flip] *= -1
        if sign == -1:
            np.fft.fft(out, out=out)
        else:
            np.fft.ifft(out, norm="forward", out=out)
        out[k_flip if to_k else chi_flip] *= -1
        return out

    # Every grid with start/step = -n/2 (each shipped and benchmark grid,
    # kappa-stretched ones too) has r = -+1/2.  At n = 6 and 2**16 + 2,
    # n = 2 (mod 4), the indices whose q = m - n/2 is odd are the even ones.
    # The coarse and fine tables would carry cis(1/2)'s 1.2e-16 imaginary
    # part into the result.
    @pytest.mark.parametrize("n", [6, 1000, 2**12, 2**16 + 2])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("to_k", [True, False])
    def test_half_turn_is_an_exact_sign_flip(self, n, sign, to_k):
        rng = np.random.default_rng(n)
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        for offset in (-(n // 2), 0, n // 2):
            got = _signed_dft(values, offset, sign, to_k)
            want = self.sign_flip_dft(values, offset, sign, to_k)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("r", [0.5, -0.643004109375, 1 / 3, -2.0 ** -40 / 3, 123456.789])
    def test_turns_exact_mod_one(self, r):
        q = np.array([0, 1, -1, 12345, -2**39 + 7, 2**40 - 1])
        got = _turns(r, q)
        assert np.all(np.abs(got) <= 0.5)
        # Distance mod 1 from the exact r*q: +-1/2 are the same phase.
        err = [(Fraction(g) - Fraction(r) * int(k) + Fraction(1, 2)) % 1 - Fraction(1, 2)
               for g, k in zip(got, q)]
        assert max(abs(float(e)) for e in err) <= 2.5e-16


class TestParseval:
    def test_unit_gaussian(self):
        f = unit_gaussian(make_axis())
        assert parseval_check(f, to_momentum(f)) < 1e-10

    def test_two_bump_packet(self):
        ax = make_axis()
        chi = ax.points()
        vals = (np.exp(-((chi - 5) ** 2) / 4) + np.exp(-((chi + 5) ** 2) / 9)
                * np.exp(1j * 1.5 * chi))
        f = position_fn(ax, vals)
        assert parseval_check(f, to_momentum(f)) < 1e-10

    def test_single_bin_spike(self):
        ax = make_axis(n=128, span=8.0)
        vals = np.zeros(128, dtype=complex)
        vals[17] = 3.0 - 1.0j
        f = position_fn(ax, vals)
        assert parseval_check(f, to_momentum(f)) < 1e-12

    def test_zero_function_flagged_absolute(self):
        ax = make_axis(n=64, span=8.0)
        f = position_fn(ax, np.zeros(64))
        assert parseval_check(f, to_momentum(f)) == 0.0
        # With ||f|| = 0 the error is absolute: here ||ft||^2 itself.
        ft = to_momentum(position_fn(ax, np.ones(64)))
        assert parseval_check(f, ft) == pytest.approx(norm(ft) ** 2)

    def test_rejects_other_than_the_momentum_representation(self):
        f = unit_gaussian(make_axis())
        for ft in (f, to_momentum(unit_gaussian(make_axis(n=512)))):
            with pytest.raises(ValueError):
                parseval_check(f, ft)

    @pytest.mark.parametrize("s", [+1, -1])
    def test_unitarity_random(self, s):
        rng = np.random.default_rng(3)
        ax = make_axis(n=256, span=16.0)
        f = position_fn(ax, rng.normal(size=256) + 1j * rng.normal(size=256), s=s)
        assert abs(norm(to_momentum(f)) - norm(f)) < 1e-10


def test_linearity():
    rng = np.random.default_rng(11)
    ax = make_axis(n=256, span=16.0)
    f = position_fn(ax, rng.normal(size=256) + 1j * rng.normal(size=256))
    g = position_fn(ax, rng.normal(size=256) + 1j * rng.normal(size=256))
    a, b = 0.3 - 1.2j, 2.0 + 0.5j
    combo = position_fn(ax, a * f.values + b * g.values)
    lhs = to_momentum(combo).values
    rhs = a * to_momentum(f).values + b * to_momentum(g).values
    assert np.abs(lhs - rhs).max() < 1e-12
