"""Transform correctness: four-step kernel vs direct summation, known signals."""

import numpy as np
import pytest

import oracles
from chirpnet.dsp.fft import _BLOCK, fft, power_spectrum
from chirpnet.errors import DegenerateInputError, ParameterError


def test_fft_matches_direct_summation():
    rng = np.random.default_rng(0)
    for n in (2, 4, 16, 128, 1024):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), oracles.naive_dft(x), atol=1e-9)


def test_fft_matches_numpy_on_random_batches():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 256))
    np.testing.assert_allclose(fft(x), np.fft.fft(x, axis=-1), atol=1e-9)


@pytest.mark.parametrize("n", [2**k for k in range(14)])
def test_fft_matches_direct_summation_on_complex_rows(n):
    """Every split the kernel takes, including the recursive sizes above 4096."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    got = fft(x)
    bins = np.unique(np.concatenate([np.arange(min(n, 64)), rng.integers(0, n, 64), [n - 1]]))
    want = np.stack([oracles.naive_dft_bins(row, bins) for row in x])
    np.testing.assert_allclose(got[:, bins], want, atol=1e-9)
    np.testing.assert_allclose(got, np.fft.fft(x, axis=-1), atol=1e-9)


@pytest.mark.parametrize("n", [3, 12, 40, 1000])
def test_non_power_of_two_length_rejected(n):
    with pytest.raises(ParameterError):
        fft(np.ones(n))
    with pytest.raises(ParameterError):
        power_spectrum(np.ones((2, n)))


def test_cosine_concentrates_in_one_bin():
    """cos(2 pi k n / N) puts power (N/2)^2 in bins k and N-k only."""
    n = 64
    k = 4
    x = np.cos(2 * np.pi * k * np.arange(n) / n)
    mag2 = np.abs(fft(x)) ** 2
    np.testing.assert_allclose(mag2[k], (n / 2) ** 2, rtol=1e-12)
    np.testing.assert_allclose(mag2[n - k], (n / 2) ** 2, rtol=1e-12)
    others = np.delete(mag2, [k, n - k])
    assert others.max() < 1e-18


def test_impulse_has_flat_spectrum():
    x = np.zeros(128)
    x[0] = 1.0
    np.testing.assert_allclose(fft(x), np.ones(128), atol=1e-12)


def test_parseval_energy_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(1024)
        time_energy = np.sum(x * x)
        freq_energy = np.sum(np.abs(fft(x)) ** 2) / 1024
        np.testing.assert_allclose(freq_energy, time_energy, rtol=1e-9)


def test_linearity():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, 256))
    np.testing.assert_allclose(fft(2.0 * a - 3.0 * b),
                               2.0 * fft(a) - 3.0 * fft(b), atol=1e-9)


def test_half_spectrum_length_and_content():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1024)
    p = power_spectrum(x)
    assert p.shape == (513,)
    np.testing.assert_allclose(p, np.abs(np.fft.fft(x)[:513]) ** 2, atol=1e-9)


@pytest.mark.parametrize(
    "batch", sorted({1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 255, 256, 257, 2999})
)
def test_power_spectrum_batches_across_block_edges(batch):
    rng = np.random.default_rng(batch)
    frames = rng.standard_normal((batch, 1024))
    p = power_spectrum(frames)
    assert p.shape == (batch, 513)
    want = np.abs(np.fft.rfft(frames, axis=-1)) ** 2
    np.testing.assert_allclose(p, want, rtol=1e-9, atol=1e-9)
    for i in sorted({0, batch // 2, batch - 1}):
        np.testing.assert_allclose(p[i], oracles.naive_power_spectrum(frames[i]),
                                   rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n", [2**k for k in range(13)])
def test_power_spectrum_every_fft_size(n):
    rng = np.random.default_rng(n)
    frames = rng.standard_normal((5, n))
    p = power_spectrum(frames)
    want = np.stack([oracles.naive_power_spectrum(f) for f in frames[:2]])
    np.testing.assert_allclose(p[:2], want, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(p, np.abs(np.fft.rfft(frames, axis=-1)) ** 2,
                               rtol=1e-9, atol=1e-9)


def test_power_spectrum_is_squared_magnitude():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(64)
    p = power_spectrum(x)
    np.testing.assert_allclose(p, np.abs(np.fft.fft(x)[:33]) ** 2, atol=1e-9)
    assert p.dtype == np.float64


def test_empty_input_rejected():
    with pytest.raises(DegenerateInputError):
        fft(np.array([]))
