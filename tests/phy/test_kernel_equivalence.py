"""Vectorized kernels vs the frozen seed implementations.

``tests/reference_impls.py`` holds verbatim copies of the pure-Python
hot loops the NumPy kernels replaced.  These tests pin the contract:
integer/bit kernels (convolutional code, Viterbi, scramblers, DQPSK
mappings) must be *byte-identical* to the references over randomized
inputs; the batched correlator reorders float accumulation (one GEMM
instead of per-template GEMVs plus prefix-sum normalization), so its
scores are checked to 1e-12 and its decisions exactly.
"""

import numpy as np
import pytest

from repro.core.adc import Adc
from repro.core.matching import score_capture
from repro.core.rectifier import ClampRectifier
from repro.core.templates import TemplateBank, reference_waveform
from repro.phy import bits as bitlib
from repro.phy import convcode, viterbi, wifi_b
from repro.phy.protocols import Protocol
from tests import reference_impls as ref


class TestConvcode:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 48, 500])
    def test_encode_matches_reference(self, n):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, n).astype(np.uint8)
        assert np.array_equal(convcode.encode(bits), ref.convcode_encode(bits))

    def test_encode_randomized_lengths(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 300))
            bits = rng.integers(0, 2, n).astype(np.uint8)
            assert np.array_equal(convcode.encode(bits), ref.convcode_encode(bits))


class TestViterbi:
    def test_hard_decode_byte_identical(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            n = int(rng.integers(8, 260))
            info = rng.integers(0, 2, n).astype(np.uint8)
            coded = ref.convcode_encode(info)
            # Random bit errors plus erasure bursts (depunctured frames).
            noisy = coded.copy()
            flips = rng.random(noisy.size) < 0.04
            noisy[flips] ^= 1
            erased = rng.random(noisy.size) < 0.08
            noisy[erased] = convcode.ERASURE
            got = viterbi.decode(noisy, n_info=n)
            want = ref.viterbi_decode(noisy, n_info=n)
            assert np.array_equal(got, want), f"trial {trial}"

    def test_hard_decode_tie_breaking(self):
        # All-erasure input: every branch metric ties, so the result is
        # decided purely by the tie rule the blocked kernel must copy.
        for n in (4, 9, 64, 130):
            noisy = np.full(2 * n, convcode.ERASURE, dtype=np.uint8)
            assert np.array_equal(
                viterbi.decode(noisy, n_info=n), ref.viterbi_decode(noisy, n_info=n)
            )

    # Info bits of a 300-byte PSDU at 802.11n MCS0 (16 service + 2400
    # data + 6 tail bits, padded to whole 26-bit symbols): long enough
    # to span several of the scalar decoder's 64-block chunks.
    MCS0_FRAME_BITS = 2444

    def test_hard_decode_full_frame(self):
        rng = np.random.default_rng(23)
        n = self.MCS0_FRAME_BITS
        for trial in range(2):
            info = rng.integers(0, 2, n).astype(np.uint8)
            noisy = ref.convcode_encode(info)
            noisy[rng.random(noisy.size) < 0.04] ^= 1
            noisy[rng.random(noisy.size) < 0.08] = convcode.ERASURE
            got = viterbi.decode(noisy, n_info=n)
            want = ref.viterbi_decode(noisy, n_info=n)
            assert np.array_equal(got, want), f"trial {trial}"

    def test_hard_decode_full_frame_tie_breaking(self):
        n = self.MCS0_FRAME_BITS
        noisy = np.full(2 * n, convcode.ERASURE, dtype=np.uint8)
        assert np.array_equal(
            viterbi.decode(noisy, n_info=n), ref.viterbi_decode(noisy, n_info=n)
        )

    def test_soft_decode_decisions_identical(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            n = int(rng.integers(8, 200))
            info = rng.integers(0, 2, n).astype(np.uint8)
            coded = ref.convcode_encode(info).astype(float)
            llrs = (2.0 * coded - 1.0) + rng.normal(0.0, 0.9, coded.size)
            got = viterbi.decode_soft(llrs, n_info=n)
            want = ref.viterbi_decode_soft(llrs, n_info=n)
            assert np.array_equal(got, want), f"trial {trial}"

    def test_roundtrip_clean(self):
        rng = np.random.default_rng(5)
        info = rng.integers(0, 2, 600).astype(np.uint8)
        assert np.array_equal(viterbi.decode(convcode.encode(info), n_info=600), info)


class TestWifiBMappings:
    def test_dqpsk_phases_lut_identical(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 120)) * 2
            bits = rng.integers(0, 2, n).astype(np.uint8)
            phase0 = float(rng.uniform(-np.pi, np.pi))
            got = wifi_b._dqpsk_phases(bits, phase0)
            want = ref.dqpsk_phases(bits, phase0)
            assert np.array_equal(got, want)

    def test_diff_dibits_identical(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(1, 150))
            syms = rng.normal(size=n) + 1j * rng.normal(size=n)
            prev = complex(rng.normal(), rng.normal())
            got = wifi_b._diff_dibits(syms, prev)
            want = ref.diff_dibits(syms, prev)
            assert np.array_equal(got, want)


class TestScramblers:
    def test_scramble_80211b_identical(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(0, 400))
            bits = rng.integers(0, 2, n).astype(np.uint8)
            seed = int(rng.integers(0, 128))
            assert np.array_equal(
                bitlib.scramble_80211b(bits, seed=seed),
                ref.scramble_80211b(bits, seed=seed),
            )

    def test_descramble_80211b_identical(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(0, 400))
            bits = rng.integers(0, 2, n).astype(np.uint8)
            seed = int(rng.integers(0, 128))
            assert np.array_equal(
                bitlib.descramble_80211b(bits, seed=seed),
                ref.descramble_80211b(bits, seed=seed),
            )

    def test_scramble_roundtrip(self):
        rng = np.random.default_rng(55)
        bits = rng.integers(0, 2, 333).astype(np.uint8)
        assert np.array_equal(
            bitlib.descramble_80211b(bitlib.scramble_80211b(bits)), bits
        )


class TestMatching:
    @pytest.fixture(scope="class")
    def bank(self):
        return TemplateBank.build(Adc(sample_rate=10e6, n_bits=4))

    @pytest.fixture(scope="class")
    def captures(self, bank):
        rect = ClampRectifier(noise_v_rms=2e-3)
        adc = bank.adc
        out = []
        for i, protocol in enumerate(Protocol):
            wave = reference_waveform(protocol, n_payload_bytes=12 + i)
            analog = rect.rectify(wave, -15.0)
            cap = adc.capture(
                analog, duration_s=(bank.l_p + bank.l_m + 60) / adc.sample_rate
            )
            out.append(cap.codes)
        return out

    @pytest.mark.parametrize("quantized", [True, False])
    def test_scores_match_reference(self, bank, captures, quantized):
        offsets = tuple(range(0, 48, 3))
        for codes in captures:
            a = ref.score_capture(codes, bank, quantized=quantized, offsets=offsets)
            b = score_capture(codes, bank, quantized=quantized, offsets=offsets)
            assert set(a) == set(b)
            for p in a:
                # GEMM accumulation order differs from the per-template
                # GEMVs, so exact bit-equality is not guaranteed.
                assert b[p] == pytest.approx(a[p], abs=1e-12)

    def test_argmax_decision_identical(self, bank, captures):
        for codes in captures:
            for quantized in (True, False):
                a = ref.score_capture(codes, bank, quantized=quantized)
                b = score_capture(codes, bank, quantized=quantized)
                assert max(a, key=a.get) is max(b, key=b.get)

    def test_no_valid_offsets(self, bank):
        scores = score_capture(
            np.zeros(4), bank, quantized=True, offsets=(0, 999999)
        )
        assert scores == {p: -1.0 for p in bank.templates}
