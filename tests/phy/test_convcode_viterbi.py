"""Tests for the BCC encoder, Viterbi decoder, and interleavers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import convcode, viterbi
from repro.phy.interleaver import deinterleave, interleave
from repro.phy.wifi_n import ht_deinterleave, ht_interleave


class TestEncoder:
    def test_rate_half(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert convcode.encode(bits).size == 10

    def test_zero_input_gives_zero_output(self):
        assert not convcode.encode(np.zeros(20, np.uint8)).any()

    def test_all_ones_steady_state(self):
        # Both generators have odd weight, so all-ones input yields
        # all-ones output once the register fills (complement-codeword
        # property the 802.11n overlay decoding relies on).
        out = convcode.encode(np.ones(20, np.uint8))
        assert out[12:].all()

    def test_known_impulse_response(self):
        out = convcode.encode(np.array([1, 0, 0, 0, 0, 0, 0], np.uint8))
        # g0=133(oct)=1011011b, g1=171(oct)=1111001b; taps over time
        # are the polynomial bits LSB (current bit) to MSB (oldest).
        a = out[0::2]
        b = out[1::2]
        assert list(a) == [1, 1, 0, 1, 1, 0, 1]
        assert list(b) == [1, 0, 0, 1, 1, 1, 1]


class TestViterbi:
    @given(st.lists(st.integers(0, 1), min_size=8, max_size=120))
    @settings(max_examples=25, deadline=None)
    def test_clean_round_trip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        decoded = viterbi.decode(convcode.encode(arr), n_info=arr.size)
        assert np.array_equal(decoded, arr)

    def test_corrects_scattered_errors(self):
        rng = np.random.default_rng(3)
        info = rng.integers(0, 2, 200).astype(np.uint8)
        coded = convcode.encode(info)
        # Flip well-separated coded bits; free distance 10 lets the
        # decoder fix isolated errors easily.
        for pos in range(10, 380, 40):
            coded[pos] ^= 1
        decoded = viterbi.decode(coded, n_info=info.size)
        assert np.array_equal(decoded, info)

    def test_complemented_segment_decodes_to_complement(self):
        # The mechanism behind 802.11n overlay decoding: inverting a
        # long run of coded bits yields (transients aside) the
        # complemented information bits.
        info = np.zeros(120, np.uint8)
        coded = convcode.encode(info)
        coded[80:160] ^= 1  # invert coded bits for info bits 40..79
        decoded = viterbi.decode(coded, n_info=info.size)
        middle = decoded[50:70]  # middle of the inverted region
        assert middle.mean() > 0.9

    def test_empty_input(self):
        assert viterbi.decode(np.zeros(0, np.uint8)).size == 0


class TestViterbiFootprint:
    def test_full_frame_decode_memory_is_bounded(self):
        # A 2444-bit stream is a 300-byte 802.11n MCS0 frame; building
        # all of its block branch sums at once would peak near 6 MiB.
        rng = np.random.default_rng(3)
        coded = convcode.encode(rng.integers(0, 2, 2444).astype(np.uint8))
        viterbi.decode(coded)  # warm any lazily built state
        tracemalloc.start()
        try:
            viterbi.decode(coded)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestInterleavers:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_legacy_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 96).astype(np.uint8)
        assert np.array_equal(deinterleave(interleave(bits)), bits)

    def test_legacy_permutation_is_bijection(self):
        from repro.phy.interleaver import permutation

        perm = permutation(48, 1)
        assert sorted(perm.tolist()) == list(range(48))

    @pytest.mark.parametrize("n_bpsc", [1, 2, 4])
    def test_ht_round_trip(self, n_bpsc):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 52 * n_bpsc).astype(np.uint8)
        assert np.array_equal(ht_deinterleave(ht_interleave(bits, n_bpsc), n_bpsc), bits)

    @pytest.mark.parametrize("n_bpsc", [1, 2, 4])
    def test_ht_permutation_spreads_adjacent_bits(self, n_bpsc):
        # Adjacent coded bits should land on distant subcarriers.
        bits = np.zeros(52 * n_bpsc, np.uint8)
        bits[0] = 1
        bits[1] = 1
        out = ht_interleave(bits, n_bpsc)
        positions = np.flatnonzero(out)
        assert abs(positions[1] - positions[0]) > 2
