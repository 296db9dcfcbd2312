"""Batched receivers vs loops over the single-packet kernels.

The ``demodulate_batch`` receivers promise bit-identical results to
the scalar loop for every protocol (see ``repro.phy.batch`` for the
ragged-input grouping policy).  These tests pin that contract at its
edges -- N=1 batches, ragged payload lengths, empty batches -- and
with a hypothesis property that demodulates noisy copies of randomized
payload sets, so the float-sensitive tracking loops (CFO, phase
feedback, CPE) are actually exercised.  The gateway's decode entry
point, ``OverlayDecoder.symbol_values_batch``, is pinned against the
scalar decoder at the batch sizes the gateway runs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.core.overlay_decoder import OverlayDecoder
from repro.core.tag_modulation import TagModulator
from repro.phy import ble, viterbi, wifi_b, wifi_n, zigbee
from repro.phy.protocols import Protocol
from tests import reference_impls as ref

PROTOCOL_MODULES = {
    "wifi_b": wifi_b,
    "wifi_n": wifi_n,
    "ble": ble,
    "zigbee": zigbee,
}


def _results_equal(a, b) -> bool:
    """Field-by-field equality for the protocol decode dataclasses."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, list):
            if len(x) != len(y) or any(
                not np.array_equal(u, v) for u, v in zip(x, y)
            ):
                return False
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(np.asarray(x), np.asarray(y)):
                return False
        elif x != y:
            return False
    return True


def _noisy(waves, seed):
    """AWGN copies; deterministic so both dispatch modes see one input."""
    rng = np.random.default_rng(seed)
    out = []
    for w in waves:
        sigma = 0.05 * float(np.sqrt(w.mean_power()))
        iq = w.iq + sigma * (
            rng.normal(size=w.n_samples) + 1j * rng.normal(size=w.n_samples)
        )
        noisy = dataclasses.replace(w, iq=iq, annotations=dict(w.annotations))
        out.append(noisy)
    return out


@pytest.mark.parametrize("name", sorted(PROTOCOL_MODULES))
class TestRoundtripBatchEqualsScalar:
    def test_single_packet_batch(self, name):
        mod = PROTOCOL_MODULES[name]
        waves = _noisy([mod.modulate(bytes(range(8)))], seed=3)
        (got,) = mod.demodulate_batch(waves)
        assert _results_equal(got, mod.demodulate(waves[0]))

    def test_ragged_lengths_preserve_order(self, name):
        mod = PROTOCOL_MODULES[name]
        rng = np.random.default_rng(7)
        payloads = [
            rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            for size in (6, 4, 6, 9, 4)
        ]
        waves = _noisy([mod.modulate(p) for p in payloads], seed=11)
        got = mod.demodulate_batch(waves)
        want = [mod.demodulate(w) for w in waves]
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert _results_equal(g, r)

    def test_empty_batch_raises(self, name):
        mod = PROTOCOL_MODULES[name]
        with pytest.raises(ValueError, match="empty batch"):
            mod.demodulate_batch([])

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_payload_sets(self, name, data):
        mod = PROTOCOL_MODULES[name]
        n_packets = data.draw(st.integers(1, 4), label="n_packets")
        payloads = [
            bytes(
                data.draw(
                    st.lists(
                        st.integers(0, 255), min_size=2, max_size=10
                    ),
                    label=f"payload{i}",
                )
            )
            for i in range(n_packets)
        ]
        seed = data.draw(st.integers(0, 2**16), label="noise_seed")
        waves = _noisy([mod.modulate(p) for p in payloads], seed)
        got = mod.demodulate_batch(waves)
        want = [mod.demodulate(w) for w in waves]
        for g, r in zip(got, want):
            assert _results_equal(g, r)


class TestViterbiBatch:
    def _noisy_stream(self, rng, n):
        info = rng.integers(0, 2, n).astype(np.uint8)
        coded = ref.convcode_encode(info)
        noisy = coded.copy()
        noisy[rng.random(noisy.size) < 0.05] ^= 1
        noisy[rng.random(noisy.size) < 0.05] = viterbi.ERASURE
        return noisy, n

    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 17, 130):
            streams = [self._noisy_stream(rng, n)[0] for _ in range(5)]
            got = viterbi.decode_batch(streams, n_info=n)
            want = [viterbi.decode(s, n_info=n) for s in streams]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_soft_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(6)
        for n in (1, 9, 64):
            llrs = [rng.normal(size=2 * n) for _ in range(4)]
            got = viterbi.decode_soft_batch(llrs, n_info=n)
            want = [viterbi.decode_soft(x, n_info=n) for x in llrs]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_single_stream_batch(self):
        rng = np.random.default_rng(8)
        noisy, n = self._noisy_stream(rng, 40)
        (got,) = viterbi.decode_batch([noisy], n_info=n)
        assert np.array_equal(got, viterbi.decode(noisy, n_info=n))

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty batch"):
            viterbi.decode_batch([])
        with pytest.raises(ValueError, match="empty batch"):
            viterbi.decode_soft_batch([])

    def test_ragged_batch_raises(self):
        with pytest.raises(ValueError, match="mixed lengths"):
            viterbi.decode_batch([np.zeros(4, np.uint8), np.zeros(6, np.uint8)])

    @settings(max_examples=12, deadline=None)
    @given(
        n_batch=st.sampled_from([1, 15, 16, 17]),
        n_coded=st.integers(0, 700),
        p_erase=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_dispatch_choice_never_changes_a_bit(
        self, n_batch, n_coded, p_erase, seed
    ):
        # B=1 and B=15 take the scalar loop, B=16 and B=17 the batched
        # ACS; odd lengths cover the erasure padding, p_erase=1.0 the
        # all-tie trellis.
        assert viterbi._BATCH_MIN == 16
        rng = np.random.default_rng(seed)
        streams = rng.integers(0, 2, (n_batch, n_coded)).astype(np.uint8)
        streams[rng.random(streams.shape) < p_erase] = viterbi.ERASURE
        got = viterbi.decode_batch(list(streams))
        want = [viterbi.decode(s) for s in streams]
        assert len(got) == n_batch
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_small_batches_count_as_scalar_dispatches(self):
        stream = self._noisy_stream(np.random.default_rng(9), 50)[0]
        perf.reset()
        try:
            viterbi.decode_batch([stream] * 15)
            assert perf.counters()["dispatch.viterbi.decode.scalar"] == 15
            assert "dispatch.viterbi.decode.batched" not in perf.counters()
            viterbi.decode_batch([stream] * 16)
            assert perf.counters()["dispatch.viterbi.decode.batched"] == 1
            assert perf.batch_histograms()["viterbi.decode"] == {1: 15, 16: 1}
        finally:
            perf.reset()


class TestOverlayDecoderBatch:
    """``symbol_values_batch`` is what the gateway decodes through."""

    def _received(self, codec, rng, n_prod):
        wave = codec.build_carrier(rng.integers(0, 2, n_prod).astype(np.uint8))
        _, n_tag = codec.capacity(wave.annotations["n_payload_symbols"])
        mod = TagModulator(codec, frequency_shift_hz=10e6)
        rx = mod.received_at_shifted_channel(
            mod.modulate(wave, rng.integers(0, 2, n_tag).astype(np.uint8))
        )
        rx.annotations = dict(wave.annotations)
        return rx

    @pytest.mark.parametrize("n_batch", [1, 4])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_batch_matches_scalar_decoder(self, protocol, n_batch):
        codec = OverlayCodec(OverlayConfig.for_mode(protocol, Mode.MODE_1))
        rng = np.random.default_rng(17)
        # One odd length, so B=4 is two dispatch groups (3 + 1).
        sizes = (4, 4, 3, 4)[:n_batch]
        waves = _noisy([self._received(codec, rng, n) for n in sizes], seed=19)
        decoder = OverlayDecoder(codec)
        got = decoder.symbol_values_batch(waves)
        want = [decoder.symbol_values(w) for w in waves]
        assert len(got) == n_batch
        for g, w in zip(got, want):
            assert len(g) == len(w)
            assert all(np.array_equal(a, b) for a, b in zip(g, w))
