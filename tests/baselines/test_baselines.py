"""Tests for the Hitchhike / FreeRider two-receiver baselines."""

import numpy as np
import pytest

from repro.baselines import FreeRider, Hitchhike, TwoReceiverDecoder, xor_decode
from repro.channel.occlusion import Material


class TestXorDecode:
    def test_aligned_recovers_tag_bits(self):
        rng = np.random.default_rng(0)
        carrier = rng.integers(0, 2, 64).astype(np.uint8)
        tag = rng.integers(0, 2, 64).astype(np.uint8)
        assert np.array_equal(xor_decode(carrier, carrier ^ tag), tag)

    def test_offset_corrupts(self):
        rng = np.random.default_rng(1)
        carrier = rng.integers(0, 2, 256).astype(np.uint8)
        tag = rng.integers(0, 2, 256).astype(np.uint8)
        decoded = xor_decode(carrier, carrier ^ tag, offset=3)
        assert np.mean(decoded != tag) > 0.3


class TestTwoReceiverDecoder:
    def test_clean_channels_zero_ber(self):
        d = TwoReceiverDecoder(original_ber=0.0, backscatter_ber=0.0)
        assert d.tag_bit_error_rate() == 0.0

    def test_original_errors_leak_into_tag_ber(self):
        # The paper's central criticism: tag BER tracks the original
        # channel even with a perfect backscatter channel.
        d = TwoReceiverDecoder(original_ber=0.1, backscatter_ber=0.0)
        assert d.tag_bit_error_rate() == pytest.approx(0.1)

    def test_lost_originals_are_coin_flips(self):
        d = TwoReceiverDecoder(0.0, 0.0, original_loss_rate=1.0)
        assert d.tag_bit_error_rate() == pytest.approx(0.5)

    def test_simulate_packet_matches_closed_form(self):
        rng = np.random.default_rng(2)
        d = TwoReceiverDecoder(original_ber=0.05, backscatter_ber=0.02)
        tag = rng.integers(0, 2, 400).astype(np.uint8)
        errs = []
        for _ in range(60):
            decoded = d.simulate_packet(tag, rng)
            errs.append(np.mean(decoded != tag))
        assert np.mean(errs) == pytest.approx(d.tag_bit_error_rate(), abs=0.02)

    def test_simulate_packet_loss(self):
        rng = np.random.default_rng(3)
        d = TwoReceiverDecoder(0.0, 0.0, original_loss_rate=1.0)
        assert d.simulate_packet(np.ones(8, np.uint8), rng) is None


class TestFig9:
    def test_ber_escalates_with_occlusion(self):
        rng = np.random.default_rng(4)
        hh = Hitchhike()
        bers = [hh.tag_ber(m, rng) for m in
                (Material.NONE, Material.WOOD, Material.CONCRETE)]
        assert bers[0] < 0.01
        assert bers[0] < bers[1] < bers[2]
        assert bers[2] > 0.3  # concrete is catastrophic (paper: 59%)

    def test_offsets_grow_with_distance(self):
        rng = np.random.default_rng(5)
        hh = Hitchhike()
        near = [hh.sample_offset(1.0, rng) for _ in range(300)]
        far = [hh.sample_offset(10.0, rng) for _ in range(300)]
        assert np.mean(far) > np.mean(near)
        assert max(far) <= 8  # Fig 9b: offsets as far as 8 symbols

    def test_freerider_aligns_better_than_hitchhike(self):
        rng = np.random.default_rng(6)
        assert FreeRider().offset_aligned_probability(
            8.0, rng
        ) > Hitchhike().offset_aligned_probability(8.0, rng)


class TestFig15:
    def test_drywall_throughputs_near_paper(self):
        rng = np.random.default_rng(7)
        hh = Hitchhike().tag_throughput_kbps(Material.DRYWALL, rng)
        fr = FreeRider().tag_throughput_kbps(Material.DRYWALL, rng)
        # Paper: Hitchhike 94 kbps, FreeRider 33 kbps.
        assert hh == pytest.approx(94.0, rel=0.35)
        assert fr == pytest.approx(33.0, rel=0.35)
        assert hh > fr

    def test_multiscatter_beats_both_under_occlusion(self):
        from repro.core.overlay import Mode
        from repro.core.throughput import OverlayThroughputModel
        from repro.phy.protocols import Protocol

        rng = np.random.default_rng(8)
        multi = OverlayThroughputModel(
            Protocol.WIFI_B, mode=Mode.MODE_1
        ).evaluate(2.0)
        hh = Hitchhike().tag_throughput_kbps(Material.DRYWALL, rng)
        # Multiscatter's tag throughput does not depend on the original
        # channel at all, so occluding it changes nothing.
        assert multi.tag_kbps > hh
