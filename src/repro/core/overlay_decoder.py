"""Single-commodity-radio decoding of overlay-modulated packets (§2.4).

The receiver demodulates the (frequency-shifted) backscattered packet
with its ordinary PHY chain, then recovers *both* data streams from the
single symbol stream: productive bits from reference symbols, tag bits
from reference-vs-modulatable comparisons.  No second receiver, no
original-channel packet -- the property Figs 9/15 contrast against
Hitchhike and FreeRider.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.overlay import OverlayCodec
from repro.phy import ble, wifi_b, wifi_n, zigbee
from repro.phy.batch import require_batch
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform

__all__ = ["OverlayDecodeOutput", "OverlayDecoder"]


@dataclass
class OverlayDecodeOutput:
    """Both data streams recovered from one packet."""

    productive_bits: np.ndarray
    tag_bits: np.ndarray
    symbol_values: list

    @property
    def n_tag(self) -> int:
        return int(self.tag_bits.size)


class OverlayDecoder:
    """Runs the protocol's commodity receive chain and the overlay
    comparison decode."""

    def __init__(self, codec: OverlayCodec) -> None:
        self.codec = codec

    def symbol_values(self, wave: Waveform) -> list:
        """Per-payload-symbol decisions in the comparison domain."""
        protocol = self.codec.config.protocol
        if protocol is Protocol.WIFI_B:
            result = wifi_b.demodulate(wave)
            return [int(b) for b in result.onair_bits]
        if protocol is Protocol.BLE:
            result = ble.demodulate(wave)
            return [int(b) for b in result.onair_bits]
        if protocol is Protocol.ZIGBEE:
            result = zigbee.demodulate(wave)
            return [int(s) for s in result.symbols]
        result = wifi_n.demodulate(wave)
        return list(result.symbol_bits)

    def symbol_values_batch(self, waves: Sequence[Waveform]) -> list[list]:
        """Batched :meth:`symbol_values`: one vectorized PHY dispatch.

        Routes through the batched commodity receivers
        (``demodulate_batch``), which are bit-identical to per-waveform
        ``demodulate`` calls -- so the comparison-domain decisions, and
        therefore both decoded data streams, match the scalar path
        exactly at any batch size (including 1).
        """
        require_batch(waves, "OverlayDecoder.symbol_values_batch")
        protocol = self.codec.config.protocol
        if protocol is Protocol.WIFI_B:
            return [
                [int(b) for b in r.onair_bits]
                for r in wifi_b.demodulate_batch(waves)
            ]
        if protocol is Protocol.BLE:
            return [
                [int(b) for b in r.onair_bits]
                for r in ble.demodulate_batch(waves)
            ]
        if protocol is Protocol.ZIGBEE:
            return [
                [int(s) for s in r.symbols]
                for r in zigbee.demodulate_batch(waves)
            ]
        return [list(r.symbol_bits) for r in wifi_n.demodulate_batch(waves)]

    def decode(self, wave: Waveform) -> OverlayDecodeOutput:
        """Decode productive and tag data from a received waveform.

        ``wave`` must be centered on the receiver's channel (use
        :meth:`repro.core.tag_modulation.TagModulator.received_at_shifted_channel`
        first if the tag shifted it).
        """
        values = self.symbol_values(wave)
        productive, tag = self.codec.decode_symbols(values)
        return OverlayDecodeOutput(
            productive_bits=productive, tag_bits=tag, symbol_values=values
        )

    def decode_batch(self, waves: Sequence[Waveform]) -> list[OverlayDecodeOutput]:
        """Batched :meth:`decode`: bit-identical to the scalar loop.

        All waveforms must belong to this decoder's protocol/mode (one
        codec describes one overlay layout).  The PHY stage is a single
        grouped dispatch through the batched receive chains; the
        comparison decode is per-packet integer logic.
        """
        out = []
        for values in self.symbol_values_batch(waves):
            productive, tag = self.codec.decode_symbols(values)
            out.append(
                OverlayDecodeOutput(
                    productive_bits=productive, tag_bits=tag, symbol_values=values
                )
            )
        return out
