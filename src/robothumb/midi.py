"""Minimal standard MIDI file writer (format 0, single track).

Timing uses 480 ticks per quarter note at the default 120 BPM, i.e. one
tick is 500/480 ms; no tempo event is emitted since 120 BPM is the SMF
default. Running status is not used. Key-off events carry release
velocity 0. Simultaneous events are ordered off-before-on, then by
ascending key index, so output bytes are deterministic.
"""

from __future__ import annotations

import struct

from .errors import InputError
from .piano import MIDI_A0, KeyEvent
from .plant import round_half_away

TICKS_PER_QUARTER = 480
MS_PER_TICK = 500.0 / TICKS_PER_QUARTER  # 120 BPM
HEADER = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER)
END_OF_TRACK = b"\x00\xff\x2f\x00"


def encode_var_length(value: int) -> bytes:
    """Variable-length quantity encoding used for SMF delta times."""
    if value < 0:
        raise InputError("delta time must be non-negative")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def write_midi(events: list[KeyEvent], path=None) -> bytes:
    """Serialize key events to SMF bytes; also writes ``path`` when given."""
    if not events:
        raise InputError("cannot write a MIDI file from an empty event log")

    def tick(t_ms: float) -> int:
        return round_half_away(t_ms / MS_PER_TICK)

    ordered = sorted(events, key=lambda e: (tick(e.t), e.kind != "off", e.key_index))
    track = bytearray()
    prev_tick = 0
    for event in ordered:
        now = tick(event.t)
        track += encode_var_length(now - prev_tick)
        prev_tick = now
        note = MIDI_A0 + event.key_index
        if event.kind == "on":
            track += struct.pack(">BBB", 0x90, note, event.velocity)
        else:
            track += struct.pack(">BBB", 0x80, note, 0)
    track += END_OF_TRACK

    data = HEADER + b"MTrk" + struct.pack(">I", len(track)) + bytes(track)
    if path is not None:
        with open(path, "wb") as f:
            f.write(data)
    return data
