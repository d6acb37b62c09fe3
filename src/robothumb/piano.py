"""Geometric model of a piano keyboard: key layout, lookup and press mechanics.

The keyboard is laid out along a single x axis (mm). White keys tile the
axis without gaps; each black key is centered on the boundary between its
two neighbouring white keys. Whether a lateral position addresses black
keys at all is decided by a depth threshold: in front of ``black_zone_depth``
only white keys exist, behind it black keys take precedence over the white
key underneath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError, require

PITCH_CLASSES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
_BLACK_PITCH_CLASSES = frozenset((1, 3, 6, 8, 10))  # C# D# F# G# A#

MIDI_A0 = 21  # key index 0 is A0 on a standard 88-key keyboard


def note_name(midi_note: int) -> str:
    """Scientific pitch name for a MIDI note number (60 -> 'C4')."""
    return f"{PITCH_CLASSES[midi_note % 12]}{midi_note // 12 - 1}"


@dataclass(frozen=True)
class Key:
    index: int            # 0-based key number, key 0 is A0
    color: str            # "white" | "black"
    center_x: float       # mm
    midi_note: int


@dataclass(frozen=True)
class KeyEvent:
    """A key press or release; velocity (1..127) encodes press dynamics."""

    t: float              # ms
    kind: str             # "on" | "off"
    key_index: int
    velocity: int | None = None  # key-on only


@dataclass(frozen=True)
class KeyboardLayout:
    """Immutable keyboard description plus derived per-key geometry."""

    n_keys: int = 88
    white_width: float = 23.5      # mm
    black_width: float = 13.7      # mm
    key_travel: float = 10.0       # mm of vertical dip to a full press
    press_force: float = 0.5       # N required on the key face
    black_zone_depth: float = 50.0  # mm; at or beyond this depth black keys are addressable
    origin_x: float = 0.0          # mm, left edge of the leftmost key

    keys: tuple[Key, ...] = field(init=False, repr=False)
    n_white: int = field(init=False, repr=False)
    # white ordinal -> key index, and white-boundary ordinal -> black key index
    _white_by_ordinal: tuple[int, ...] = field(init=False, repr=False)
    _black_by_boundary: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.n_keys <= 128 - MIDI_A0:  # MIDI notes end at 127
            raise ConfigurationError(f"n_keys must be in [1, {128 - MIDI_A0}]")
        require(self, "positive", "white_width", "black_width", "key_travel", "press_force")
        if not self.white_width > self.black_width:
            raise ConfigurationError("white_width must exceed black_width")
        require(self, "finite", "black_zone_depth", "origin_x")

        keys = []
        white_by_ordinal = []
        black_by_boundary = {}
        white_ord = 0
        for i in range(self.n_keys):
            midi = MIDI_A0 + i
            if midi % 12 in _BLACK_PITCH_CLASSES:
                # centered on the boundary to the white key on its right
                center = self.origin_x + white_ord * self.white_width
                keys.append(Key(i, "black", center, midi))
                black_by_boundary[white_ord] = i
            else:
                center = self.origin_x + (white_ord + 0.5) * self.white_width
                keys.append(Key(i, "white", center, midi))
                white_by_ordinal.append(i)
                white_ord += 1

        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "n_white", white_ord)
        object.__setattr__(self, "_white_by_ordinal", tuple(white_by_ordinal))
        object.__setattr__(self, "_black_by_boundary", black_by_boundary)

    @property
    def width(self) -> float:
        """Total tiled width of the white keys, mm."""
        return self.n_white * self.white_width


def key_at(x: float, depth: float, layout: KeyboardLayout) -> Key | None:
    """Key addressed at lateral position ``x`` (mm) and hand depth ``depth`` (mm).

    Returns None when ``x`` falls outside the keyboard. In the rear zone
    (depth >= black_zone_depth) a black key wins when ``x`` lies inside its
    extent, otherwise the white key underneath is returned.

    The engine passes the fixed ``mount.depth``, not the tip's own in/out
    position: the key line is a projection. The tip's offset from the base
    is r·sin(θ_world), which at the defaults, hovering, is 123.2 mm over key
    43 and 101.6 mm over key 48, so it varies by 21.6 mm across the
    reachable keys against a ``black_zone_depth`` of 50 mm.
    """
    rel = x - layout.origin_x
    if rel < 0 or rel >= layout.width:
        return None
    if depth >= layout.black_zone_depth:
        boundary = int(math.floor(rel / layout.white_width + 0.5))
        black_index = layout._black_by_boundary.get(boundary)
        if black_index is not None:
            boundary_x = layout.origin_x + boundary * layout.white_width
            if abs(x - boundary_x) <= layout.black_width / 2.0:
                return layout.keys[black_index]
    ordinal = int(rel // layout.white_width)
    return layout.keys[layout._white_by_ordinal[ordinal]]
