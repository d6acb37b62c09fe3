import math

import pytest
from hypothesis import given, strategies as st

from robothumb.errors import ConfigurationError
from robothumb.piano import KeyboardLayout, key_at, note_name


@pytest.fixture(scope="module")
def layout():
    return KeyboardLayout()


def white_keys(layout):
    return [k for k in layout.keys if k.color == "white"]


def black_keys(layout):
    return [k for k in layout.keys if k.color == "black"]


def black_extent(layout, key):
    half = layout.black_width / 2.0
    return (key.center_x - half, key.center_x + half)


def test_default_layout_structure(layout):
    assert layout.n_keys == 88
    assert len(white_keys(layout)) == 52
    assert len(black_keys(layout)) == 36
    assert layout.keys[0].midi_note == 21  # A0
    assert layout.keys[-1].midi_note == 108  # C8


def test_white_keys_tile_without_gaps(layout):
    for ordinal, key in enumerate(white_keys(layout)):
        left = 23.5 * ordinal
        assert key.center_x == pytest.approx(left + 23.5 / 2)
        # span [23.5*w, 23.5*(w+1)) maps back to this key
        assert key_at(left, 0.0, layout) == key
        assert key_at(left + 23.5 - 1e-9, 0.0, layout) == key


def test_single_key_layout():
    layout = KeyboardLayout(n_keys=1)
    (key,) = layout.keys
    assert key.color == "white"
    assert key.midi_note == 21
    assert note_name(key.midi_note) == "A0"


def test_midi_notes_strictly_increasing(layout):
    notes = [k.midi_note for k in layout.keys]
    assert notes == sorted(notes)
    assert len(set(notes)) == len(notes)


def test_octave_pattern_no_black_between_e_f_and_b_c(layout):
    by_note = {k.midi_note: k for k in layout.keys}
    for key in layout.keys:
        name = note_name(key.midi_note)
        if name.startswith(("E", "B")) and "#" not in name:
            neighbor = by_note.get(key.midi_note + 1)
            if neighbor is not None:
                assert neighbor.color == "white"


def test_key_at_examples(layout):
    assert key_at(11.75, 0.0, layout) == layout.keys[0]  # center of A0
    # 35/23.5 = 1.49 -> second white key (B0)
    key = key_at(35.0, 0.0, layout)
    assert key.color == "white"
    assert note_name(key.midi_note) == "B0"
    # boundary-centered black: A#0 spans [16.65, 30.35]
    black = key_at(23.5, layout.black_zone_depth, layout)
    assert black.color == "black"
    assert note_name(black.midi_note) == "A#0"
    assert black_extent(layout, black) == pytest.approx((16.65, 30.35))


def test_key_at_outside_keyboard(layout):
    assert key_at(-0.001, 0.0, layout) is None
    assert key_at(layout.width, 0.0, layout) is None
    assert key_at(1e6, layout.black_zone_depth, layout) is None


def test_front_zone_never_returns_black(layout):
    for black in black_keys(layout):
        assert key_at(black.center_x, 0.0, layout).color == "white"


def test_partition_jumps_only_at_white_boundaries(layout):
    # step function of x: scan densely, changes must land on multiples of 23.5
    prev = key_at(0.0, 0.0, layout)
    step = 0.05
    n = int(layout.width / step)
    for i in range(1, n):
        x = i * step
        cur = key_at(x, 0.0, layout)
        if cur != prev:
            assert math.isclose(x % 23.5, 0.0, abs_tol=step + 1e-9)
            prev = cur


def test_round_trip_every_key_center(layout):
    for key in layout.keys:
        depth = layout.black_zone_depth if key.color == "black" else 0.0
        assert key_at(key.center_x, depth, layout) == key


def test_white_centers_survive_rear_zone(layout):
    # black extents never cover a white center, so depth cannot steal them
    for key in white_keys(layout):
        assert key_at(key.center_x, layout.black_zone_depth, layout) == key


def test_black_extent_inside_neighboring_whites(layout):
    whites = white_keys(layout)
    for black in black_keys(layout):
        left = [w for w in whites if w.index == black.index - 1]
        right = [w for w in whites if w.index == black.index + 1]
        assert left and right
        lo, hi = black_extent(layout, black)
        assert lo > left[0].center_x - 23.5 / 2
        assert hi < right[0].center_x + 23.5 / 2


@given(st.floats(min_value=0.0, max_value=1222.0, exclude_max=True),
       st.floats(min_value=0.0, max_value=100.0))
def test_key_at_total_on_keyboard(x, depth):
    layout = KeyboardLayout()
    key = key_at(x, depth, layout)
    assert key is not None
    if key.color == "black":
        lo, hi = black_extent(layout, key)
        assert lo <= x <= hi
        assert depth >= layout.black_zone_depth


@pytest.mark.parametrize("bad", [
    dict(n_keys=0),
    dict(white_width=-1.0),
    dict(black_width=0.0),
    dict(white_width=10.0, black_width=12.0),
    dict(key_travel=0.0),
    dict(press_force=-0.5),
    dict(n_keys=108),  # key 107 would be MIDI note 128
])
def test_invalid_layout_rejected(bad):
    with pytest.raises(ConfigurationError):
        KeyboardLayout(**bad)


def test_note_names():
    assert note_name(21) == "A0"
    assert note_name(60) == "C4"
    assert note_name(108) == "C8"
    assert note_name(22) == "A#0"
