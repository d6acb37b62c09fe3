"""The config INI and kv-file loaders against arbitrary input: only a
``RobothumbError`` may escape either loader, and a file it rejects makes
``analyze budget --config`` or ``calibrate --anchors`` exit 2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robothumb.cli import main
from robothumb.config import load_config
from robothumb.control import read_kv_file
from robothumb.errors import RobothumbError
from robothumb.sensors import TRACE_HEADER

NAMES = (st.sampled_from(["layout", "control", "simulation", "mount", "sensors",
                          "DEFAULT", "n_keys", "kp_h", "mode", "gear_ratio",
                          "mass_g", "flex_r_flat", "enc_h_min", "enc_hover",
                          "flex_min", "#", ";", " ", ""])
         | st.text(max_size=6))
VALUES = (st.sampled_from(["0", "1", "-3", "1.5", "107", "108", "1e400", "inf",
                           "nan", "concurrent", "1_000", "9" * 30, "", "="])
          | st.text(max_size=6))
INI_LINES = st.one_of(
    NAMES.map("[{}]".format),
    st.tuples(NAMES, st.sampled_from(["=", ":", " = "]), VALUES).map("".join),
    NAMES, st.text(max_size=8), VALUES.map("  {}".format))
KV_LINES = st.one_of(st.tuples(NAMES, VALUES).map(" = ".join), NAMES, VALUES)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A trace that loads, for running ``calibrate`` on fuzzed anchor files."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "trace.csv").write_text(f"{','.join(TRACE_HEADER)}\n0,1,2,3,\n1,1,2,3,\n")
    return root


def fuzz_config(data: bytes, root):
    path = root / "fuzz.ini"
    path.write_bytes(data)
    try:
        load_config(path)
    except RobothumbError:
        assert main(["analyze", "budget", "--config", str(path),
                     "--out", str(root / "out")]) == 2


def fuzz_kv(data: bytes, root):
    path = root / "fuzz.txt"
    path.write_bytes(data)
    try:
        read_kv_file(path)
    except RobothumbError:
        assert main(["calibrate", "--trace", str(root / "trace.csv"),
                     "--anchors", str(path), "--out", str(root / "out")]) == 2


@settings(deadline=None)
@given(st.sampled_from([b"", b"[control]\n"]), st.binary(max_size=200))
def test_config_fuzz_bytes(root, header, body):
    fuzz_config(header + body, root)


@settings(deadline=None)
@given(st.lists(INI_LINES, max_size=8), NEWLINES)
def test_config_fuzz_lines(root, lines, newline):
    fuzz_config(newline.join(lines + [""]).encode("utf-8"), root)


@settings(deadline=None)
@given(st.binary(max_size=200))
def test_kv_fuzz_bytes(root, data):
    fuzz_kv(data, root)


@settings(deadline=None)
@given(st.lists(KV_LINES, max_size=8), NEWLINES)
def test_kv_fuzz_lines(root, lines, newline):
    fuzz_kv(newline.join(lines + [""]).encode("utf-8"), root)
