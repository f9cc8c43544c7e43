"""The scenario loader: ``load_raw`` reads through libyaml when PyYAML has
it, behind a bound on nesting that holds for either loader. Every document
loads as PyYAML's pure-Python ``SafeLoader`` loads it (``conftest.py``
checks this for every file the tests load), and a file nested too deep,
or not UTF-8, is a ``ConfigError``, never a crash or a traceback."""

import os
import subprocess
import sys
import tempfile
import threading
from datetime import timedelta
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import depth
from test_config_cli import write_scenario

from evfleetsim import config
from evfleetsim.config import (MAX_CONFIG_DEPTH, ConfigError, build_config,
                               default_scenario_path, load_raw)

SRC = Path(config.__file__).parent.parent

# quotes, ": " and " #" change how a plain scalar reads; the rest is
# non-ASCII text, astral characters included
PIECES = ["'", '"', ": ", " #", "#", "-", " ", "a", "Zz", "0", "1.5", "null",
          "yes", "é", "ß", "東京", "€", "😀"]
TEXT = st.one_of(st.lists(st.sampled_from(PIECES), max_size=6).map("".join),
                 st.text(max_size=6))
SCALARS = st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(),
                    st.none(), TEXT)
KEYS = st.one_of(TEXT, st.integers())
DOCUMENTS = st.dictionaries(KEYS, st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20), max_size=4)


def load_error(path) -> str:
    """The message of the ``ConfigError`` that loading ``path`` raises."""
    with pytest.raises(ConfigError) as err:
        load_raw(path)
    return str(err.value)


@pytest.fixture(params=["libyaml", "pure-python"])
def loader(request, monkeypatch):
    """Run a test with the package's loader and again with the fallback a
    PyYAML built without libyaml gets."""
    if request.param == "pure-python":
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    return request.param


def test_the_package_loader_is_libyaml():
    assert issubclass(config._LOADER, yaml.CSafeLoader)


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
@given(DOCUMENTS, st.booleans(), st.booleans())
def test_drawn_documents_load_as_the_pure_python_loader_loads_them(
        doc, flow, unicode):
    text = yaml.safe_dump(doc, default_flow_style=flow, allow_unicode=unicode,
                          sort_keys=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.yaml"
        path.write_text(text, encoding="utf-8")
        if depth(doc) > MAX_CONFIG_DEPTH:
            assert "nested more than" in load_error(path)
            return
        got = load_raw(path)
    assert repr(got) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def test_bundled_scenario_loads_as_the_pure_python_loader_loads_it():
    path = default_scenario_path()
    with open(path, encoding="utf-8") as fh:
        expected = yaml.load(fh, Loader=yaml.SafeLoader)
    assert repr(load_raw(path)) == repr(expected)


@pytest.mark.parametrize("text, where", [
    ("[" * 1_000_000 + "]" * 1_000_000, "line 1, column 33"),
    ("".join(f"{'  ' * i}k{i}:\n" for i in range(40)) + "  " * 40 + "1\n",
     "line 33, column 65"),
], ids=["flow-sequence-1e6", "block-mapping-40"])
def test_deep_nesting_is_a_config_error(tmp_path, loader, text, where):
    path = tmp_path / "deep.yaml"
    path.write_text(text)
    assert load_error(path) == (
        f"cannot parse config {path}: mappings and lists nested more than "
        f"{MAX_CONFIG_DEPTH} deep\n  in \"{path}\", {where}")


def test_nesting_at_the_bound_loads(tmp_path, loader):
    path = tmp_path / "bound.yaml"
    path.write_text("a: " + "[" * (MAX_CONFIG_DEPTH - 1)
                    + "]" * (MAX_CONFIG_DEPTH - 1))
    got = load_raw(path)
    assert depth(got) == MAX_CONFIG_DEPTH


def test_scenario_from_a_pipe_loads(tmp_path):
    fifo = tmp_path / "scenario.fifo"
    os.mkfifo(fifo)
    path = default_scenario_path()
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(path.read_bytes(),))
    writer.start()
    try:
        got = load_raw(fifo)
    finally:
        writer.join()
    assert got == load_raw(path)


def test_non_utf8_file_is_a_config_error(tmp_path, loader):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"seed: 42\nname: caf\xe9\n")
    assert load_error(path) == (
        f"cannot read config {path}: not UTF-8 "
        f"(invalid continuation byte: b'\\xe9')")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("content", [b"seed: 42\nname: \xff\n",
                                     b"[" * 100_000 + b"]" * 100_000],
                         ids=["0xff-byte", "nested-1e5"])
def test_cli_rejects_unreadable_files_without_a_traceback(tmp_path, command,
                                                          content):
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "evfleetsim.cli", command, str(path),
         *(["--out", str(tmp_path / "out")] if command == "run" else [])],
        env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    reason = "not UTF-8" if b"\xff" in content else "nested more than"
    assert reason in done.stderr
    assert not (tmp_path / "out").exists()


def test_max_depth_admits_every_valid_scenario(tmp_path):
    """The bundled scenario nests 5 deep, as deep as the schema goes: its
    deepest path is a vehicle override's range extender
    (``fleet.vehicle.overrides.range_extender``). ``conftest.py`` checks the
    bound against every file the tests load."""
    with open(default_scenario_path(), encoding="utf-8") as fh:
        assert depth(yaml.safe_load(fh)) == 5
    path = write_scenario(tmp_path, fleet={"vehicle": {
        "preset": "compact_ev",
        "overrides": {"range_extender": {"power_w": 15000.0, "soc_on": 0.2,
                                         "soc_off": 0.4}}}})
    assert depth(build_config(load_raw(path), tmp_path).effective) == 5
    assert 5 < MAX_CONFIG_DEPTH


def test_pure_python_loader_parses_once_with_the_same_results(tmp_path,
                                                              monkeypatch):
    """On a PyYAML without libyaml the composer bounds the nesting within
    the one load: the bundled scenario loads the same mapping, and a file
    one level too deep gives the error text libyaml's event walk gives,
    without a walk."""
    bundled = default_scenario_path()
    deep = tmp_path / "deep.yaml"
    deep.write_text("a:\n" + "".join(
        f"{'  ' * i}- k{i}:\n" for i in range(1, MAX_CONFIG_DEPTH // 2 + 1))
        + "  " * (MAX_CONFIG_DEPTH // 2 + 1) + "1\n")
    libyaml = (repr(load_raw(bundled)), load_error(deep))
    assert f"more than {MAX_CONFIG_DEPTH} deep" in libyaml[1]

    def no_walk(*args, **kwargs):
        raise AssertionError("yaml.parse called")

    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(yaml, "parse", no_walk)
    assert (repr(load_raw(bundled)), load_error(deep)) == libyaml


def test_pure_python_loader_counts_each_open_and_close(tmp_path,
                                                       monkeypatch):
    # siblings do not add up: 40 lists side by side at depth 32, each
    # closed before the next opens, load
    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    path = tmp_path / "wide.yaml"
    inner = "[" * (MAX_CONFIG_DEPTH - 2) + "]" * (MAX_CONFIG_DEPTH - 2)
    path.write_text("a: [" + ", ".join([inner] * 40) + "]\n")
    assert depth(load_raw(path)) == MAX_CONFIG_DEPTH


@pytest.mark.parametrize("text, problem", [
    ("a: *x\n", "found undefined alias 'x'"),
    ("a: &x 1\nb: &x 2\n", "found duplicate anchor 'x'; first occurrence"),
    ("a: 1\n---\nb: 2\n", "expected a single document in the stream"),
    ("a: " + "[" * MAX_CONFIG_DEPTH + "]" * MAX_CONFIG_DEPTH + "\n",
     f"mappings and lists nested more than {MAX_CONFIG_DEPTH} deep"),
], ids=["undefined-alias", "duplicate-anchor", "second-document",
        "nested-33"])
def test_composer_errors_read_the_same_on_both_loaders(tmp_path, monkeypatch,
                                                       text, problem):
    # both loaders compose with PyYAML's composer, so its errors, marks
    # included, are byte-equal
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    package = load_error(path)
    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    assert load_error(path) == package
    assert package.startswith(f"cannot parse config {path}: {problem}\n")


def test_each_loader_loads_without_an_event_walk(tmp_path, monkeypatch,
                                                 loader):
    """Neither loader walks the events before its load: with ``yaml.parse``
    raising, each loads the bundled scenario as the pure-Python loader does
    and refuses a file one level too deep with the same error."""

    def no_walk(*args, **kwargs):
        raise AssertionError("yaml.parse called")

    monkeypatch.setattr(yaml, "parse", no_walk)
    bundled = default_scenario_path()
    expected = yaml.load(bundled.read_text(encoding="utf-8"),
                         Loader=yaml.SafeLoader)
    assert repr(load_raw(bundled)) == repr(expected)
    deep = tmp_path / "deep.yaml"
    deep.write_text("a:\n" + "".join(
        f"{'  ' * i}- k{i}:\n" for i in range(1, MAX_CONFIG_DEPTH // 2 + 1))
        + "  " * (MAX_CONFIG_DEPTH // 2 + 1) + "1\n")
    assert load_error(deep) == (
        f"cannot parse config {deep}: mappings and lists nested more than "
        f"{MAX_CONFIG_DEPTH} deep\n  in \"{deep}\", line 17, column 35")
