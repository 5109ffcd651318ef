"""Property: every subcommand in ``cli._COMMANDS``, fed argvs drawn from its own
flag specs, returns exit code 0, 1 or 2 in bounded time with no exception
escaping ``main``.

A flag with ``choices`` draws one of them; a ``float`` or ``int`` flag draws a
number or an edge token; an untyped flag draws text of the form its handler
parses, and the JSON-input flags draw small generated files.  Counts stay small:
a huge count is a legal request for a huge computation, not a defect.
"""

import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mdpcal.cli import _COMMANDS, main

SECONDS = 20.0
EDGE = ("nan", "inf", "-inf", "0", "-0", "-1", "5e-324", "1e308", "1.7e308", str(10**400),
        "x", "")
# Flags whose value sets the size of the computation.
COUNT_FLAGS = {"--points": 10**4}


def _mostly(good, bad, odds=3):
    # good with probability odds / (odds + 1), so that most draws reach the handler
    return st.integers(0, odds).flatmap(lambda i: good if i else bad)


reals = _mostly(st.floats(0.05, 50).map(repr) | st.integers(2, 10**4).map(str),
                st.floats().map(repr) | st.sampled_from(EDGE))
# Flags that _build_parser adds outside the flag specs -> their value (None: a switch).
EXTRA_FLAGS = {"calibrate": {"--json": None}, "radius": {"--poly": reals, "--exp": reals}}
# JSON values: numbers of every size, and the wrong types.
json_edge = (st.floats() | st.integers(-3, 10) | st.sampled_from((10**400, -10**309))
             | st.sampled_from(("x", None, True, [1.0])))


def _real_list():
    return st.lists(reals, min_size=1, max_size=4).map(",".join)


def _json(good):
    return _mostly(good, json_edge, odds=9)


def _json_list(element, size=4):
    return _json(st.lists(element, min_size=1, max_size=size))


@st.composite
def _half_space(draw):
    size = draw(st.integers(1, 4))

    def vector(good):
        return _json(st.lists(_json(good), min_size=size, max_size=size))

    return {"support": draw(vector(st.floats(-5, 5))),
            "probs": draw(_json(st.just([1.0 / size] * size)) | vector(st.floats(0, 1))),
            "phi": draw(vector(st.floats(-3, 3)))}


def _count(least, most):
    # The bad draws are no counts at all: an integral float such as 1.1e9 from
    # json_edge would be a legal request for 1.1e9 observations.
    return _mostly(st.integers(least, most),
                   st.sampled_from((0, -1, 2.5, 10**400, math.nan, math.inf, "3", None, True)),
                   odds=9)


@st.composite
def _prior(draw):
    return {key: draw(_json(st.floats(0.1, 8))) for key in ("lambda", "gamma_rate", "truncation")
            if draw(st.integers(0, 19))}


@st.composite
def _mc_config(draw):
    config = {"prior": draw(_json(_prior())),
              "mc": draw(_json(st.fixed_dictionaries({
                  "m_alternatives": _count(1, 30), "m_null": _count(1, 30),
                  "n": _count(1, 30), "seed": _json(st.integers()),
                  "threshold_grid": _json_list(_json(st.floats(0, 3)))}))),
              "statistic": draw(_json(st.sampled_from(("sign", "ks"))))}
    for weight in ("w0", "w1"):
        if draw(st.booleans()):
            config[weight] = draw(_json(st.floats(0.1, 10)))
    return config


@st.composite
def _exponent_config(draw):
    radii = st.lists(st.floats(0.2, 2), min_size=1, max_size=4, unique=True)
    return {"prior": draw(_json(_prior())), "m": draw(_count(100, 1000)),
            "seed": draw(_json(st.integers())),
            "radii": draw(_json(radii.map(lambda r: sorted(r, reverse=True))))}


def _json_file(payloads):
    # The draw is written by the test, which knows its directory.
    return _json(payloads).map(lambda payload: ("json", payload))


# Untyped flags: the text their handler parses.
TEXT_FLAGS = {
    "--n-list": _real_list(),
    "--theta-list": _real_list(),
    "--theta0": _mostly(st.integers(2, 4).map(lambda k: ",".join([repr(1.0 / k)] * k)),
                        _real_list()),
    "--counts": st.lists(_mostly(st.integers(0, 10**6).map(str), st.sampled_from(EDGE)),
                         min_size=1, max_size=4).map(",".join),
    # (kind, name): a path in the test directory; "file" is an existing file there.
    "--out-dir": st.sampled_from((("path", "tables"), ("file", "taken"))),
    "--out": st.sampled_from((("path", "curve.csv"), ("path", ""))),
    "--input": _json_file(_half_space()),
}
CONFIG_FLAG = {"mc": _json_file(_mc_config()),
               "prior-exponent": _json_file(_exponent_config())}


def _value(command, flag, kwargs):
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    if kwargs.get("type") is float:
        return reals
    if kwargs.get("type") is int:
        most = COUNT_FLAGS.get(flag, 10**6)
        return _mostly(st.integers(2, most).map(str),
                       st.integers(-2, 1).map(str) | st.sampled_from(EDGE))
    return CONFIG_FLAG[command] if flag == "--config" else TEXT_FLAGS[flag]


@st.composite
def _argv(draw, command):
    _, _, fmt, flags = _COMMANDS[command]
    argv = [command]
    for flag, kwargs in flags:
        # required flags are mostly given, so the handler is reached
        if draw(st.integers(0, 9)) < (9 if kwargs.get("required") or
                                      not flag.startswith("--") else 4):
            argv.append((flag, draw(_value(command, flag, kwargs))))
    for flag, value in {fmt: None, **EXTRA_FLAGS.get(command, {})}.items():
        if flag and draw(st.booleans()):
            argv.append(flag if value is None else (flag, draw(value)))
    if draw(st.booleans()):
        argv.append(("--precision", draw(st.integers(-2, 20).map(str))))
    return argv


def _materialise(argv, tmp_path):
    words = []
    for item in argv:
        if isinstance(item, str):
            words.append(item)
            continue
        flag, value = item
        if isinstance(value, tuple):
            kind, payload = value
            path = tmp_path / (flag.lstrip("-") + ".json" if kind == "json" else payload)
            if kind == "json":
                path.write_text(json.dumps(payload))
            elif kind == "file":
                path.write_text("occupied")
            value = str(path)
        words.append(value if not flag.startswith("--") else f"{flag}={value}")
    return words


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_exits_0_1_or_2(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # tables writes to ./tables without --out-dir

    @given(_argv(command))
    # tmp_path is shared by the examples: each one overwrites the files it uses.
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def check(argv):
        words = _materialise(argv, tmp_path)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(words)
        assert code in (0, 1, 2), words
        assert time.perf_counter() - start < SECONDS, words

    check()
