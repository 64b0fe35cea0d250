"""Every transform command commutes with an exact power-of-two rescaling.

Scaling T by 2^k scales every map a transform model builds by a power of
two, which floating point carries exactly until a value leaves the
representable range.  So a report on 2^k T prints the verdict words of
the report on T, and for moderate k each of its float records is the
k = 0 record times a power of two, bit for bit.  Far outside the range
a run may instead end with one `error:` line and exit status 2, never
with a NaN, a warning or a different verdict.  The check needs no
reference implementation, so it also catches faults that the fast
routes and the dense references of `reference.py` would share.
"""
import json
import math
import warnings

import numpy as np
import pytest

import rieszlab.cli as cli
from rieszlab import save_complex_matrix

COMMANDS = ("check-biorthogonal", "frame-report", "bessel", "riesz-fischer",
            "strictness", "reconstruct")

#: Powers whose runs keep the k = 0 verdict words and print no error.
IN_RANGE = (-100, -10, 1, 10, 100, 300)

#: Powers whose float records are the k = 0 ones times a power of two.
EXACT = 100

#: Powers at which a value may leave the double range.
OVERFLOW = (-600, 600)


def transform():
    """The well-conditioned 24 x 24 transform I + 0.3 G / sqrt(24), G a
    complex Gaussian from seed 1."""
    rng = np.random.default_rng(1)
    g = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    return np.eye(24) + 0.3 * g / np.sqrt(24)


def run(capsys, path, command, rule):
    """(exit status, report or None, stderr, warnings) of one run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--transform", str(path), "--weight-rule",
                         rule, "--seed", "0", "--no-timing"])
    out, err = capsys.readouterr()
    return code, json.loads(out) if code == 0 else None, err, caught


def words(doc):
    return [(s["name"], v["name"], v["verdict"])
            for s in doc["sections"] for v in s["verdicts"]]


def floats(node, key=""):
    """(key path, value) of every float in a parsed report section."""
    if isinstance(node, float):
        yield key, node
    elif isinstance(node, dict):
        for name, value in node.items():
            yield from floats(value, f"{key}.{name}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from floats(value, f"{key}[{i}]")


def mantissas(doc):
    """Key path -> the frexp mantissa of each float the sections print; a
    power of two moves the exponent only, and 0 stays 0."""
    return {key: math.frexp(value)[0]
            for key, value in floats(doc["sections"])}


@pytest.mark.parametrize("rule", ["ones", "linear"])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_power_of_two_rescaling_keeps_every_verdict(tmp_path, capsys,
                                                      command, rule):
    path = tmp_path / "t.csv"
    save_complex_matrix(path, transform())
    code, base, err, caught = run(capsys, path, command, rule)
    assert (code, err, caught) == (0, "", [])
    for k in IN_RANGE + OVERFLOW:
        save_complex_matrix(path, 2.0 ** k * transform())
        code, doc, err, caught = run(capsys, path, command, rule)
        assert caught == [], (k, [str(w.message) for w in caught])
        if k in OVERFLOW and code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, k
            continue
        assert (code, err) == (0, ""), k
        assert words(doc) == words(base), k
        if abs(k) <= EXACT:
            assert mantissas(doc) == mantissas(base), k


def test_the_mantissa_check_sees_a_rounded_record():
    doc = {"sections": [{"records": {"bound": 1.5, "ratios": [0.0, 3.0]}}]}
    scaled = {"sections": [{"records": {"bound": 6.0, "ratios": [0.0, 0.75]}}]}
    assert mantissas(scaled) == mantissas(doc)
    scaled["sections"][0]["records"]["ratios"][1] = 0.75 * (1 + 2 ** -52)
    assert mantissas(scaled) != mantissas(doc)
