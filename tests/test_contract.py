"""The CLI's contract on its config rules, as a property of drawn configs.

``count`` and ``constants`` run in process on drawn text for every config
key they read: q from -1 to 20 or junk, ``--exclude`` lists that may be
empty or hold repeats, negatives or digits >= q, k from 0 to 3, ``--a-major``
on a log scale up to 10^3 or nan, inf, 0 and negatives, ``--d0`` from -2
to 50, and ``--cap``, often below q^k.  Whatever the config, the exit
code is 0, 2 or 3, stderr holds at most one line and no traceback, an
exit 3 prints ``resource cap: <what> exceeds cap <cap>`` (the one shape
of ``digits.check_cap``), and a run that exits 0 prints strict JSON,
byte-identical on a rerun.  Each value goes in as
``--key=text``, so a text that starts with "-" stays the flag's value.

``test_parser_rejections`` adds to such a config one argv shape that the
parser rejects itself: an unknown flag, a flag with no value, or a
negative value without ``=`` that is not a plain number (``--exclude
-1,3``; argparse reads a plain negative number such as ``-5`` as a
value).  Each exits 2 with one ``config error:`` line and no stdout.

``test_pipeline_commands`` runs ``count``, ``arcs`` and ``scan`` on one
drawn valid digit set with q from 3 to 16 and q^k <= 10^4, either weight
(a polynomial of degree 1 to 3 with coefficients such as +-1, +-7 and
+-10^6 and a positive lead), and sometimes ``--d0`` and ``--a-major``.
``arcs`` and ``scan`` exit alike.  When they run, the class counts sum to
Q = q^k and are the counts of scan's ``arc_class`` column, ``count`` and
``arcs`` print the same comparison fields, the pipeline total meets the
direct count, and ``arcs`` repeats its bytes.  The pipeline total is not
checked against ``verify.ledger_vs_scalar`` here: its scalar oracle takes
too long per example at Q = 10^4.
"""

import collections
import contextlib
import csv
import io
import json
import re

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hs

from digitlab import cli
from digitlab import fourier as fourier_mod

JUNK = hs.text(max_size=6)
SPECIAL_A = ["nan", "inf", "-inf", "0", "0.0", "-1", "-2.5"]
CAPS = [str(fourier_mod.GRID_CAP), str(fourier_mod.GRID_CAP + 1)]
# on a log scale from 1 to 10^4, so that many drawn q^k exceed the cap
SMALL_CAPS = hs.floats(0.0, 4.0).map(lambda t: str(int(10.0 ** t)))
FLAGS = ["--" + key.replace("_", "-") for key, *_ in cli.CONFIG_KEYS] + [
    "--config"]
# not a prefix of any option, which argparse would take as its abbreviation
UNKNOWN = hs.from_regex(r"--[a-z][a-z0-9-]{0,7}(=[0-9a-z]{0,3})?",
                        fullmatch=True).filter(
    lambda arg: not any(flag.startswith(arg.split("=")[0])
                        for flag in FLAGS + ["--help"]))
NEGATIVE = hs.sampled_from(["-inf", "-nan", "-1e3", "-2000,0,1"]) | hs.lists(
    hs.integers(0, 10 ** 4), min_size=2, max_size=4).map(
    lambda ns: "-" + ",".join(map(str, ns)))


def _sometimes(draw, text, junk):
    """``text``, or one time in five the text ``junk`` draws (the junk
    branch is not the simplest draw, which hypothesis favours)."""
    return draw(junk) if draw(hs.integers(0, 4)) == 3 else text


@hs.composite
def config_texts(draw):
    """The text of each key, or None to leave the key out; each is valid
    more often than not, so that most examples run."""
    q = draw(hs.integers(-1, 20))
    digits = draw(hs.lists(hs.integers(0, max(q - 1, 0)), max_size=4))
    bad = hs.lists(hs.integers(-3, 24), min_size=1, max_size=5)
    exclude = ",".join(map(str, _sometimes(draw, digits, bad)))
    a_major = repr(10.0 ** draw(hs.floats(-3.0, 3.0)))
    return {
        "q": _sometimes(draw, str(q), JUNK),
        "exclude": _sometimes(draw, exclude, hs.none() | JUNK),
        "k": str(draw(hs.integers(0, 3))),
        "a-major": _sometimes(draw, a_major,
                              hs.none() | hs.sampled_from(SPECIAL_A)),
        "d0": _sometimes(draw, draw(hs.none() | hs.integers(-2, 50).map(str)),
                         JUNK),
        "cap": _sometimes(draw, draw(hs.none() | hs.sampled_from(CAPS)
                                     | hs.integers(-1, 10 ** 4).map(str)
                                     | SMALL_CAPS),
                          JUNK),
    }


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=300, deadline=500)
@given(command=hs.sampled_from(["count", "constants"]),
       texts=config_texts())
@example(command="count", texts={"q": "10", "exclude": "7", "k": "2",
                                 "a-major": None, "d0": "--", "cap": None})
@example(command="count", texts={"q": "10", "exclude": "7", "k": "3",
                                 "a-major": None, "d0": None, "cap": "999"})
def test_config_rules(command, texts):
    argv = [command] + [f"--{key}={text}" for key, text in texts.items()
                        if text is not None]
    code, out, err = run(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3), (code, err)
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
        assert run(argv) == (code, out, err)
    else:
        assert out == ""
    if code == 3:
        assert re.fullmatch(r"resource cap: .+ exceeds cap [0-9]+\n", err), err


@hs.composite
def rejected_shapes(draw):
    """One token or flag-value pair that argparse rejects."""
    shape = draw(hs.sampled_from(["unknown", "no value", "negative"]))
    if shape == "unknown":
        return [draw(UNKNOWN)]
    flag = draw(hs.sampled_from(FLAGS))
    return [flag] if shape == "no value" else [flag, draw(NEGATIVE)]


@settings(max_examples=150, deadline=500)
@given(command=hs.sampled_from(["count", "constants"]),
       texts=config_texts(), shape=rejected_shapes(), data=hs.data())
def test_parser_rejections(command, texts, shape, data):
    pairs = [f"--{key}={text}" for key, text in texts.items()
             if text is not None]
    # anywhere after the command; a flag with no value at the end, or
    # before another flag
    at = data.draw(hs.integers(0, len(pairs)))
    code, out, err = run([command, *pairs[:at], *shape, *pairs[at:]])
    assert code == 2, err
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


COEFFS = hs.sampled_from([0, 1, -1, 7, -7, 10 ** 6, -(10 ** 6)])
LEADS = hs.sampled_from([1, 7, 10 ** 6])
# the fields of the theorem comparison that count and arcs both print
COMPARISON = ("members", "direct", "main_term", "deviation", "kappa",
              "singular_series", "singular_series_J")


@hs.composite
def pipeline_flags(draw):
    """The flags of one valid digit set and k, a weight, and sometimes D0
    and A."""
    q = draw(hs.integers(3, 16))
    k = draw(hs.integers(0, max(j for j in range(9) if q ** j <= 10 ** 4)))
    # the allowed pair (pair, pair + 1) keeps the set valid
    pair = draw(hs.integers(0, q - 2))
    others = draw(hs.permutations(
        [d for d in range(q) if d not in (pair, pair + 1)]))
    excluded = others[:draw(hs.integers(1, q - 2))]
    flags = [f"--q={q}", f"--k={k}",
             "--exclude=" + ",".join(map(str, excluded))]
    if draw(hs.booleans()):
        coeffs = draw(hs.lists(COEFFS, max_size=2)) + [draw(LEADS)]
        flags += ["--weight=poly",
                  "--poly-coeffs=" + ",".join(map(str, coeffs))]
    else:
        flags.append("--weight=mangoldt")
    if draw(hs.booleans()):
        flags.append(f"--d0={draw(hs.integers(1, 200))}")
    if draw(hs.booleans()):
        flags.append(f"--a-major={draw(hs.floats(0.3, 5.0))!r}")
    return q ** k, flags


@pytest.fixture(scope="module")
def scan_out(tmp_path_factory):
    return tmp_path_factory.mktemp("scan") / "scan.csv"


@settings(max_examples=100, deadline=500)
@given(drawn=pipeline_flags())
def test_pipeline_commands(scan_out, drawn):
    Q, flags = drawn
    runs = {command: run([command, *flags])
            for command in ("count", "arcs")}
    runs["scan"] = run(["scan", *flags, f"--out={scan_out}"])
    for code, out, err in runs.values():
        assert code in (0, 2, 3), (code, err)
        assert len(err.splitlines()) <= 1, err
        assert "Traceback" not in err
    (arcs_code, arcs_out, arcs_err), scan_run = runs["arcs"], runs["scan"]
    assert (scan_run[0], scan_run[2]) == (arcs_code, arcs_err)
    event(f"exit {arcs_code}")
    if arcs_code != 0:
        return
    assert runs["count"][0] == 0, runs["count"]
    count = json.loads(runs["count"][1], parse_constant=_reject_constant)
    arcs = json.loads(arcs_out, parse_constant=_reject_constant)
    classes = {c: v["count"] for c, v in arcs["per_class"].items()}
    assert sum(classes.values()) == Q
    assert {f: count[f] for f in COMPARISON} == {f: arcs[f]
                                                 for f in COMPARISON}
    with open(scan_out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "fhat_re", "fhat_im", "fhat_abs", "arc_class",
                       "s_abs"]
    assert len(rows) == Q + 1
    scanned = collections.Counter(row[4] for row in rows[1:])
    assert {c: scanned[c] for c in classes} == classes
    direct = arcs["direct"]
    assert abs(arcs["total"] - direct) <= 1e-6 * max(1.0, abs(direct))
    assert run(["arcs", *flags]) == runs["arcs"]
