import hashlib
import json
import json.encoder
import random
from collections import OrderedDict
from fractions import Fraction as F

import pytest

from conftest import quasi
from tropsplit import fixtures as fx
from tropsplit import reports
from tropsplit.serialize import canonical_json, cone_to_dict

SCALARS = (1, 1.0, True, False, 0, 0.0, -0.0, None, 2**70, -(10**30), 0.5,
           float("inf"), "", "a", "1")
KEYS = ("a", "b", "c", "1", "")


def reference(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def input_digest(value) -> str:
    """The digest a report gives ``value`` as its only input."""
    return reports._input_digests({"x": value})["x"]


def outcome(fn, value):
    """The digest, or the type of the exception raised."""
    try:
        return fn(value)
    except Exception as exc:
        return type(exc)


def random_value(rng, depth):
    """A JSON-like value over few scalars and keys, so that values repeat
    and differ only by ``1``/``1.0``/``True`` or ``0.0``/``-0.0``."""
    kind = rng.randrange(5) if depth else 0
    if kind == 0:
        return rng.choice(SCALARS)
    items = [random_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    keys = rng.sample(KEYS, len(items))
    if kind == 3:
        return dict(zip(keys, items))
    pairs = list(zip(keys, items))
    rng.shuffle(pairs)  # the same content in another insertion order
    return {k: v for k, v in pairs}


def test_input_digest_matches_the_uncached_digest():
    """Over 2400 seeded values, many repeated and many differing only in a
    scalar's exact type or sign, every memoized digest equals sha256 of the
    value's canonical JSON, and the memo is hit."""
    rng = random.Random(13)
    reports._digests_of.cache_clear()
    kinds = set()
    for _ in range(2400):
        value = random_value(rng, rng.randrange(4))
        kinds.add(type(value))
        assert input_digest(value) == reference(value), value
    assert kinds == {dict, list, tuple, *{type(s) for s in SCALARS}}
    info = reports._digests_of.cache_info()
    assert info.hits > 500 and info.misses > 500, info


@pytest.mark.parametrize("pair", [
    (1, 1.0), (1, True), (1.0, True), (0.0, -0.0), (0, False), ({1: 2}, {"1": 2}),
    ([1], (1,)), ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
], ids=repr)
def test_near_equal_values_keep_their_own_digests(pair):
    """Values that compare equal in Python but may serialize differently
    each get the digest of their own JSON, whichever is digested first."""
    for first, second in (pair, pair[::-1]):
        reports._digests_of.cache_clear()
        assert input_digest({"x": first}) == reference({"x": first})
        assert input_digest({"x": second}) == reference({"x": second})


def test_input_digest_follows_in_place_mutation():
    """A dict changed in place after it was digested, at top level or
    nested, gets the digest of its new content; changed back, the old."""
    value = {"a": [1, 2], "b": {"c": 1, "d": [0.0]}}
    before = input_digest(value)
    for mutate in (
        lambda v: v.__setitem__("z", None),
        lambda v: v["b"].__setitem__("c", True),
        lambda v: v["b"]["d"].__setitem__(0, -0.0),
        lambda v: v["a"].append(2**70),
    ):
        mutate(value)
        assert input_digest(value) == reference(value)
        assert input_digest(value) != before
    value = {"a": [1, 2], "b": {"c": 1, "d": [0.0]}}
    assert input_digest(value) == before


class Name(str):
    pass


class Count(int):
    pass


def deep(n):
    value = []
    for _ in range(n):
        value = [value]
    return value


def circular():
    value = [1]
    value.append(value)
    return value


@pytest.mark.parametrize("value", [
    Name("x"), {"a": Name("x")}, {Name("k"): 1}, Count(3), [Count(3)],
    OrderedDict([("b", 1), ("a", 2)]), {"a": OrderedDict(a=1)},
    F(1, 2), {"a": F(1, 2)}, {1: 1, "a": 2}, {"a": {1, 2}}, {"a": b"x"},
    {(1, 2): 0}, {"a": 1 + 2j}, deep(5000), circular(),
], ids=lambda v: type(v).__name__)
def test_unmarshalable_or_unserializable_values_keep_the_uncached_outcome(value):
    """Subclasses of builtins, ``Fraction``, too-deep nesting and values no
    JSON holds give the uncached digest or raise the same exception type."""
    assert outcome(input_digest, value) == outcome(reference, value)


def test_buffer_scalars_keep_the_uncached_outcome():
    """Marshal writes a buffer object as plain bytes, so a NumPy float,
    which JSON writes as a float, must still get its own digest.  A NumPy
    that is installed but fails to import (built for another Python)
    skips the test, as a missing one does."""
    np = pytest.importorskip("numpy", exc_type=ImportError)
    for value in ({"a": np.float64(1.5)}, [np.float64(-0.0)], {"a": np.int64(1)},
                  {"a": np.str_("x")}, {np.str_("k"): 1}):
        assert outcome(input_digest, value) == outcome(reference, value), value


def test_each_input_is_serialized_once_per_content(monkeypatch, square_split):
    """A warm ``split_report`` with inputs it has already seen makes no
    ``canonical_json`` call, one with three fresh inputs makes three, and
    the memo never holds more than 64 entries."""
    q = quasi(square_split, "fig_square_top1")
    inputs = {"dec": fx.square_complex(), "top": fx.GRAPHS["fig_square_top1"](),
              "base": fx.GRAPHS["fig_square_base"]()}
    want = reports.split_report(q, (1, -1), inputs)
    calls = []
    original = reports.canonical_json
    monkeypatch.setattr(reports, "canonical_json", lambda v: calls.append(v) or original(v))
    assert reports.split_report(q, (1, -1), inputs) == want
    assert reports.split_report(q, (2, -1), inputs)["inputs"] == want["inputs"]
    assert calls == []
    fresh = {k: {**v, "note": "fresh"} for k, v in inputs.items()}
    reports.split_report(q, (1, -1), fresh)
    assert len(calls) == 3
    for i in range(200):
        assert input_digest({"i": i}) == reference({"i": i})
    assert reports._digests_of.cache_info().maxsize == 64
    assert reports._digests_of.cache_info().currsize <= 64


def _split_inputs():
    return {"dec": fx.square_complex(), "top": fx.GRAPHS["fig_square_top1"](),
            "base": fx.GRAPHS["fig_square_base"]()}


def test_report_inputs_follow_in_place_mutation(square_split):
    """A report digests its whole ``inputs`` mapping under one key, so a
    nested value of ``inputs["dec"]`` changed in place between two reports
    gets the digest of its new content; changed back, the old.  Each
    digest equals sha256 of its value's canonical JSON."""
    q = quasi(square_split, "fig_square_top1")
    inputs = _split_inputs()

    def inputs_of_report():
        got = reports.split_report(q, (1, -1), inputs)["inputs"]
        assert got == {k: reference(v) for k, v in sorted(inputs.items())}
        return got

    before = inputs_of_report()
    row = inputs["dec"]["polytopes"][0]["ineqs"][0]
    for mutate, undo in (
        (lambda: row.__setitem__(0, "2"), lambda: row.__setitem__(0, "1")),
        (lambda: inputs["dec"]["polytopes"][0].__setitem__("dim", True),
         lambda: inputs["dec"]["polytopes"][0].__setitem__("dim", 2)),
        (lambda: row.append("0"), row.pop),
    ):
        mutate()
        changed = inputs_of_report()
        assert changed["dec"] != before["dec"]
        assert {k: v for k, v in changed.items() if k != "dec"} == {
            k: v for k, v in before.items() if k != "dec"}
        undo()
        assert inputs_of_report() == before


def test_report_inputs_take_one_marshal_call(monkeypatch, square_split):
    """A report marshals its inputs mapping once, and a mapping marshal
    refuses falls back to the uncached digest of each value, with the same
    digests and no further marshal call."""
    import marshal
    from types import SimpleNamespace

    q = quasi(square_split, "fig_square_top1")
    inputs = _split_inputs()
    dumped = []

    def dumps(value):
        dumped.append(value)
        return marshal.dumps(value)

    monkeypatch.setattr(reports, "marshal", SimpleNamespace(dumps=dumps, loads=marshal.loads))
    want = {k: reference(v) for k, v in sorted(inputs.items())}
    assert reports.split_report(q, (1, -1), inputs)["inputs"] == want
    assert dumped == [inputs]
    dumped.clear()
    subclassed = OrderedDict(sorted(inputs.items()))
    assert reports.split_report(q, (1, -1), subclassed)["inputs"] == want
    assert dumped == [subclassed]


@pytest.mark.parametrize("inputs", [
    {"a": Name("x")}, {Name("k"): 1}, {"a": F(1, 2)}, {1: 1, "a": 2}, {"a": {1, 2}},
    {"a": b"x"}, {"a": deep(5000)}, {"a": circular()},
], ids=["str-subclass-value", "str-subclass-key", "fraction", "mixed-keys", "set", "bytes",
        "deep", "circular"])
def test_unmarshalable_inputs_keep_the_per_value_outcome(inputs, square_split):
    """An inputs mapping marshal refuses, or whose values JSON refuses,
    gives the digests or the exception type of the per-value route."""
    q = quasi(square_split, "fig_square_top1")

    def per_value(mapping):
        return {k: reference(v) for k, v in sorted(mapping.items())}

    def head(mapping):
        return reports.split_report(q, (1, -1), mapping)["inputs"]

    assert outcome(head, inputs) == outcome(per_value, inputs)


def test_split_report_writes_the_direction_it_tested(square_split):
    """A direction given as a generator is read once: the report writes
    the direction its verdict was computed for, as a tuple gives it."""
    q = quasi(square_split, "fig_square_top1")
    for eta in ((1, -1), (F(1, 2), -3), (0, F(-5, 12))):
        got = reports.split_report(q, (x for x in eta), {})
        assert got == reports.split_report(q, eta, {})
        assert got["eta"] == [str(x) for x in eta]


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@pytest.fixture(params=["c-encoder", "python-encoder"])
def encoder(request, monkeypatch):
    """Runs a test under the C encoder, then under the pure-Python one."""
    if request.param == "python-encoder":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    elif json.encoder.c_make_encoder is None:
        pytest.skip("this interpreter has no C encoder")


def test_encoder_matches_json_dumps_on_seeded_values(encoder):
    """On acyclic values, ``canonical_json`` writes the bytes of
    ``json.dumps`` with the same options, which checks for cycles."""
    rng = random.Random(31)
    for _ in range(2000):
        value = random_value(rng, rng.randrange(5))
        assert canonical_json(value) == dumps(value), value


def test_encoder_matches_json_dumps_on_the_corpus(encoder):
    """Every corpus report encodes to ``json.dumps``'s bytes, which are
    its stored bytes."""
    from tropsplit.cli import corpus_cases, expected_report_path, run_corpus_case

    cases = corpus_cases()
    assert len(cases) == 18
    for case in cases:
        report = run_corpus_case(case)
        want = expected_report_path(case["name"]).read_text(encoding="utf-8").strip()
        assert canonical_json(report) == dumps(report) == want, case["name"]


def cyclic_dict():
    value = {"a": 1}
    value["b"] = value
    return value


@pytest.mark.parametrize("make", [circular, cyclic_dict])
def test_encoder_raises_recursion_error_on_a_cyclic_value(make, encoder, square_split):
    """The encoder keeps no markers, so a cycle recurses until the
    interpreter's limit, directly or as a report input."""
    with pytest.raises(RecursionError):
        canonical_json(make())
    q = quasi(square_split, "fig_square_top1")
    with pytest.raises(RecursionError):
        reports.split_report(q, (1, -1), {"a": make()})


def test_split_report_and_wire_form_keys_come_sorted(square_split):
    """A split report, with and without ``index_shift``, and every wire
    form lay out their keys in sorted order, so the encoder's key sort is
    one linear pass per dict.  The values are still computed in the order
    they always were: ``test_analyses_run_once_per_graph`` pins the order
    of the wire forms."""
    q = quasi(square_split, "fig_four_top")
    plain = reports.split_report(q, (5, 1), {"dec": fx.square_complex()})
    shifted = reports.split_report(q, (5, 1), {}, i_br=3)
    assert "index_shift" not in plain
    for report in (plain, shifted):
        assert list(report) == sorted(report)
        for key in ("w_cone", "disc_cone", "scalings_cone"):
            assert list(report[key]) == sorted(report[key])
    assert list(shifted["index_shift"]) == sorted(shifted["index_shift"])
    for cone in (q.w, q.disc.disc):
        assert list(cone_to_dict(cone)) == sorted(cone_to_dict(cone))
