"""Stable fingerprints: equality, order-independence, cross-process."""

import os
import subprocess
import sys

import pytest

from repro.engine import (
    canonical_state,
    canonical_value,
    encode_canonical,
    fingerprint_label,
    fingerprint_state,
    fingerprint_value,
)
from repro.tlaplus.state import ActionLabel, State
from repro.tlaplus.values import FrozenDict


class TestEncoding:
    def test_equal_values_encode_identically(self):
        assert encode_canonical((1, "a", None)) == encode_canonical((1, "a", None))

    def test_dict_insertion_order_does_not_leak(self):
        forward = FrozenDict({"a": 1, "b": 2, "c": 3})
        backward = FrozenDict({"c": 3, "b": 2, "a": 1})
        assert encode_canonical(forward) == encode_canonical(backward)

    def test_set_order_does_not_leak(self):
        assert encode_canonical(frozenset(("x", "y", "z"))) == \
            encode_canonical(frozenset(("z", "x", "y")))

    def test_bool_is_not_int(self):
        # bool is a subclass of int; the encoding must still distinguish
        assert encode_canonical(True) != encode_canonical(1)
        assert encode_canonical(False) != encode_canonical(0)

    def test_container_kinds_are_tagged(self):
        assert encode_canonical((1, 2)) != encode_canonical(frozenset((1, 2)))

    def test_injective_on_nesting(self):
        assert encode_canonical(((1,), 2)) != encode_canonical((1, (2,)))

    def test_unfreezable_value_raises(self):
        with pytest.raises(TypeError, match="canonically encode"):
            encode_canonical([1, 2])


class TestFingerprint:
    def test_equal_states_same_fingerprint(self):
        a = State({"n": 1, "log": ("x",)})
        b = State({"log": ("x",), "n": 1})
        assert fingerprint_state(a) == fingerprint_state(b)

    def test_distinct_states_differ(self):
        assert fingerprint_state(State({"n": 1})) != \
            fingerprint_state(State({"n": 2}))

    def test_is_unsigned_64_bit(self):
        fp = fingerprint_value(("some", "value", 42))
        assert 0 <= fp < 2 ** 64

    def test_label_fingerprint_covers_params(self):
        a = ActionLabel("Send", {"src": "n1"})
        b = ActionLabel("Send", {"src": "n2"})
        assert fingerprint_label(a) != fingerprint_label(b)

    def test_stable_across_hash_seeds(self):
        # Python's hash() is per-process randomized; fingerprints must not be
        value = fingerprint_state(State({"votes": frozenset(("n1", "n2")),
                                         "term": 3}))
        script = (
            "from repro.engine import fingerprint_state\n"
            "from repro.tlaplus.state import State\n"
            "print(fingerprint_state(State({'votes': frozenset(('n1', 'n2')),"
            " 'term': 3})))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(sys.path))
        output = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert int(output.stdout.strip()) == value


class TestCanonicalValue:
    def test_equal_dicts_iterate_identically_after_canonicalization(self):
        forward = FrozenDict({"b": 2, "a": 1})
        backward = FrozenDict({"a": 1, "b": 2})
        assert list(canonical_value(forward)) == list(canonical_value(backward))

    def test_equal_sets_repr_identically_after_canonicalization(self):
        # set layout (and hence repr/iteration) depends on insertion
        # order through collision probing; canonical insertion removes it
        permutations = [("n1", "n3"), ("n3", "n1")]
        reprs = {repr(canonical_value(frozenset(p))) for p in permutations}
        assert len(reprs) == 1

    def test_canonical_state_preserves_equality(self):
        state = State({"m": FrozenDict({"k": frozenset((3, 1, 2))}), "n": 1})
        assert canonical_state(state) == state
        assert fingerprint_state(canonical_state(state)) == \
            fingerprint_state(state)

    def test_scalars_pass_through(self):
        assert canonical_value("x") == "x"
        assert canonical_value(7) == 7
        assert canonical_value(None) is None
