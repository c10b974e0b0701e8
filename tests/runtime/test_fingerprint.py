"""Unit tests for the incremental fingerprint layer.

:mod:`repro.runtime.fingerprint` owns the canonical byte encoding of
state fingerprints and the :class:`RunFingerprinter` incremental
combiner (the run marks the components a step changes stale; a key
re-encodes only those).  The tests pin its three contracts:

* the codec is an injective, prefix-free bijection over the fingerprint
  value domain (``decode_canonical`` inverts ``encode_canonical``);
* the incremental key is bit-identical to the full recomputation after
  every transition, toss, checkpoint and restore — including restores
  across epochs, where a stale memo would silently corrupt dedup;
* the pointer gate: programs that create pointers get no fingerprinter
  (aliasing defeats per-component tracking) but keep a correct
  ``state_key`` via full recomputation, and the frontier's
  ``canonical_fingerprint`` keeps byte keys wire-compatible with the
  structural ``repr`` format of pre-incremental checkpoints.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import SearchOptions, System, run_search
from repro.fiveess import build_app
from repro.runtime import system as system_module
from repro.runtime.fingerprint import (
    RunFingerprinter,
    decode_canonical,
    encode_canonical,
)
from repro.service.frontier import canonical_fingerprint

# ---------------------------------------------------------------------------
# Codec: encode_canonical / decode_canonical
# ---------------------------------------------------------------------------

ROUNDTRIP_VALUES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    2**70,
    -(2**70),
    "",
    "hello",
    "é☃",
    (),
    (None,),
    (1, "a", (True, (), ("nested", -5))),
    ((), ((),), (((),),)),
    tuple(range(50)),
]


class TestCodec:
    @pytest.mark.parametrize("value", ROUNDTRIP_VALUES, ids=repr)
    def test_roundtrip(self, value):
        assert decode_canonical(encode_canonical(value)) == value

    def test_bool_int_distinct(self):
        # bool is an int subclass; the states (True,) and (1,) differ.
        assert encode_canonical((True,)) != encode_canonical((1,))
        assert decode_canonical(encode_canonical(True)) is True
        assert decode_canonical(encode_canonical(1)) == 1

    def test_subclasses_funnel_to_base_encoding(self):
        class MyInt(int):
            pass

        class MyStr(str):
            pass

        assert encode_canonical(MyInt(7)) == encode_canonical(7)
        assert encode_canonical(MyStr("x")) == encode_canonical("x")

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="canonically encode"):
            encode_canonical([1, 2])
        with pytest.raises(TypeError, match="canonically encode"):
            encode_canonical((1, {"a": 1}))

    def test_trailing_bytes_rejected(self):
        data = encode_canonical((1, 2)) + b"X"
        with pytest.raises(ValueError, match="trailing"):
            decode_canonical(data)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown tag"):
            decode_canonical(b"Z")

    def test_prefix_free(self):
        # The operational form of prefix-freedom: a tuple encodes as a
        # header plus the plain concatenation of its items' encodings,
        # and decoding splits that concatenation back unambiguously.
        combined = encode_canonical(tuple(ROUNDTRIP_VALUES))
        header_len = 5  # tag byte + 4-byte count
        assert combined == combined[:header_len] + b"".join(
            encode_canonical(v) for v in ROUNDTRIP_VALUES
        )
        assert decode_canonical(combined) == tuple(ROUNDTRIP_VALUES)


#: Malformed encodings that escaped as other exceptions or decoded to a
#: value the encoder spells differently.
MALFORMED = {
    "short length field": b"i\xfemx",
    "payload past the end": b"s\x00\x00\x00\x09ab",
    "nested 5000 deep": b"(\x00\x00\x00\x01" * 5000 + b"N",
    "non-canonical int": b"i\x00\x00\x00\x031_0",
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_bytes_raise_located_value_error(data):
    with pytest.raises(ValueError, match=r"at offset \d+$"):
        decode_canonical(data)


fingerprint_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)


@st.composite
def mutated_encodings(draw):
    """A valid encoding with one byte inserted, deleted or replaced, or
    cut short."""
    data = encode_canonical(draw(fingerprint_values))
    pos = draw(st.integers(0, len(data)))
    byte = draw(st.binary(min_size=1, max_size=1))
    edit = draw(st.sampled_from(["insert", "delete", "replace", "truncate"]))
    if edit == "insert":
        return data[:pos] + byte + data[pos:]
    if edit == "delete":
        return data[:pos] + data[pos + 1 :]
    if edit == "replace":
        return data[:pos] + byte + data[pos + 1 :]
    return data[:pos]


@given(st.binary(max_size=64) | mutated_encodings())
@settings(max_examples=500, deadline=None)
def test_decoding_is_total_and_canonical(data):
    # Any byte string either fails with a ValueError or is exactly the
    # encoding of what it decodes to.
    try:
        value = decode_canonical(data)
    except ValueError:
        return
    assert encode_canonical(value) == data


# ---------------------------------------------------------------------------
# Incremental keys on a live run
# ---------------------------------------------------------------------------

PINGPONG = """
proc ping(n) {
    var i = 0;
    while (i < n) {
        send(ab, i);
        var r;
        r = recv(ba);
        i = i + 1;
    }
}
proc pong(n) {
    var i = 0;
    while (i < n) {
        var v;
        v = recv(ab);
        send(ba, v + 100);
        i = i + 1;
    }
}
"""

TOSSER = """
proc main() {
    var t;
    t = VS_toss(2);
    send(out, t);
}
"""

POINTERED = """
proc main() {
    var x = 1;
    var p;
    p = &x;
    *p = 2;
    send(out, x);
}
"""


def pingpong_system(n=2):
    system = System(PINGPONG)
    system.add_channel("ab", capacity=1)
    system.add_channel("ba", capacity=1)
    system.add_process("ping", "ping", [n])
    system.add_process("pong", "pong", [n])
    return system


def oracle(run):
    """The full-recompute reference the incremental key must match."""
    return encode_canonical(run.state_fingerprint())


def assert_key(run):
    key = run.state_key()
    assert key == oracle(run)
    assert decode_canonical(key) == run.state_fingerprint()
    return key


class TestIncrementalKeys:
    @pytest.mark.parametrize("engine", ["walk", "compiled"])
    def test_key_matches_oracle_after_every_transition(self, engine):
        run = pingpong_system().start(engine=engine)
        run.start_processes()
        assert run.fingerprinter is not None
        seen = [assert_key(run)]
        while True:
            enabled = run.enabled_processes()
            if not enabled:
                break
            run.execute_visible(enabled[0])
            seen.append(assert_key(run))
        # The run moved through genuinely distinct states.
        assert len(set(seen)) > 2

    def test_key_stable_without_mutation(self):
        run = pingpong_system().start()
        run.start_processes()
        assert run.state_key() == run.state_key()

    def test_toss_bumps_the_key(self):
        system = System(TOSSER)
        system.add_env_sink("out")
        system.add_process("p", "main", [])
        run = system.start(journal=True)
        run.start_processes()
        before = assert_key(run)
        pending = run.toss_pending()
        assert pending is not None
        run.answer_toss(pending, 1)
        after = assert_key(run)
        assert after != before

    def test_checkpoint_restore_reinstalls_the_memo(self):
        run = pingpong_system().start(journal=True)
        run.start_processes()
        base_key = assert_key(run)
        checkpoint = run.checkpoint()
        # Mutate past the checkpoint, keying at every state so the memo
        # is hot (and would be stale after a naive rewind).
        for _ in range(3):
            enabled = run.enabled_processes()
            assert enabled
            run.execute_visible(enabled[0])
            assert_key(run)
        run.restore(checkpoint)
        assert assert_key(run) == base_key
        # And the restored epoch keeps tracking correctly.
        run.execute_visible(run.enabled_processes()[0])
        assert_key(run)

    def test_restore_branching_same_checkpoint_twice(self):
        # DFS shape: restore the same checkpoint, take different
        # branches; both branches must fingerprint correctly.
        run = pingpong_system().start(journal=True)
        run.start_processes()
        assert_key(run)
        checkpoint = run.checkpoint()
        first = run.enabled_processes()
        run.execute_visible(first[0])
        branch_a = assert_key(run)
        run.restore(checkpoint)
        second = run.enabled_processes()
        assert [p.name for p in second] == [p.name for p in first]
        run.execute_visible(second[-1])
        branch_b = assert_key(run)
        if len(first) > 1:
            assert branch_a != branch_b

    def test_snapshot_none_until_first_key(self):
        run = pingpong_system().start(journal=True)
        run.start_processes()
        assert run.fingerprinter.snapshot() is None
        checkpoint = run.checkpoint()
        assert checkpoint.fingerprints is None
        # A restore carrying no memo must still leave keys correct
        # (invalidate path): key after the checkpoint, then rewind.
        assert_key(run)
        run.execute_visible(run.enabled_processes()[0])
        assert_key(run)
        run.restore(checkpoint)
        assert_key(run)

    def test_step_marks_the_process_and_its_object_stale(self):
        run = pingpong_system().start(journal=True)
        run.start_processes()
        fingerprinter = run.fingerprinter
        assert_key(run)
        assert fingerprinter.stale == set()
        process = run.enabled_processes()[0]
        obj = process.visible_request.obj
        assert obj is not None
        run.execute_visible(process)
        assert fingerprinter.stale == {process, obj}
        assert_key(run)
        assert fingerprinter.stale == set()

    def test_toss_marks_only_the_tossing_process_stale(self):
        system = System(TOSSER)
        system.add_env_sink("out")
        system.add_process("p", "main", [])
        run = system.start(journal=True)
        run.start_processes()
        assert_key(run)
        pending = run.toss_pending()
        run.answer_toss(pending, 1)
        assert run.fingerprinter.stale == {pending}

    def test_snapshot_never_claims_a_stale_part(self):
        run = pingpong_system().start(journal=True)
        run.start_processes()
        fingerprinter = run.fingerprinter
        assert_key(run)
        # Step *without* re-keying: the stepped process and its channel
        # now hold parts of the previous state.
        process = run.enabled_processes()[0]
        obj = process.visible_request.obj
        run.execute_visible(process)
        parts, stale = fingerprinter.snapshot()
        assert {process, obj} <= set(stale)
        components = [*run.processes, None, *run.objects.values()]
        for component, part in zip(components, parts[1:]):
            if component is not None and component not in stale:
                assert part == encode_canonical(component.state_fingerprint())
        # Restoring the snapshot keeps the stale parts stale.
        checkpoint = run.checkpoint()
        run.execute_visible(run.enabled_processes()[0])
        assert_key(run)
        run.restore(checkpoint)
        assert set(stale) <= fingerprinter.stale
        assert_key(run)


class _RecordingSet(set):
    """A stale set that records every component added to it."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def add(self, item):
        self.log.append(item)
        super().add(item)

    def update(self, *others):
        for other in others:
            self.log.extend(other)
        super().update(*others)


class TestUnkeyedRuns:
    def test_search_without_keys_marks_nothing_stale(self, monkeypatch):
        # A restore-mode DFS with no state cache and no state counting
        # never asks for a key, so its steps, toss answers and restores
        # need not mark anything: every component is stale until the
        # first key.
        marked: list = []
        fingerprinters: list = []

        class Recording(RunFingerprinter):
            __slots__ = ()

            def __init__(self, processes, objects):
                super().__init__(processes, objects)
                self.stale = _RecordingSet(self.stale, marked)
                fingerprinters.append(self)

        monkeypatch.setattr(system_module, "RunFingerprinter", Recording)
        app = build_app(n_lines=2, calls_per_line=1)
        system = app.make_system(app.close(), with_maintenance=False)
        report = run_search(
            system,
            SearchOptions(engine="compiled", backtrack="restore", max_depth=12),
        )
        assert fingerprinters and report.stats.restores > 0
        assert report.states_visited > 0
        assert marked == []


# ---------------------------------------------------------------------------
# The pointer gate
# ---------------------------------------------------------------------------


class TestPointerGate:
    def test_pointer_program_gets_no_fingerprinter(self):
        system = System(POINTERED)
        system.add_env_sink("out")
        system.add_process("p", "main", [])
        assert system.uses_pointers()
        run = system.start()
        run.start_processes()
        assert run.fingerprinter is None
        # state_key falls back to full recomputation — still canonical.
        assert run.state_key() == oracle(run)

    def test_pointer_free_program_is_gated_in(self):
        system = pingpong_system()
        assert not system.uses_pointers()
        assert isinstance(
            system.start().fingerprinter, RunFingerprinter
        )


# ---------------------------------------------------------------------------
# Frontier wire-format compatibility
# ---------------------------------------------------------------------------


class TestFrontierCompatibility:
    def test_byte_keys_canonicalize_like_structural_fingerprints(self):
        # Pre-incremental frontier checkpoints stored repr(structure);
        # the explorer now collects canonical bytes.  Both must land on
        # the same canonical string, or resumed searches would re-count
        # every previously seen state.
        run = pingpong_system().start()
        run.start_processes()
        structure = run.state_fingerprint()
        assert canonical_fingerprint(run.state_key()) == repr(structure)
        assert canonical_fingerprint(structure) == repr(structure)
