"""Self-time arithmetic, the layer table and wrapper installation."""

import pytest

from perfbench import tracer


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def _spans(*rows):
    return [tracer.Span(name, start, end, parent, 0) for name, start, end, parent in rows]


def test_self_time_subtracts_nested_children():
    spans = _spans(
        ("transfer.download", 0.0, 10.0, -1),
        ("security.handshake", 1.0, 3.0, 0),
        ("rlnc.decode", 4.0, 8.0, 0),
        ("gf.matmul", 5.0, 6.0, 2),
    )
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = _spans(("a.x", 0.0, 10.0, -1), ("b.y", 2.0, 6.0, 0), ("b.z", 4.0, 12.0, 0))
    # Children cover [2, 10] of the parent: union, clipped to the parent.
    assert tracer.self_times(spans)[0] == pytest.approx(2.0)


def test_layer_rows_plus_unattributed_sum_to_wall():
    spans = _spans(
        ("sim.network", 1.0, 9.0, -1),
        ("security.keygen", 1.5, 3.0, 0),
        ("sim.build", 3.0, 4.0, 0),
        ("rlnc.encode", 10.0, 12.0, -1),
        ("gf.matmul", 10.5, 11.5, 3),
    )
    by_name, by_layer, unattributed = tracer.layer_table(spans, wall=15.0)
    assert by_layer == pytest.approx({"sim": 6.5, "security": 1.5, "rlnc": 1.0, "gf": 1.0})
    assert by_name["sim.network"] == pytest.approx(5.5)
    assert unattributed == pytest.approx(5.0)
    assert sum(by_layer.values()) + unattributed == pytest.approx(15.0)


def test_recorder_nests_spans_and_stamps_the_op():
    rec = tracer.Recorder(clock=FakeClock([0.0, 1.0, 2.0, 5.0]))
    rec.op = 7
    outer = rec.enter("transfer.download")
    inner = rec.enter("transfer.serve")
    rec.exit(inner)
    rec.exit(outer)
    assert [(s.name, s.parent, s.op) for s in rec.spans] == [
        ("transfer.download", -1, 7),
        ("transfer.serve", 0, 7),
    ]
    assert tracer.self_times(rec.spans) == pytest.approx([4.0, 1.0])


def test_patch_wraps_name_imported_functions_and_restores_them():
    import repro.security.keys as keys
    import repro.sim.network as network

    original = keys.generate_keypair
    assert network.generate_keypair is original
    rec = tracer.Recorder()
    target = tracer.Target("repro.security.keys", "generate_keypair", "security.keygen")
    with tracer.Patch(rec, (target,)):
        assert network.generate_keypair is not original
        network.generate_keypair(bits=128, seed=1)
    assert network.generate_keypair is original
    assert keys.generate_keypair is original
    assert [s.name for s in rec.spans] == ["security.keygen"]
    assert rec.counts["security.keygen.calls"] == 1


def test_patch_wraps_methods_on_the_defining_class():
    from repro.gf.field import GF, BinaryField

    original = vars(BinaryField)["matmul"]
    field = GF(8)
    rec = tracer.Recorder()
    target = tracer.Target("repro.gf.field", "BinaryField.matmul", "gf.matmul")
    with tracer.Patch(rec, (target,)):
        a = field.zeros((2, 2))
        field.matmul(a, a)
    assert vars(BinaryField)["matmul"] is original
    assert rec.counts["gf.matmul.calls"] == 1
