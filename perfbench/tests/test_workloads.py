"""The seeded generator: same seed, same inputs; every seed, same work."""

from collections import Counter

import pytest

from perfbench import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.build(workload, 11) == workloads.build(workload, 11)


@pytest.mark.parametrize("workload", ["bulk_1mib_chunks", "mixed_8kib_chunks", "sim_dense_1k"])
def test_other_seed_changes_the_inputs(workload):
    assert workloads.build(workload, 11) != workloads.build(workload, 12)


def _work(spec):
    kinds = Counter(op.kind for op in spec.ops)
    published = sorted(len(op.data) // 1024 for op in spec.ops if op.kind == "publish")
    return kinds, published


def test_mixed_stream_is_stratified_across_seeds():
    a = workloads.build("mixed_8kib_chunks", 1)
    b = workloads.build("mixed_8kib_chunks", 2)
    assert [op.kind for op in a.ops] != [op.kind for op in b.ops]
    kinds_a, sizes_a = _work(a)
    kinds_b, sizes_b = _work(b)
    assert kinds_a == kinds_b
    assert kinds_a["fetch"] + kinds_a["robust_fetch"] >= 50
    # Sizes differ only by the sub-KiB tail trim.
    assert [s // 8 for s in sizes_a] == [s // 8 for s in sizes_b]
    assert sorted(a.capacities) == sorted(b.capacities)


def test_mixed_reads_expect_the_latest_version():
    spec = workloads.build("mixed_8kib_chunks", 5)
    latest = {}
    for op in spec.ops:
        if op.kind in ("publish", "update"):
            assert op.kind == "publish" or op.name in latest
            latest[op.name] = op.data
        elif op.kind in ("fetch", "robust_fetch"):
            assert op.expect == latest[op.name]
        elif op.kind == "concurrent":
            assert len({user for user, _, _ in op.batch}) == 4
            for _, name, expect in op.batch:
                assert expect == latest[name]
        elif op.kind == "repair":
            assert op.name in latest


def test_robust_fetch_faults_spare_the_reader():
    spec = workloads.build("mixed_8kib_chunks", 9)
    robust = [op for op in spec.ops if op.kind == "robust_fetch"]
    assert robust
    for op in robust:
        assert 0 <= op.polluter < 4 and op.polluter != op.user
        assert op.refuser not in (op.user, op.polluter)
        assert f"{op.polluter}:pollute" in op.faults
        assert f";{op.refuser}:refuse" in op.faults
        assert f";{op.user}:" not in op.faults


def test_warmup_touches_every_operation_kind():
    full, _ = _work(workloads.build("mixed_8kib_chunks", 3))
    warm, _ = _work(workloads.build("mixed_8kib_chunks", 3, warmup=True))
    assert set(warm) == set(full)
    assert sum(warm.values()) < sum(full.values()) / 4


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.build("nope", 1)
