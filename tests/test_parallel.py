"""ordered_map, and results that do not depend on the number of usable CPUs."""

import os
import threading
import warnings

import pytest

import lexnet.metrics
import lexnet.parallel
from lexnet.cli import run
from lexnet.errors import DegenerateGraphError, LexnetError, MalformedLineError
from lexnet.metrics import betweenness_scores
from lexnet.nullmodels import erdos_renyi_gnm
from lexnet.parallel import _FORK_US, ordered_map

from conftest import reference_betweenness, ugraph

CPU_COUNTS = (1, 2, 3)
WORTH_A_CHUNK = 100 * _FORK_US  # a task's cost for which a call of 2 or more tasks forks


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test here ends with no child process left to reap."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, count: int, *, any_work: bool = False) -> None:
    """Make count CPUs usable; with any_work, every task is worth a chunk of its own."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    if any_work:
        monkeypatch.setattr(lexnet.parallel, "_FORK_US", 1e-9)


def count_forks(monkeypatch) -> list:
    forked = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    return forked


def _pid_of(x):
    return x, os.getpid()


@pytest.mark.parametrize("count", CPU_COUNTS)
def test_results_in_input_order_one_chunk_per_cpu(count, monkeypatch):
    use_cpus(monkeypatch, count)
    results = ordered_map(_pid_of, range(10), WORTH_A_CHUNK)
    assert [x for x, _ in results] == list(range(10))
    pids = [pid for _, pid in results]
    assert pids[:4] == [os.getpid()] * 4  # the parent runs the first chunk
    assert len(set(pids)) == count


@pytest.mark.parametrize(("forks_of_work", "chunks"), [
    (3.99, 1), (4, 2), (8.99, 2), (9, 3), (10_000, 8),
])
def test_as_many_chunks_as_the_work_pays_for(forks_of_work, chunks, monkeypatch):
    use_cpus(monkeypatch, 8)
    forked = count_forks(monkeypatch)
    results = ordered_map(_pid_of, range(100), forks_of_work * _FORK_US / 100)
    assert [x for x, _ in results] == list(range(100))
    assert len(set(pid for _, pid in results)) == chunks
    assert len(forked) == chunks - 1


def test_the_fixture_forks_for_its_ensembles_but_not_its_betweenness(fixture_graph, monkeypatch):
    from lexnet.config import PipelineConfig
    from lexnet.metrics import rich_club_members
    from lexnet.nullmodels import club_cohesion

    use_cpus(monkeypatch, 64)
    forked = count_forks(monkeypatch)
    ug = fixture_graph.undirected_projection()
    betweenness_scores(ug)  # 52 sources of about 0.1 ms each
    assert forked == []
    club = rich_club_members(fixture_graph, 5, 6)
    club_cohesion(fixture_graph, ug, club, PipelineConfig())  # 100 rewirings of about 2 ms
    assert len(forked) == 6  # sqrt(100 x 2,410 attempts / 4,500) = 7 chunks


def test_more_cpus_than_items(monkeypatch):
    use_cpus(monkeypatch, 8)
    assert [x for x, _ in ordered_map(_pid_of, "ab", WORTH_A_CHUNK)] == ["a", "b"]
    assert ordered_map(_pid_of, [], WORTH_A_CHUNK) == []


class _Failing(Exception):
    pass


def _raise_at(bad, error):
    def task(x):
        if x in bad:
            raise error(x) if isinstance(error, type) else error
        return x

    return task


@pytest.mark.parametrize("count", CPU_COUNTS)
@pytest.mark.parametrize("error", [
    LexnetError("no such slug"),
    DegenerateGraphError("assessment needs at least 3 nodes"),
    MalformedLineError(7, "expected 3 tab-separated fields, got 1", "node sidecar line"),
], ids=["lexnet", "degenerate", "malformed-line"])
def test_a_task_error_is_raised_in_the_parent(count, error, monkeypatch):
    use_cpus(monkeypatch, count)
    with pytest.raises(type(error)) as raised:
        ordered_map(_raise_at({8}, error), range(9), WORTH_A_CHUNK)  # the last chunk's item
    assert str(raised.value) == str(error)
    assert raised.value.exit_code == error.exit_code
    assert vars(raised.value) == vars(error)


@pytest.mark.parametrize("count", CPU_COUNTS)
def test_the_first_failing_item_raises(count, monkeypatch):
    use_cpus(monkeypatch, count)
    with pytest.raises(_Failing, match="^4$"):
        ordered_map(_raise_at({4, 8}, _Failing), range(9), WORTH_A_CHUNK)
    with pytest.raises(_Failing, match="^0$"):
        ordered_map(_raise_at({0, 8}, _Failing), range(9), WORTH_A_CHUNK)  # the parent's own chunk


def test_an_error_that_does_not_pickle_keeps_its_text(monkeypatch):
    class Local(Exception):  # pickle cannot find a class defined in a function
        pass

    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^Local: lost$"):
        ordered_map(_raise_at({3}, Local("lost")), range(4), WORTH_A_CHUNK)


def test_a_child_that_dies_has_its_chunk_run_in_the_parent(monkeypatch):
    parent = os.getpid()

    def task(x):
        if os.getpid() != parent:
            os._exit(1)
        return x * x

    use_cpus(monkeypatch, 3)
    assert ordered_map(task, range(7), WORTH_A_CHUNK) == [x * x for x in range(7)]


def test_runs_in_process_beside_another_thread(monkeypatch):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        use_cpus(monkeypatch, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = ordered_map(_pid_of, range(6), WORTH_A_CHUNK)
    finally:
        release.set()
        other.join()
    assert [pid for _, pid in results] == [os.getpid()] * 6


@pytest.mark.parametrize("sources_per_call", [35, 4], ids=["one-call", "nine-calls"])
def test_betweenness_does_not_depend_on_the_cpu_count(sources_per_call, monkeypatch):
    # a random graph on 0..29 plus isolated nodes 30..34, which no source reaches
    er = erdos_renyi_gnm(30, 45, seed=5)
    ug = ugraph(35, er.edges())
    expected = reference_betweenness(ug)
    monkeypatch.setattr(lexnet.metrics, "_ROW_BUDGET", 35 * sources_per_call)
    for count in CPU_COUNTS:
        use_cpus(monkeypatch, count, any_work=True)
        assert betweenness_scores(ug) == expected


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fx")
    assert run(["fixture", "--out-dir", str(root / "fx")]) == 0
    assert run(["extract", "--corpus", str(root / "fx" / "corpus"), "--registry",
                str(root / "fx" / "registry.tsv"), "--out", str(root / "edges.tsv"),
                "--nodes-out", str(root / "nodes.txt")]) == 0
    return root


def test_fixture_report_does_not_depend_on_the_cpu_count(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    reports = []
    for count in CPU_COUNTS:
        use_cpus(monkeypatch, count, any_work=True)
        out = f"report-{count}.json"
        assert run(["analyze", "--edges", "edges.tsv", "--nodes", "nodes.txt", "--out", out]) == 0
        reports.append((inputs / out).read_bytes())
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


@pytest.mark.parametrize(("records", "code", "forks"), [
    ("b\tf\t1\nc\td\t1\nd\tc\t1\nf\td\t1\n", 4, True),  # after the club's rewirings
    ("a\tb\t1\nb\tc\t1\nc\ta\t1\n", 2, False),
    ("a\tb\t1\nb\tc\tx\n", 3, False),
], ids=["degenerate", "config", "malformed"])
def test_a_failing_command_leaves_no_child(records, code, forks, tmp_path, monkeypatch, capsys):
    forked = count_forks(monkeypatch)
    use_cpus(monkeypatch, 3, any_work=True)
    edges = tmp_path / "edges.tsv"
    edges.write_text(records, encoding="utf-8")
    k_citing = "0" if code == 2 else "1"  # --k-citing 0 is a configuration error
    argv = ["analyze", "--edges", str(edges), "--k-citing", k_citing, "--k-cited", "1",
            "--null-samples", "6", "--out", str(tmp_path / "r.json")]
    assert run(argv) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert bool(forked) == forks
