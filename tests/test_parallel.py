"""ordered_map, and results that do not depend on the number of usable CPUs."""

import io
import os
import pickle
import sys
import threading
import tracemalloc
import warnings

import pytest

import lexnet.parallel
from lexnet.cli import run
from lexnet.config import PipelineConfig
from lexnet.errors import DegenerateGraphError, LexnetError, MalformedLineError
from lexnet.metrics import betweenness_scores
from lexnet.nullmodels import erdos_renyi_gnm
from lexnet.parallel import _FORK_US, _receive, ordered_map

from conftest import make_digraph, reference_betweenness, ugraph

CPU_COUNTS = (1, 2, 3)
WORTH_A_CHUNK = 100 * _FORK_US  # work worth 10 workers: a call of 2 or more tasks forks


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test here ends with no child process left to reap."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, count: int, *, any_work: bool = False) -> None:
    """Make count CPUs usable; with any_work, every task is worth a worker of its own."""
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
    results = list(ordered_map(_pid_of, range(10), WORTH_A_CHUNK))
    assert [x for x, _ in results] == list(range(10))
    pids = [pid for _, pid in results]
    assert pids[::count] == [os.getpid()] * len(pids[::count])  # the parent runs items 0, N, 2N...
    assert pids == [pids[i % count] for i in range(10)]  # and worker w the items w, w + N...
    assert len(set(pids)) == count


@pytest.mark.parametrize(("forks_of_work", "workers"), [
    (3.99, 1), (4, 2), (8.99, 2), (9, 3), (10_000, 8),
])
def test_as_many_chunks_as_the_work_pays_for(forks_of_work, workers, monkeypatch):
    use_cpus(monkeypatch, 8)
    forked = count_forks(monkeypatch)
    results = list(ordered_map(_pid_of, range(100), forks_of_work * _FORK_US))
    assert [x for x, _ in results] == list(range(100))
    assert len(set(pid for _, pid in results)) == workers
    assert len(forked) == workers - 1


def workers_per_map(monkeypatch) -> list:
    """The number of workers of each ordered_map call, in call order."""
    workers = []

    def workers_for(items, work_us, rule=lexnet.parallel._workers):
        workers.append(rule(items, work_us))
        return workers[-1]

    monkeypatch.setattr(lexnet.parallel, "_workers", workers_for)
    return workers


def test_the_fixture_forks_for_its_ensembles_but_not_its_betweenness(fixture_graph, monkeypatch):
    from lexnet.pipeline import analyze_graph

    use_cpus(monkeypatch, 64)
    forked = count_forks(monkeypatch)
    workers = workers_per_map(monkeypatch)
    analyze_graph(fixture_graph, PipelineConfig())
    # the null samples: 100 rewirings of 2,410 swap attempts, and 100 ER and
    # 100 WS samples of 534 and 572 node and arc ends, at about 1 us each;
    # sqrt(351,600 us / 4,500 us) = 8 workers. Then 52 Brandes sources of about 0.1 ms
    assert workers == [8, 1]
    assert len(forked) == 7


def test_the_parent_loads_pickle_before_its_first_fork_and_only_then(monkeypatch):
    monkeypatch.delitem(sys.modules, "pickle")
    use_cpus(monkeypatch, 1)
    assert [x for x, _ in ordered_map(_pid_of, range(4), WORTH_A_CHUNK)] == list(range(4))
    assert "pickle" not in sys.modules  # a map that forks nothing imports nothing
    loaded = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: loaded.append("pickle" in sys.modules) or fork())
    use_cpus(monkeypatch, 3)
    assert [x for x, _ in ordered_map(_pid_of, range(4), WORTH_A_CHUNK)] == list(range(4))
    assert loaded == [True, True]  # so no child imports it after its fork


def test_more_cpus_than_items(monkeypatch):
    use_cpus(monkeypatch, 8)
    assert [x for x, _ in ordered_map(_pid_of, "ab", WORTH_A_CHUNK)] == ["a", "b"]
    assert list(ordered_map(_pid_of, [], WORTH_A_CHUNK)) == []


def test_nothing_forks_before_the_first_read_and_a_closed_map_leaves_no_child(monkeypatch):
    forked = count_forks(monkeypatch)
    use_cpus(monkeypatch, 3)
    results = ordered_map(_pid_of, range(30), WORTH_A_CHUNK)
    assert forked == []
    assert next(results) == (0, os.getpid())
    assert len(forked) == 2
    results.close()  # the children are still running their items
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        list(ordered_map(_raise_at({7}, error), range(9), WORTH_A_CHUNK))  # a child's item at 2 and 3 CPUs
    assert str(raised.value) == str(error)
    assert raised.value.exit_code == error.exit_code
    assert vars(raised.value) == vars(error)


@pytest.mark.parametrize("count", CPU_COUNTS)
def test_the_first_failing_item_raises(count, monkeypatch):
    use_cpus(monkeypatch, count)
    with pytest.raises(_Failing, match="^4$"):
        list(ordered_map(_raise_at({4, 8}, _Failing), range(9), WORTH_A_CHUNK))
    with pytest.raises(_Failing, match="^5$"):
        list(ordered_map(_raise_at({5, 8}, _Failing), range(9), WORTH_A_CHUNK))  # a child's at 2 and 3 CPUs
    with pytest.raises(_Failing, match="^0$"):
        list(ordered_map(_raise_at({0, 8}, _Failing), range(9), WORTH_A_CHUNK))  # the parent's own item


def test_an_error_that_does_not_pickle_keeps_its_text(monkeypatch):
    class Local(Exception):  # pickle cannot find a class defined in a function
        pass

    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^Local: lost$"):
        list(ordered_map(_raise_at({3}, Local("lost")), range(4), WORTH_A_CHUNK))


@pytest.mark.parametrize("count", [2, 3])
def test_a_child_that_dies_partway_has_the_rest_of_its_items_run_in_the_parent(count, monkeypatch):
    parent = os.getpid()

    def task(x):
        if x >= 5 and os.getpid() != parent:
            os._exit(1)
        return x * x, os.getpid()

    use_cpus(monkeypatch, count)
    results = list(ordered_map(task, range(12), WORTH_A_CHUNK))
    assert [y for y, _ in results] == [x * x for x in range(12)]
    pids = [pid for _, pid in results]
    assert all(pids[x] != parent for x in range(5) if x % count)  # sent before the child died
    assert pids[5:] == [parent] * 7


def test_a_stream_that_ends_early_reads_as_none():
    whole = pickle.dumps((True, list(range(1000))), pickle.HIGHEST_PROTOCOL)
    assert _receive(io.BytesIO(whole)) == (True, list(range(1000)))
    assert _receive(io.BytesIO(whole[:-10])) is None  # a child killed in the middle of a write
    assert _receive(io.BytesIO(b"")) is None  # a child that exited before its next result


def test_runs_in_process_beside_another_thread(monkeypatch):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        use_cpus(monkeypatch, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = list(ordered_map(_pid_of, range(6), WORTH_A_CHUNK))
    finally:
        release.set()
        other.join()
    assert [pid for _, pid in results] == [os.getpid()] * 6


@pytest.mark.parametrize("n", [35, 300], ids=["rows-within-a-pipe-buffer", "rows-past-a-pipe-buffer"])
def test_betweenness_does_not_depend_on_the_cpu_count(n, monkeypatch):
    # a random graph on all but the last 5 nodes, which no source reaches; at
    # 300 nodes a child's rows (2.4 KB each) fill its pipe, so it waits for the parent
    er = erdos_renyi_gnm(n - 5, 3 * (n - 5) // 2, seed=5)
    ug = ugraph(n, er.edges())
    expected = reference_betweenness(ug)
    for count in CPU_COUNTS:
        use_cpus(monkeypatch, count, any_work=True)
        assert betweenness_scores(ug) == expected


def test_betweenness_holds_one_row_at_a_time(monkeypatch):
    ug = erdos_renyi_gnm(600, 900, seed=3)
    row = 8 * ug.node_count  # a row of doubles, as a child sends it
    use_cpus(monkeypatch, 2, any_work=True)
    tracemalloc.start()
    try:
        adjacency = [sorted(nbrs) for nbrs in ug.adj]  # the copy betweenness_scores walks
        held = tracemalloc.get_traced_memory()[0]
        del adjacency
        tracemalloc.reset_peak()
        betweenness_scores(ug)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parent's own source, the running sum, the row it is adding and the
    # pipe's read buffer measure 17-24 rows; a block of rows held at once, or
    # a child's rows pickled in one reply, takes hundreds
    assert peak - held < 30 * row


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


def test_a_report_whose_every_stage_forks_does_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    # at 300 nodes and 6 null samples the work rule forks betweenness as well as
    # the null samples, where the fixture's betweenness stays in-process
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"n{u}\tn{v}\t1\n" for u, v in erdos_renyi_gnm(300, 1500, 7).edges()),
                     encoding="utf-8")
    workers = workers_per_map(monkeypatch)
    reports = []
    for count in CPU_COUNTS:
        use_cpus(monkeypatch, count)
        workers.clear()
        out = tmp_path / f"report-{count}.json"
        assert run(["analyze", "--edges", str(edges), "--null-samples", "6", "--out", str(out)]) == 0
        assert workers == [min(count, most) for most in (5, 6)]  # the null samples, Brandes
        reports.append(out.read_bytes())
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_the_fixture_analysis_forks_once_for_all_its_null_samples(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    use_cpus(monkeypatch, 2)
    workers = workers_per_map(monkeypatch)
    forked = count_forks(monkeypatch)
    assert run(["analyze", "--edges", "edges.tsv", "--nodes", "nodes.txt", "--out", "r.json"]) == 0
    assert workers == [2, 1]  # the rewirings, ER and WS samples in one map; then betweenness
    assert len(forked) == 1


def _has_child() -> bool:
    """Whether this process has a child, without reaping one that has exited."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


# (slugs, arcs) of graphs whose (2, 2) rich club the cohesion test cannot use
_SMALL_GRAPHS = {
    "phi-undefined": ("habc", [("h", "a"), ("h", "b"), ("h", "c")]),
    "one-edge": ("abc", [("b", "c")]),
    "two-nodes": ("ab", [("a", "b")]),
}


@pytest.mark.parametrize("baselines", [True, False], ids=["baselines", "cohesion-only"])
@pytest.mark.parametrize("graph", ["fixture", *_SMALL_GRAPHS])
def test_analysis_nulls_returns_every_sample_with_its_children_reaped(
    graph, baselines, fixture_graph, monkeypatch
):
    from lexnet.metrics import phi_table, rich_club_members
    from lexnet.nullmodels import analysis_nulls

    g = fixture_graph if graph == "fixture" else make_digraph(*_SMALL_GRAPHS[graph])
    config = PipelineConfig(null_samples=6)
    ug = g.undirected_projection()
    club = rich_club_members(g, 2, 2)
    use_cpus(monkeypatch, 3, any_work=True)
    forked = count_forks(monkeypatch)
    phis, er, ws = analysis_nulls(ug, club, config, baselines)
    assert not _has_child()
    k = min(len(ug.adj[v]) for v in club.members)
    cohesion_reads = ug.edge_count >= 2 and phi_table(ug).get(k) is not None
    assert cohesion_reads == (g is fixture_graph)
    assert len(phis) == (config.null_samples if cohesion_reads else 0)
    assert len(er) == len(ws) == (config.null_samples if baselines and g.node_count >= 3 else 0)
    assert bool(forked) == (len(phis) + len(er) + len(ws) >= 2)


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises-after-the-draw"])
def test_build_sections_leaves_no_child_of_its_null_samples(fails, fixture_graph, monkeypatch):
    import lexnet.pipeline
    from lexnet.pipeline import REPORT_SECTIONS, build_sections

    use_cpus(monkeypatch, 3, any_work=True)
    had_child = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: had_child.append(_has_child()) or fork())
    if fails:
        # built after every null sample is drawn, before the baselines fold theirs
        def fail(*args):
            raise LexnetError("after the draw")

        monkeypatch.setattr(lexnet.pipeline, "build_provenance", fail)
        with pytest.raises(LexnetError, match="^after the draw$"):
            build_sections(fixture_graph, PipelineConfig(null_samples=6), REPORT_SECTIONS)
        assert had_child == [False, True]  # the null samples' two children
    else:
        build_sections(fixture_graph, PipelineConfig(null_samples=6), REPORT_SECTIONS)
        # the null samples' two children are reaped before betweenness forks its own
        assert had_child == [False, True, False, True]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
