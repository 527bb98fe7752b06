"""The life of this process's helper process (``core._Helper``): forked at
the first two-process stage and kept for the next, killed and forked
again after a desync, never used below two CPUs, forgotten by a child
this process forks, and gone when this process exits.  Every result is
the one-process stage's."""

import io as _stdio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaugephase import (
    core,
    decompose,
    dump_report,
    load_evolution,
    load_matrix,
    random_generic_unitary,
    reconstruct,
    save_evolution,
    save_matrix,
)
from gaugephase import io as io_module
from gaugephase.cli import main
from gaugephase.core import _Fork
from gaugephase.io import _BLOCK
from test_io_cli import _late_decoded_piece, _received_runs, _run_lengths


@pytest.fixture(scope="module")
def large_files(tmp_path_factory):
    """A matrix file of n = 256 and an evolution file of n = 8, each above
    the reader's fork size."""
    directory = tmp_path_factory.mktemp("helper")
    matrix, evolution = str(directory / "m256.json"), str(directory / "evolution.json")
    save_matrix(matrix, random_generic_unitary(256, 5).data)
    rng = np.random.default_rng(5)
    save_evolution(evolution, np.linspace(0.0, 1.0, 500),
                   rng.standard_normal((500, 8, 8)) + 1j * rng.standard_normal((500, 8, 8)))
    assert min(os.path.getsize(matrix), os.path.getsize(evolution)) >= _Fork.bytes
    return matrix, evolution


def _one_process(call):
    """``call()`` with no stage handed to a helper."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_cpus", lambda: 1)
        return call()


def _tower(matrix: str):
    """The coset tower of the matrix in ``matrix`` and its rebuild, as bits."""
    params = decompose(core.UnitaryMatrix(load_matrix(matrix)))
    rebuilt = reconstruct(params)
    return ([v.data.view(np.uint64).tolist() for v in params.vectors],
            np.float64(params.chi).view(np.uint64), rebuilt.data.view(np.uint64).tolist())


def _gone(pid: int) -> bool:
    """Whether no process has the pid ``pid``: it has exited and been reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _dumped(doc) -> str:
    out = _stdio.StringIO()
    dump_report(doc, out)
    return out.getvalue()


def _json_dumped(doc) -> str:
    out = _stdio.StringIO()
    json.dump(doc, out, sort_keys=True, indent=2, allow_nan=False)
    return out.getvalue() + "\n"


def test_the_stages_of_one_process_fork_one_helper(large_files, forks):
    matrix, evolution = large_files
    expected = _one_process(lambda: (_tower(matrix), _tower(matrix)))
    assert (forks.tasks, forks.made) == ([], [])
    assert _tower(matrix) == expected[0]
    pid = core._Helper.live.pid
    assert _tower(matrix) == expected[1]
    assert forks.tasks == ["_decoded_piece", "_send_peeled_leading", "_rebuilt_leading"] * 2
    assert forks.made == [pid] and core._Helper.live.pid == pid


@pytest.mark.parametrize("ratio", [1 / 3, 3])
def test_a_helper_forked_with_another_run_length_is_kept(ratio, large_files, monkeypatch,
                                                         forks):
    # The reader alone cuts the runs.  The helper keeps the run length it
    # was forked with and decodes each run it is fed with it: a longer one
    # cuts each fed run where the reader did, a shorter one cuts the first
    # short and refuses it, and the reader decodes every run from there on.
    matrix, evolution = large_files
    expected = _one_process(lambda: load_evolution(evolution))
    load_matrix(matrix)
    first = core._Helper.live.pid
    monkeypatch.setattr(io_module, "_PAIR_RUN", int(io_module._PAIR_RUN * ratio))
    received = _received_runs(monkeypatch)
    got = load_evolution(evolution)
    assert all(np.array_equal(g.view(np.uint64), e.view(np.uint64))
               for g, e in zip(got, expected))
    if ratio < 1:
        assert received["taken"] > 0 and received["left"] == 0
    else:
        assert received["taken"] == 0 and received["left"] >= 1
    load_matrix(matrix)
    assert forks.made == [first] == [core._Helper.live.pid]
    assert len(forks.tasks) == 3


def test_a_slow_helper_is_given_fewer_runs_and_kept(large_files, monkeypatch, forks):
    # The reader decodes on ahead of the runs the helper owes and takes each
    # answer as it comes, so a helper slowed before its fork answers fewer
    # than half the runs.  The arrays are the one-process read's, and the
    # same helper serves the next load.
    _, evolution = large_files
    expected = _one_process(lambda: load_evolution(evolution))
    with monkeypatch.context() as patch:
        patch.setattr(io_module, "_decoded_piece", _late_decoded_piece)
        received = _received_runs(patch)
        lengths = _run_lengths(patch)
        got = load_evolution(evolution)
    assert all(np.array_equal(g.view(np.uint64), e.view(np.uint64))
               for g, e in zip(got, expected))
    assert 0 < received["taken"] and 2 * received["taken"] < len(lengths)
    first = core._Helper.live.pid
    got = load_evolution(evolution)
    assert all(np.array_equal(g.view(np.uint64), e.view(np.uint64))
               for g, e in zip(got, expected))
    assert forks.made == [first] == [core._Helper.live.pid]
    assert forks.tasks == ["_late_decoded_piece", "_decoded_piece"]


def _unjoined(at: int) -> dict:
    """A document of more floats than the writer's fork size, with a block
    that will not join at float ``at``: block 0 is always fed to the
    helper."""
    floats = np.random.default_rng(at).standard_normal(_Fork.floats + _BLOCK).tolist()
    return {"a": floats[:at] + [[0.5, 0.25], 7] + floats[at + 2:]}


def test_a_block_that_will_not_join_here_or_there_keeps_the_helper(forks):
    there, here = _unjoined(5), _unjoined(_BLOCK + 5)
    # The helper refuses block 0, which goes item by item here, and sends
    # its end mark.
    assert _dumped(there) == _json_dumped(there)
    first = core._Helper.live.pid
    # Block 1, joined here or fed, goes item by item here.
    assert _dumped(here) == _json_dumped(here)
    assert _dumped(there) == _json_dumped(there)
    assert core._Helper.live.pid == first and forks.made == [first]
    assert len(forks.tasks) == 3


def test_an_error_in_a_stage_kills_the_helper(forks):
    doc = {"a": np.random.default_rng(3).standard_normal(_Fork.floats).tolist(),
           "b": [float("nan")]}
    with pytest.raises(ValueError, match="Out of range float values"):
        _dumped(doc)
    assert core._Helper.live is None and _gone(forks.made[0])
    assert len(forks.tasks) == 1


@pytest.mark.parametrize("at", ["key", "helper_block"])
def test_a_member_that_will_not_pickle_raises_jsons_type_error(at, forks):
    # The document is never pickled: the writer forks for it.  With the
    # function in block 0, which the helper is always fed, that block will
    # not pickle and is joined here.
    floats = np.random.default_rng(4).standard_normal(_Fork.floats).tolist()
    doc = ({"a": floats, "b": lambda: None} if at == "key"
           else {"a": floats[:5] + [lambda: None] + floats[5:]})
    with pytest.raises(TypeError, match="^Object of type function is not JSON serializable$"):
        _dumped(doc)
    assert forks.tasks == ["_joined_piece"] and len(forks.made) == 1


def test_one_cpu_leaves_a_live_helper_unused(large_files, monkeypatch, forks):
    matrix, _ = large_files
    expected = _tower(matrix)
    live = core._Helper.live
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    assert _tower(matrix) == expected
    assert core._Helper.live is live and not _gone(live.pid)
    assert (len(forks.tasks), len(forks.made)) == (3, 1)


def test_a_helper_leaves_at_the_end_of_its_socket(large_files, forks):
    load_matrix(large_files[0])
    live = core._Helper.live
    core._Helper.live = None
    live.channel.close()
    assert os.waitpid(live.pid, 0) == (live.pid, 0)


def test_a_child_forked_later_never_writes_to_the_helpers_socket(forks):
    doc = {"a": np.random.default_rng(6).standard_normal((_Fork.floats, 2))}
    expected = _dumped(doc)
    live = core._Helper.live
    fd = live.channel.fileno()
    child = os.fork()
    if child == 0:  # the child leaves by os._exit, its status the verdict
        status = 1
        try:
            forgotten = core._Helper.live is None
            try:
                os.fstat(fd)
            except OSError:
                closed = True
            else:
                closed = False
            same = _dumped(doc) == expected  # by a helper of the child's own
            core._Helper.quit()
            status = 0 if forgotten and closed and same else 2
        finally:
            os._exit(status)
    assert os.waitpid(child, 0)[1] == 0
    # The helper was not disturbed: its next task is in step.
    assert _dumped(doc) == expected
    assert core._Helper.live is live
    assert (len(forks.tasks), forks.made) == (2, [live.pid, child])


def test_a_process_that_exits_leaves_no_helper(large_files, tmp_path):
    matrix, _ = large_files
    outputs = [str(tmp_path / f"report{i}.json") for i in range(2)]
    script = (
        "import sys\n"
        "from gaugephase import core\n"
        "from gaugephase.cli import main\n"
        "core._cpus = lambda: 2\n"
        f"for out in {outputs!r}:\n"
        f"    assert main(['decompose', {matrix!r}, '-o', out]) == 0\n"
        "print(core._Helper.live.pid)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert _gone(int(done.stdout))
    one = str(tmp_path / "one_process.json")
    assert _one_process(lambda: main(["decompose", matrix, "-o", one])) == 0
    reports = [Path(path).read_bytes() for path in (*outputs, one)]
    assert reports[0] == reports[1] == reports[2]


def _decompose_into_a_closed_pipe(matrix: str, tmp_path, *output: str):
    """Run ``decompose matrix`` with ``output`` in a child whose stdout is a
    pipe whose reading end is closed before the child writes, so the
    report's first write to it fails; the child's status, its stderr and
    the pids of the processes it forked."""
    forked = tmp_path / "forked.txt"
    script = (
        "import os\n"
        "import sys\n"
        "from gaugephase import core\n"
        "from gaugephase.cli import main\n"
        "core._cpus = lambda: 2\n"
        "fork = os.fork\n"
        "def counted():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        f"        with open({str(forked)!r}, 'a') as fh:\n"
        "            print(pid, file=fh)\n"
        "    return pid\n"
        "os.fork = counted\n"
        f"sys.exit(main(['decompose', {matrix!r}, *{list(output)!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-c", script], env=env, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    return done.returncode, done.stderr, [int(pid) for pid in forked.read_text().split()]


def test_a_stdout_whose_reader_has_gone_exits_141_and_leaves_no_helper(large_files, tmp_path):
    # The report goes through the helper (n = 256: the tower and the
    # writer), which is killed and reaped before the child exits 128 +
    # SIGPIPE, with no traceback.
    matrix, _ = large_files
    status, stderr, pids = _decompose_into_a_closed_pipe(matrix, tmp_path)
    assert status == 141, stderr
    assert "Traceback" not in stderr
    assert pids and all(_gone(pid) for pid in pids)


def test_an_output_pipe_whose_reader_has_gone_exits_141_and_leaves_no_helper(large_files,
                                                                              tmp_path):
    # -o /dev/stdout is no regular file, so the report is written straight
    # through to a new descriptor of the pipe, as to a FIFO: it ends as a
    # broken stdout does, with nothing on stderr.
    matrix, _ = large_files
    status, stderr, pids = _decompose_into_a_closed_pipe(matrix, tmp_path, "-o", "/dev/stdout")
    assert status == 141, stderr
    assert stderr == ""
    assert pids and all(_gone(pid) for pid in pids)


def test_sigchld_ignored_leaves_a_live_helper_unused(large_files, forks, request):
    matrix, _ = large_files
    expected = _tower(matrix)
    live = core._Helper.live
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    request.addfinalizer(lambda: signal.signal(signal.SIGCHLD, previous))
    assert _tower(matrix) == expected
    signal.signal(signal.SIGCHLD, previous)
    assert core._Helper.live is live
    assert (len(forks.tasks), len(forks.made)) == (3, 1)


def test_a_thread_pool_beside_python_has_each_stage_fork_afresh(large_files, monkeypatch,
                                                                 forks):
    # Where a thread that is not Python's runs (an unpinned BLAS pool's
    # worker), a stage kills a live helper and forks a fresh one, as the fork
    # shuts such a pool down.
    matrix, _ = large_files
    expected = _one_process(lambda: _tower(matrix))
    monkeypatch.setattr(core, "_pooled", lambda: True)
    assert _tower(matrix) == expected
    assert len(forks.tasks) == len(forks.made) == 3
    assert core._Helper.live.pid == forks.made[-1]
    assert all(_gone(pid) for pid in forks.made[:-1])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no list of threads")
def test_pooled_counts_the_threads_that_are_not_pythons(monkeypatch):
    monkeypatch.setattr(core.threading, "active_count", lambda: len(os.listdir("/proc/self/task")))
    assert not core._pooled()
    monkeypatch.setattr(core.threading, "active_count", lambda: 1)
    assert core._pooled() == (len(os.listdir("/proc/self/task")) > 1)
