"""The fan-out: ``map_ordered`` runs stripes of payloads in forked
children and returns their results in payload order; a failure is raised
once every child has been reaped, and a run that fails leaves no file.
Each stripe starts on its own CPU, free to move, and the caller's CPU
affinity is the same after the call however the call ends."""
import os
import signal
import subprocess
import sys

import pytest

from fibrelay import cli
from fibrelay._parallel import map_ordered
from fibrelay.cli import main

from conftest import child_env

PARENT = os.getpid()
# the CPUs this process may run on, where the platform can move it to one
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
# the masks this process has set since the test began (see `moves`)
MOVES = []


def _square(x):
    return x * x


def _fails_at(bad):
    def fn(x):
        if x in bad:
            raise ValueError(f"payload {x}")
        return x
    return fn


def _dies(how):
    """A function that ends its process at payload 1 in a child."""
    def fn(x):
        if x == 1 and os.getpid() != PARENT:
            if how == "exit":
                os._exit(9)
            os.kill(os.getpid(), signal.SIGKILL)
        return x
    return fn


def _interrupted(x):
    if x == 0:
        raise KeyboardInterrupt
    return x


def _placement(_):
    """The masks this stripe's process set, and the mask it runs under."""
    return list(MOVES), sorted(os.sched_getaffinity(0))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 7])
def test_results_in_payload_order(n, workers):
    assert map_ordered(_square, range(n), workers) == [x * x for x in range(n)]
    _assert_no_child_left()


def test_first_failure_in_payload_order():
    """Payloads 4 and 5 fail in the stripes of two children (and 3 in the
    caller's, at three workers): the first in payload order is raised."""
    for workers, bad, first in [(3, {4, 5}, 4), (3, {3, 5}, 3), (2, {5, 6}, 5)]:
        with pytest.raises(ValueError, match=f"payload {first}"):
            map_ordered(_fails_at(bad), range(7), workers)
        _assert_no_child_left()


@pytest.mark.parametrize("how,status", [("exit", "exit code 9"),
                                        ("kill", "killed by signal 9")])
def test_dead_worker_is_child_process_error(how, status):
    with pytest.raises(ChildProcessError, match=status):
        map_ordered(_dies(how), range(4), 2)
    _assert_no_child_left()


def test_serial_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert map_ordered(_square, range(5), 4) == [0, 1, 4, 9, 16]


@pytest.mark.skipif(len(CPUS) < 2, reason="needs sched_setaffinity and two allowed CPUs")
class TestPlacement:
    @pytest.fixture
    def moves(self, monkeypatch):
        """Record in MOVES each mask set, in whichever process sets it."""
        setaffinity = os.sched_setaffinity

        def record(pid, mask):
            MOVES.append(sorted(mask))
            setaffinity(pid, mask)
        monkeypatch.setattr(os, "sched_setaffinity", record)
        MOVES.clear()
        yield MOVES
        MOVES.clear()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_stripe_starts_on_its_own_cpu(self, workers, moves):
        """Stripe w moves to CPU w % len(CPUS), round-robin when stripes
        outnumber CPUs, and runs under the whole mask."""
        placements = map_ordered(_placement, range(workers), workers)
        assert placements == [([[CPUS[w % len(CPUS)]], CPUS], CPUS) for w in range(workers)]
        _assert_no_child_left()

    @pytest.mark.parametrize("fn,error", [
        (_square, None), (_fails_at({0}), ValueError), (_fails_at({3}), ValueError),
        (_interrupted, KeyboardInterrupt), (_dies("exit"), ChildProcessError),
        (_dies("kill"), ChildProcessError),
    ], ids=("success", "caller-raises", "child-raises", "interrupted", "child-exits",
            "child-killed"))
    def test_caller_mask_unchanged(self, fn, error):
        """The caller's mask after the call is the one this process started
        with, so a mask left behind by an earlier test shows too."""
        assert sorted(os.sched_getaffinity(0)) == CPUS
        if error is None:
            assert map_ordered(fn, range(4), 2) == [0, 1, 4, 9]
        else:
            with pytest.raises(error):
                map_ordered(fn, range(4), 2)
        assert sorted(os.sched_getaffinity(0)) == CPUS
        _assert_no_child_left()

    def test_one_cpu_moves_nothing(self, moves):
        """Under a one-CPU mask no stripe sets a mask and the results are
        unchanged; the test process gets its own mask back."""
        try:
            os.sched_setaffinity(0, {CPUS[-1]})
            moves.clear()
            placements = map_ordered(_placement, range(3), 3)
            squares = map_ordered(_square, range(7), 2)
        finally:
            os.sched_setaffinity(0, CPUS)
        assert placements == [([], [CPUS[-1]])] * 3
        assert squares == [x * x for x in range(7)]
        _assert_no_child_left()

    def test_unplaced_without_setaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity")
        assert map_ordered(_placement, range(2), 2) == [([], CPUS)] * 2
        _assert_no_child_left()


class TestCommands:
    @pytest.mark.parametrize("trajectories", [5, 7])
    def test_simulate_files_equal_at_any_worker_count(self, trajectories, tmp_path, capsys):
        """5 and 7 trajectories are not multiples of 2 or 3 workers."""
        files = {}
        for workers in (1, 2, 3):
            out = tmp_path / str(workers)
            rc = main(["simulate", "--model", "rayleigh:mu=1.0", "--gain", "0.6", "--n", "3000",
                       "--trajectories", str(trajectories), "--seed", "5",
                       "--workers", str(workers), "--output-dir", str(out)])
            assert rc == 0
            files[workers] = {p.name: p.read_bytes() for p in out.iterdir()
                              if p.name != "manifest.json"}
        assert len(files[1]) == trajectories
        assert files[1] == files[2] == files[3]
        _assert_no_child_left()

    @pytest.mark.parametrize("how,status", [("exit", "exit code 9"),
                                            ("kill", "killed by signal 9")])
    def test_dead_simulate_worker(self, how, status, tmp_path, monkeypatch, capsys):
        """A simulate worker that dies is one error line, exit 4, and no
        file; the caller's own stripe ran to the end."""
        write = cli._write_trajectories
        dies = _dies(how)
        monkeypatch.setattr(cli, "_write_trajectories",
                            lambda *args: dies(1) and write(*args))
        rc = main(["simulate", "--model", "rayleigh:mu=1.0", "--n", "200",
                   "--trajectories", "4", "--workers", "2", "--output-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: worker process") and status in err
        assert not list(tmp_path.iterdir())
        _assert_no_child_left()

    def test_dead_lyapunov_worker(self, monkeypatch, capsys):
        lyapunov = sys.modules["fibrelay.lyapunov"]
        logs_at = lyapunov.logs_at
        dies = _dies("exit")
        monkeypatch.setattr(lyapunov, "logs_at",
                            lambda *args, **kwargs: dies(1) and logs_at(*args, **kwargs))
        rc = main(["lyapunov", "--model", "rayleigh:mu=1.0", "--n", "1000",
                   "--replicas", "4", "--workers", "2"])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: worker process") and "exit code 9" in err
        _assert_no_child_left()

    @pytest.mark.parametrize("args", [
        ["lyapunov", "--model", "rayleigh:mu=1", "--n", "1000", "--replicas", "4"],
        ["simulate", "--model", "rayleigh:mu=1", "--n", "1000", "--trajectories", "4"],
    ], ids=("lyapunov", "simulate"))
    def test_fan_out_imports_no_process_pool(self, args, tmp_path):
        code = ("import sys, fibrelay.cli\n"
                "rc = fibrelay.cli.main(sys.argv[1:])\n"
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] in "
                "('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code, *args, "--workers", "2",
                              "--output-dir", str(tmp_path)],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "0 []"

