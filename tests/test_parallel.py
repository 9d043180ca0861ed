"""The fan-out: ``map_ordered`` runs stripes of payloads in forked
children and returns their results in payload order; a failure is raised
once every child has been reaped, and a run that fails leaves no file."""
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
        """A simulate worker that dies is one error line, exit 2 (an
        OSError), and no file; the caller's own stripe ran to the end."""
        worker = cli._simulate_worker
        dies = _dies(how)
        monkeypatch.setattr(cli, "_simulate_worker",
                            lambda payload: dies(1) and worker(payload))
        rc = main(["simulate", "--model", "rayleigh:mu=1.0", "--n", "200",
                   "--trajectories", "4", "--workers", "2", "--output-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: worker process") and status in err
        assert not list(tmp_path.iterdir())
        _assert_no_child_left()

    def test_dead_lyapunov_worker(self, monkeypatch, capsys):
        lyapunov = sys.modules["fibrelay.lyapunov"]
        rate = lyapunov._rate_replicas
        dies = _dies("exit")
        monkeypatch.setattr(lyapunov, "_rate_replicas",
                            lambda payload: dies(1) and rate(payload))
        rc = main(["lyapunov", "--model", "rayleigh:mu=1.0", "--n", "1000",
                   "--replicas", "4", "--workers", "2"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
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

