"""The entry point `cli.run`: the bytes and exit code of `cli.main`, and one-line errors for a stdout that cannot be written.

`python -m stsdecay` and the `stsdecay` script end through `run`, which runs
the exit handlers, flushes stdout and stderr, and skips the interpreter's
teardown with `os._exit`.
"""

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_lazy_imports import _BLOCK_NUMPY

import stsdecay
from stsdecay import cli

_SRC = str(Path(stsdecay.__file__).resolve().parents[1])

_STATE = ["--n1", "1", "--n2", "0.5", "--r", "1"]
_REPORT = ["report", *_STATE]
# 20,000 JSON rows: about 4 MB, more than a pipe buffer holds.
_EVOLVE = ["evolve", *_STATE, "--single-bath", "--nr", "0.2", "--t-end", "3", "--points", "20000", "--format", "json"]

# `python -m stsdecay` with numpy blocked: argv after the source.
_BLOCKED_MODULE = _BLOCK_NUMPY + "import runpy; runpy.run_module('stsdecay', run_name='__main__', alter_sys=True)"


def _env(unbuffered):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn(command, unbuffered=False, **kwargs):
    """``python command...`` on this checkout; stdout and stderr are captured unless given."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *command], env=_env(unbuffered), timeout=120, **kwargs)


def _in_process(argv, capsys, monkeypatch):
    """Exit code, stdout and stderr of ``cli.main(argv)``, which must not end the process."""

    def refuse(code):
        raise AssertionError(f"os._exit({code}) called in-process")

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(os, "_exit", refuse)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


_SEPARABLE_ESD = ["esd", "--n1", "0.1", "--n2", "0.1", "--r", "0.01", "--identical", "--nr", "1"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, want",
    [
        (_EVOLVE, 0),
        (["report", "--n1", "-1", "--n2", "0.5", "--r", "1"], 2),
        (_SEPARABLE_ESD, 3),
        (["--help"], 0),
        (["esd", "--no-such-flag"], 2),
    ],
    ids=["evolve_20000_json", "invalid_input", "separable_esd", "help", "usage_error"],
)
def test_module_prints_what_main_prints(argv, want, unbuffered, capsys, monkeypatch):
    proc = _spawn(["-m", "stsdecay", *argv], unbuffered)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys, monkeypatch)
    assert proc.returncode == want


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_module_writes_the_out_file_that_main_writes(unbuffered, tmp_path, capsys, monkeypatch):
    proc = _spawn(["-m", "stsdecay", *_EVOLVE, "--out", str(tmp_path / "module.json")], unbuffered)
    want = _in_process([*_EVOLVE, "--out", str(tmp_path / "main.json")], capsys, monkeypatch)
    assert (proc.returncode, proc.stdout, proc.stderr) == want == (0, b"", b"")
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_module_without_numpy_prints_what_main_prints(capsys, monkeypatch):
    proc = _spawn(["-c", _BLOCKED_MODULE, "verify"])
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(["verify"], capsys, monkeypatch)
    assert proc.returncode == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_exit_handlers_run_after_the_command(unbuffered, capsys, monkeypatch):
    source = "import atexit, sys; atexit.register(print, 'handler'); from stsdecay import cli; cli.run()"
    proc = _spawn(["-c", source, *_REPORT], unbuffered)
    code, out, err = _in_process(_REPORT, capsys, monkeypatch)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out + b"handler\n", err) == (0, out + b"handler\n", b"")


# `cli.run` with a `main` that imports numpy and prints the process's threads
# and the BLAS thread setting.
_THREADS = """import os
from stsdecay import cli
def main():
    import numpy
    print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
    return 0
cli.main = main
cli.run()
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) == 1, reason="needs /proc/self/task and 2 CPUs"
)
@pytest.mark.parametrize("setting", [None, "2"], ids=["unset", "set_by_the_user"])
def test_run_starts_no_blas_thread_pool_unless_asked(setting):
    pytest.importorskip("numpy")
    env = _env(False)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run([sys.executable, "-c", _THREADS], capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    threads, kept = proc.stdout.split()
    if setting is None:
        assert (threads, kept) == (b"1", b"1")
    else:
        assert kept == setting.encode()


# -- a stdout that cannot be written -------------------------------------------


def _broken_pipe():
    """The write end of a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    return write


def _full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    return os.open("/dev/full", os.O_WRONLY)


# The short report fails when run flushes stdout, unless stdout is
# unbuffered; the long evolve fails at a write inside main.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [_REPORT, _EVOLVE], ids=["report", "evolve_20000_json"])
@pytest.mark.parametrize(
    "target, err",
    [(_full_device, errno.ENOSPC), (_broken_pipe, errno.EPIPE)],
    ids=["dev_full", "broken_pipe"],
)
def test_a_failed_write_to_stdout_is_one_line_and_exit_code_2(target, err, argv, unbuffered):
    fd = target()
    try:
        proc = _spawn(["-m", "stsdecay", *argv], unbuffered, stdout=fd)
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr.decode()) == (2, f"error: cannot write stdout: {os.strerror(err)}\n")


def test_a_closed_stdout_is_one_line_and_exit_code_2():
    proc = _spawn(["-m", "stsdecay", *_REPORT], stdout=None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (2, b"error: cannot write stdout: it is closed\n")


# -- an error line that stderr cannot take ------------------------------------


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_refusal_with_stderr_closed_keeps_exit_code_2(unbuffered):
    argv = ["report", "--n1", "-1", "--n2", "0.5", "--r", "1"]
    proc = _spawn(["-m", "stsdecay", *argv], unbuffered, preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (2, b"")


# esd's note that a zero-temperature bath brings no sudden death goes to
# stderr ahead of the table; closed or full, stderr drops it, and the table
# and exit code 0 stand.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr", ["closed", "dev_full"])
def test_esd_note_that_stderr_cannot_take_keeps_the_table(stderr, unbuffered):
    argv = ["esd", "--n1", "10", "--n2", "0.1", "--r", "2", "--identical", "--nr", "0"]
    if stderr == "closed":
        proc = _spawn(["-m", "stsdecay", *argv], unbuffered, preexec_fn=lambda: os.close(2))
    else:
        fd = _full_device()
        try:
            proc = _spawn(["-m", "stsdecay", *argv], unbuffered, stderr=fd)
        finally:
            os.close(fd)
    assert (proc.returncode, proc.stdout) == (0, b"t_s\nasymptotic-only\n")


# The evolve fails at a write to stdout, and its error line fails on the same pipe.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_failed_write_with_stderr_on_the_same_broken_pipe_is_exit_code_2(unbuffered):
    fd = _broken_pipe()
    try:
        proc = _spawn(["-m", "stsdecay", *_EVOLVE], unbuffered, stdout=fd, stderr=fd)
    finally:
        os.close(fd)
    assert proc.returncode == 2


# Output written before the command waits in stdout's buffer when the
# command's first write fails.  Neither run's flush nor, without run, the
# interpreter's flush at exit may retry it and print a second error.
@pytest.mark.parametrize("end", ["cli.run()", "sys.exit(cli.main(sys.argv[1:]))"], ids=["run", "main"])
def test_a_failed_write_in_main_leaves_nothing_pending(end):
    source = f"import sys; from stsdecay import cli; sys.stdout.write('pending'); {end}"
    fd = _full_device()
    try:
        proc = _spawn(["-c", source, *_EVOLVE], stdout=fd)
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr.decode()) == (2, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


# -- an --out file that cannot be written --------------------------------------


# The short report fails when its file is closed, the long evolve at a write.
@pytest.mark.parametrize("argv", [_REPORT, _EVOLVE], ids=["report", "evolve_20000_json"])
def test_a_failed_write_to_an_out_device_is_one_line_and_exit_code_2(argv, capsys, monkeypatch):
    os.close(_full_device())
    code, out, err = _in_process([*argv, "--out", "/dev/full"], capsys, monkeypatch)
    assert (code, out, err.decode()) == (2, b"", f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n")


def test_an_out_path_that_cannot_be_renamed_to_is_one_line_and_exit_code_2(tmp_path):
    # The empty path: the temporary file is written in the working directory,
    # and renaming it over "" fails.
    proc = _spawn(["-m", "stsdecay", *_REPORT, "--out", ""], cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == f"error: cannot write : {os.strerror(errno.ENOENT)}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_to_a_regular_out_file_leaves_no_temporary_file(tmp_path):
    resource = pytest.importorskip("resource")
    target = tmp_path / "out.json"
    target.write_text("old\n")

    def limit_file_size():
        # Writes past 4 kB fail with EFBIG; the interpreter ignores SIGXFSZ.
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096 if hard == resource.RLIM_INFINITY else min(4096, hard), hard))

    proc = _spawn(["-m", "stsdecay", *_EVOLVE, "--out", str(target)], preexec_fn=limit_file_size)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == f"error: cannot write {target}: {os.strerror(errno.EFBIG)}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out.json"]
    assert target.read_text() == "old\n"
