"""Parity checks between the pure-Python kernel and the compiled one."""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from lambdakit import _kernel_py, kernel_backend

try:
    from lambdakit import _speedups
except ImportError:
    _speedups = None

needs_ext = pytest.mark.skipif(_speedups is None, reason="compiled kernel not built")
KERNELS = [_kernel_py] + ([_speedups] if _speedups is not None else [])


def test_pure_kernel_basics():
    assert _kernel_py.count_all(4, 2) == 90
    assert _kernel_py.count_split(3, 2) == (4, 2)
    assert _kernel_py.count_all(3, 0) == 1
    assert _kernel_py.count_all(2, 3) == 0
    assert _kernel_py.count_split(2, 0) == (0, 1)
    assert sum(_kernel_py.corner_census3(4)) == 18


@needs_ext
def test_compiled_backend_is_active():
    assert _speedups.BACKEND == "c"
    assert kernel_backend() == "c"


@needs_ext
def test_backends_agree_on_counts():
    for n in range(1, 6):
        for k in range(n + 2):  # include k = n + 1 (empty set)
            assert _speedups.count_all(n, k) == _kernel_py.count_all(n, k)
            assert _speedups.count_split(n, k) == _kernel_py.count_split(n, k)


@needs_ext
def test_backends_agree_on_census():
    for n in range(1, 7):  # n < 3 has no k = 3 matrix: all-zero tallies
        assert _speedups.corner_census3(n) == _kernel_py.corner_census3(n)


@needs_ext
@pytest.mark.parametrize("corner_only", [False, True])
def test_backends_agree_on_row_masks(corner_only):
    for n in range(1, 6):
        for k in range(n + 2):
            fast = list(_speedups.iter_row_masks(n, k, corner_only))
            assert fast == list(_kernel_py.iter_row_masks(n, k, corner_only)), (n, k)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda kernel: kernel.BACKEND)
@pytest.mark.parametrize("call", [
    lambda kernel, n: kernel.count_all(n, 2),
    lambda kernel, n: kernel.count_split(n, 2),
    lambda kernel, n: kernel.corner_census3(n),
    lambda kernel, n: kernel.iter_row_masks(n, 2),
    lambda kernel, n: kernel.iter_row_masks(n, 0, True),
], ids=["count_all", "count_split", "corner_census3", "iter_row_masks", "iter_row_masks_k0"])
@pytest.mark.parametrize("n", [0, 65])
def test_kernel_rejects_n_out_of_range(kernel, call, n):
    with pytest.raises(ValueError):
        call(kernel, n)


def test_iter_is_shared_and_ordered():
    masks = list(_kernel_py.iter_row_masks(3, 2))
    assert masks[0] == (0b011, 0b101, 0b110)
    assert len(masks) == 6
    if _speedups is not None:
        assert list(_speedups.iter_row_masks(3, 2)) == masks


@needs_ext
def test_compiled_sweep_stops_on_interrupt():
    # count_all(8, 3) would run for hours; Ctrl-C must end it promptly
    code = "from lambdakit import _speedups\nprint('go', flush=True)\n_speedups.count_all(8, 3)\n"
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), text=True)
    try:
        assert proc.stdout.readline() == "go\n"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert "KeyboardInterrupt" in err


def test_failed_compile_warns_once(tmp_path):
    # CC=false makes every compile fail; the build must still exit 0,
    # with exactly one warning and no extension
    root = Path(__file__).resolve().parents[1]
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(root / name, tmp_path)
    shutil.copytree(root / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=tmp_path, env={**os.environ, "CC": "false"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    warnings = [line for line in (proc.stdout + proc.stderr).splitlines() if "WARNING" in line]
    assert len(warnings) == 1 and "compiled kernel not built" in warnings[0]
    assert not list((tmp_path / "src").rglob("*.so"))
