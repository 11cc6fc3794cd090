"""Golden CLI outputs, compared byte for byte.

Each case runs ``python -m thermsched`` in a fresh process and compares its
standard output with a file under ``tests/golden/``.  The N=400 documents
are about 3 MB, so only their SHA-256 digests are stored (``*.sha256``).
Never regenerate the goldens to make a change pass: a change that alters
them alters the schedules, and has to say why.

The last bits of the N=400 temperatures would depend on the BLAS thread
count (the Cholesky factor is blocked differently), so the program runs its
factor and solves on one thread of scipy's bundled OpenBLAS.  Every case
runs with one BLAS thread, as the benchmark does, and the N=400 cases run
again with two, which gives the same bytes.  Those bits are the SkylakeX
kernel's, which the bundled OpenBLAS picks on an AVX-512 CPU; on another
kernel five cases fail (ROADMAP item 6), so a failure names the kernel.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = ROOT / "src" / "thermsched" / "data"


def _inputs(floorplan: Path, power: Path) -> list[str]:
    return ["--floorplan", str(floorplan), "--power", str(power)]


DEMO15 = _inputs(DATA / "demo15.flp", DATA / "demo15.csv")
SYNTH400 = _inputs(GOLDEN / "synth400.flp", GOLDEN / "synth400.csv")

DENSITY = _inputs(DATA / "density_contrast.flp", DATA / "density_contrast.csv")

# golden file -> CLI arguments.  The single runs discard sessions, so the
# weight feedback is pinned too; the N=400 limits are perfbench/synth.py's
# tight and loose limits for its canonical die.  The density_contrast sweep
# steps both limits by 1, so most of its points repeat an earlier point's
# decisions.
CASES = {
    "demo15_sweep.csv": DEMO15 + ["--sweep-tl", "145:185:5", "--sweep-stcl", "20:100:10"],
    "demo15_tl165_stcl100.json": DEMO15 + ["--tl", "165", "--stcl", "100"],
    "density_contrast_sweep.csv": DENSITY + ["--sweep-tl", "72:112:1", "--sweep-stcl", "5:60:1"],
    "density_contrast_tl90_stcl100.json": DENSITY + ["--tl", "90", "--stcl", "100"],
    "synth400_tight.json.sha256": SYNTH400 + ["--tl", "120.218", "--stcl", "13.2657"],
    "synth400_loose.json.sha256": SYNTH400 + ["--tl", "185.218", "--stcl", "212.251"],
}


def _kernel_note() -> str:
    """A failure's note: the kernel that scipy's bundled OpenBLAS picked for
    this CPU, as its ``scipy_openblas_get_corename`` reports it, or
    "unknown" without one."""
    kernel = "unknown"
    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob(
        "libscipy_openblas*"
    )):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        kernel = corename().decode()
        break
    return (f"OpenBLAS kernel {kernel}; the goldens hold the SkylakeX kernel's bits "
            "(ROADMAP item 6)")


def _run_cli(argv: list[str], blas_threads: int = 1) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    proc = subprocess.run(
        [sys.executable, "-m", "thermsched", *argv],
        capture_output=True, env=env, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("golden", sorted(CASES))
def test_cli_output_matches_golden(golden):
    output = _run_cli(CASES[golden])
    expected = (GOLDEN / golden).read_bytes()
    if golden.endswith(".sha256"):
        assert hashlib.sha256(output).hexdigest() == expected.decode().strip(), _kernel_note()
    else:
        assert output == expected, _kernel_note()


@pytest.mark.parametrize("golden", [g for g in sorted(CASES) if g.startswith("synth400")])
def test_n400_documents_do_not_depend_on_the_blas_thread_count(golden):
    output = _run_cli(CASES[golden], blas_threads=2)
    expected = (GOLDEN / golden).read_text().strip()
    assert hashlib.sha256(output).hexdigest() == expected, _kernel_note()
