"""Golden outputs: every file, stdout and exit code of a fixed command matrix.

The commands run through cli.main in one process on synthetic inputs drawn
from fixed seeds: K=10 with 2000 calibration and 4000 test rows, K=100 with
1000 rows each, a 20k-row binary mixture and a fig2-imbalanced preset. The
matrix covers fits under every method, strategy, grouping and rep strategy,
every apply, evals under each scheme and tie break with thresholds,
--bootstrap and --csv, and mi-reports. The SHA-256 of each output file and
of each command's stdout, and each exit code, must equal tests/golden.json.

The hashes hold for one numpy build and one set of dispatched SIMD targets,
which the manifest records: a float result may differ in its last bits
under another. On another build the test fails and names both builds,
since it cannot tell a changed output from a changed build there.

A change that moves an output on purpose regenerates the manifest, and says
which entries moved and why:

    PYTHONPATH=src python tests/test_golden.py

It prints one line per entry that differs from the manifest it replaces,
before it writes the new one.
"""

import hashlib
import json
import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from imaxcal import cli
from imaxcal.cli import main

MANIFEST = pathlib.Path(__file__).with_name("golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"

_SYNTH = [
    ("synth-c10", "synth --multiclass --k 10 --tgen 0.5 --n 2000 --seed 1 --out-prefix c10"),
    ("synth-t10", "synth --multiclass --k 10 --tgen 0.5 --n 4000 --seed 2 --out-prefix t10"),
    ("synth-c100", "synth --multiclass --k 100 --tgen 2.0 --n 1000 --seed 3 --out-prefix c100"),
    ("synth-t100", "synth --multiclass --k 100 --tgen 2.0 --n 1000 --seed 4 --out-prefix t100"),
    ("synth-bin", "synth --n 20000 --mu-pos 0.5 --sigma-neg 2 --seed 5 --out-prefix bin"),
    ("synth-fig2", "synth --preset fig2-imbalanced --n 20000 --seed 6 --out-prefix fig2"),
]

# bundle name -> fit flags, fitted on the K=10 calibration split
_FITS = {
    "imax-scw": "--bins 8",
    "imax-cw": "--bins 8 --strategy cw",
    "imax-prior3": "--groups 3 --seed 7",
    "imax-explicit": "--groups 0-1,2-4,5-9",
    "imax-raw": "--rep-strategy raw-prob-mean",
    "eq-mass": "--method eq_mass --bins 10 --holdout-frac 0.25 --seed 2",
    "eq-size": "--method eq_size --strategy cw",
    "temperature": "--method temperature",
    "platt": "--method platt",
    "imax-temperature": "--scaler temperature",
    "imax-platt": "--scaler platt --bins 6",
}

_EVALS = [
    ("eval-bundle", "eval t10-scores.csv t10-labels.csv --bundle imax-scw.json"
     " -o r-bundle.json --csv r-bundle.csv"),
    ("eval-file", "eval cal-imax-scw.csv t10-labels.csv -o r-file.json --csv r-file.csv"),
    ("eval-eq-mass", "eval cal-temperature.csv t10-labels.csv --eval-scheme eq_mass"
     " --eval-bins 10 --eval-bins 30 -o r-eq-mass.json"),
    ("eval-kmeans", "eval cal-imax-prior3.csv t10-labels.csv --eval-scheme kmeans --eval-bins 15"
     " --seed 3 -o r-kmeans.json"),
    ("eval-imax", "eval cal-platt.csv t10-labels.csv --eval-scheme imax --eval-bins 8"
     " -o r-imax.json"),
    ("eval-exact", "eval cal-imax-cw.csv t10-labels.csv --eval-scheme exact"
     " --cw-threshold zero,one-over-k --cw-threshold half --cw-threshold 0.3"
     " --cw-threshold prior --top-k 1,3 -o r-exact.json --csv r-exact.csv"),
    ("eval-bootstrap", "eval t10-scores.csv t10-labels.csv --bundle imax-explicit.json"
     " --bootstrap 4 --seed 9 -o r-bootstrap.json --csv r-bootstrap.csv"),
    ("eval-scaler-bundle", "eval t10-scores.csv t10-labels.csv --bundle imax-platt.json"
     " --eval-scheme eq_size --bootstrap 3 -o r-scaler-bundle.json"),
    ("eval-tie-bundle", "eval t10-scores.csv t10-labels.csv --bundle eq-size.json"
     " --tie-break raw-logit -o r-tie-bundle.json"),
    ("eval-tie-raw", "eval cal-eq-size.csv t10-labels.csv --raw-scores t10-scores.csv"
     " --tie-break raw-logit --eval-scheme exact -o r-tie-raw.json"),
    ("eval-holdout", "eval eq-mass.holdout-scores.csv eq-mass.holdout-labels.csv"
     " --bundle eq-mass.json --csv r-holdout.csv"),
    ("eval-k100", "eval t100-scores.csv t100-labels.csv --bundle k100-prior5.json"
     " --top-k 1,5,10 -o r-k100.json"),
]


def commands():
    """(name, argv) of every command, in run order; paths are relative to
    the run directory."""
    runs = list(_SYNTH)
    for name, flags in _FITS.items():
        runs.append((f"fit-{name}", f"fit c10-scores.csv c10-labels.csv -o {name}.json {flags}"))
    runs.append(("fit-k100-prior5", "fit c100-scores.csv c100-labels.csv -o k100-prior5.json"
                 " --groups 5 --bins 10"))
    runs.append(("fit-k100-cw", "fit c100-scores.csv c100-labels.csv -o k100-cw.json"
                 " --method eq_mass --strategy cw --bins 5"))
    for name in _FITS:
        runs.append((f"apply-{name}", f"apply {name}.json t10-scores.csv -o cal-{name}.csv"))
    runs.append(("apply-k100-cw", "apply k100-cw.json t100-scores.csv -o cal-k100-cw.csv"))
    runs.extend(_EVALS)
    runs.append(("mi-report-bin", "mi-report bin-scores.csv bin-labels.csv --bins 2,4,8"))
    runs.append(("mi-report-fig2", "mi-report fig2-scores.csv fig2-labels.csv --bins 3"
                 " --bins 12 --method imax,eq_mass --seed 4 -o mi-fig2.csv"))
    runs.append(("reject-bins", "fit c10-scores.csv c10-labels.csv -o x.json --bins 1"))
    runs.append(("reject-bootstrap", "eval cal-platt.csv t10-labels.csv --bootstrap -1"))
    return [(name, argv.split()) for name, argv in runs]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def build():
    """The numpy version and SIMD targets this process dispatches to."""
    from numpy._core import _multiarray_umath as umath

    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "simd": simd}


def run_matrix(root, read_stdout):
    """Run every command in root; return its exit codes, stdout hashes and
    the hash of every file left in root. read_stdout() returns the text
    written to stdout since its last call."""
    exits, stdout = {}, {}
    root = pathlib.Path(root)
    for name, argv in commands():
        read_stdout()
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(root)
            exits[name] = main(argv)
        stdout[name] = _sha256(read_stdout().encode())
    files = {p.name: _sha256(p.read_bytes()) for p in sorted(root.iterdir())}
    return {"exit": exits, "stdout": stdout, "files": files}


def moved_entries(expected, got):
    """Each "part name" whose exit code or hash differs between two
    manifests, or that only one of them has."""
    return [
        f"{part} {name}"
        for part in ("exit", "stdout", "files")
        for name in sorted(set(expected.get(part, {})) | set(got[part]))
        if expected.get(part, {}).get(name) != got[part].get(name)
    ]


def _check_matrix(root, capsys):
    expected = json.loads(MANIFEST.read_text())
    if expected["build"] != build():
        pytest.fail(
            f"golden hashes were recorded under {expected['build']}, this is {build()};"
            f" they say nothing here. Regenerate at the parent commit with {REGENERATE},"
            " then compare this change against that manifest"
        )
    got = run_matrix(root, lambda: capsys.readouterr().out)
    moved = moved_entries(expected, got)
    assert not moved, f"outputs differ from {MANIFEST.name}: {moved}; if on purpose, {REGENERATE}"


def test_every_output_matches_the_manifest(tmp_path, capsys):
    _check_matrix(tmp_path, capsys)


def test_every_output_matches_the_manifest_under_the_split_reader(tmp_path, capsys, monkeypatch):
    # every input file of more than one line is parsed in two parts, one of
    # them in a forked process
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(cli, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted_fork)
    _check_matrix(tmp_path, capsys)
    assert len(forks) > len(commands())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


if __name__ == "__main__":
    import contextlib
    import io

    buffer = io.StringIO()

    def read_stdout():
        text = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return text

    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stdout(buffer):
        manifest = {"build": build(), **run_matrix(root, read_stdout)}
    previous = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for entry in moved_entries(previous, manifest):
        print(f"moved {entry}")
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}: {len(manifest['files'])} files, {len(manifest['exit'])} commands")
    sys.exit(0)
