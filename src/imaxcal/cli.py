"""Batch command-line interface.

Subcommands: fit, apply, eval, synth, mi-report. Files are headerless CSV
(scores: N x K floats; labels: N x 1 integers); calibrators travel as strict
JSON bundles. Exit codes: 0 success, 2 usage error, 3 data error, 4 fit
failure. Diagnostics go to stderr as single-line key=value records.
"""

import contextlib
import inspect
import io
import json
import os
import stat
import sys
import threading
import time
import warnings
from dataclasses import replace

import click
import numpy as np
from click.core import ParameterSource

from . import bundle as bundle_mod
from . import info as info_mod
from . import synth as synth_mod
from .binning import (
    BINNING_METHODS,
    METHOD_IMAX,
    REP_EMPIRICAL_FREQ,
    REP_RAW_PROB_MEAN,
    ImaxConfig,
    fit_edges,
)
from .data import (
    PROBABILITIES,
    RAW_LOGITS,
    PredictionMatrix,
    ovr_set,
    row_blocks,
)
from .errors import DataError, FitError
from .metrics import (
    EVAL_SCHEMES,
    NAMED_THRESHOLDS,
    EvalConfig,
    SCHEME_EQ_SIZE,
    SCHEME_EXACT,
    SCHEME_IMAX,
    THRESHOLD_CLASS_PRIOR,
    TIE_CLASS_INDEX,
    TIE_RAW_LOGIT,
    RowStats,
    build_report,
    reports_csv,
)
from .scaling import KIND_PLATT, KIND_TEMPERATURE

_KIND_BY_FLAG = {"logits": RAW_LOGITS, "probs": PROBABILITIES}
_REP_FLAGS = (REP_EMPIRICAL_FREQ, REP_RAW_PROB_MEAN)
_TIE_BREAKS = (TIE_CLASS_INDEX, TIE_RAW_LOGIT)
# fit's --strategy and --rep-strategy default to these keywords' defaults
_FIT_KEYWORDS = inspect.signature(bundle_mod.fit_bundle).parameters


def _one_line(value):
    """str(value) on one line, with its double quotes made single."""
    return str(value).replace("\n", "; ").replace('"', "'")


def diag(**kv):
    """Single-line key=value diagnostic on stderr."""
    parts = []
    for key, value in kv.items():
        text = _one_line(value)
        parts.append(f'{key}="{text}"' if " " in text or text == "" else f"{key}={text}")
    print(" ".join(parts), file=sys.stderr)


def _load(source) -> np.ndarray:
    return np.loadtxt(source, delimiter=",", dtype=np.float64, ndmin=2)


# A regular file of at least 2 * _SPLIT_BYTES = 4 MiB is cut in two at a
# line break, and each half is parsed by its own process, where two CPUs are
# usable. Parsing 17-digit values costs 15-25 ms per MiB; the fork, the pipe
# back and the reaping add a few ms. On a shared 2-vCPU machine (median of
# 15 pairs, K = 10 and 100) two parts took 0.8-1.5x the serial time at
# 1 MiB, 0.9-1.2x at 2-3 MiB and 0.63-0.69x from 4 MiB on. More than two
# parts were never measured; the CPU count is the affinity mask, which does
# not see a cgroup's CPU quota, so one child also bounds how many processes
# such a quota's CPUs are shared by.
_SPLIT_BYTES = 2 << 20
# numpy opens these through a decompressor, so their bytes are not the text;
# _write_matrix writes plain text, so apply -o refuses them too
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class _ByteRange(io.RawIOBase):
    """Bytes [start, stop) of an open file descriptor, read by offset, so
    processes that share the descriptor share no file position."""

    def __init__(self, fd, start, stop):
        super().__init__()
        self.fd, self.at, self.stop = fd, start, stop

    def readable(self):
        return True

    def readinto(self, buffer):
        data = os.pread(self.fd, min(len(buffer), self.stop - self.at), self.at)
        buffer[: len(data)] = data
        self.at += len(data)
        return len(data)


def _parse_range(fd, start, stop) -> np.ndarray:
    """The rows of bytes [start, stop) of fd, decoded as open(path) decodes
    them: default encoding, strict errors, universal newlines. A warning,
    such as numpy's for a part without rows, fails the part, so whatever a
    file warns of is warned once, by the serial parse."""
    text = io.TextIOWrapper(io.BufferedReader(_ByteRange(fd, start, stop)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _load(text)


def _cut(fd, size):
    """The offset just after the first b"\\n" at or past the middle of a file
    of size bytes, or None where no such offset lies before the end. Every
    encoding open() takes by default encodes "\\n" as that one byte and no
    other character with it, so the two ranges decode to the file's text,
    cut between lines."""
    at = size // 2
    while at < size and (chunk := os.pread(fd, 1 << 16, at)):
        newline = chunk.find(b"\n")
        if newline >= 0:
            at += newline + 1
            return at if at < size else None
        at += len(chunk)
    return None


def _fork_part(fd, start, stop):
    """(pid, read end of a pipe) of a forked process that parses bytes
    [start, stop) of fd and writes the part's shape as two int64s, then its
    float64 values. It exits non-zero, having written less, if the part
    fails."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 and later warn of the BLAS pool's threads, in the
            # parent once the child exists (see _split_read)
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            part = _parse_range(fd, start, stop)
            with open(w, "wb") as pipe:
                pipe.write(np.array(part.shape, dtype=np.int64).tobytes())
                pipe.write(part.data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _gather(fd, cut, r):
    """Bytes [0, cut) parsed here, then the forked part's rows read from r
    after them into one matrix; None if a part has no rows or the column
    counts differ, EOFError if the rows end early. A shape cut short reads
    as zeros in its missing bytes."""
    first = _parse_range(fd, 0, cut)
    with open(r, "rb", closefd=False) as pipe:
        shape = np.zeros(2, dtype=np.int64)
        pipe.readinto(shape)
        n, k = shape.tolist()
        if min(len(first), n) < 1 or k != first.shape[1]:
            return None
        out = np.empty((len(first) + n, k))
        out[: len(first)] = first
        rest = out[len(first) :]
        if pipe.readinto(rest) < rest.nbytes:
            raise EOFError("a part ended early")
    return out


def _split_read(path):
    """The matrix of path parsed in two parts (see _SPLIT_BYTES), or None
    where the file is not split or the parts disagree with each other.

    Only a regular, uncompressed file is split, and only where os.fork
    exists, more than one CPU is usable and this process runs no other
    Python thread, which could hold a lock that a forked copy needs. Only
    Python threads are counted: the OS threads of numpy's BLAS pool are
    left running, and that is safe because a forked process runs nothing
    but np.loadtxt, which calls no BLAS, before os._exit. So the warning
    of those threads that os.fork gives from Python 3.12 on is ignored;
    under -W error it would otherwise raise in the parent after the child
    was made, and leave that child unreaped. The first part is parsed here
    while one forked process streams the second and sends back its shape
    and bytes, so no process holds more than a part's text and values. The
    forked process is reaped before this returns, and killed first if its
    part is not read in full.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return None
    if threading.active_count() > 1:
        return None
    try:
        info = os.stat(path)
    except (OSError, ValueError):
        return None
    if len(os.sched_getaffinity(0)) < 2 or info.st_size < 2 * _SPLIT_BYTES:
        return None
    if not stat.S_ISREG(info.st_mode) or str(path).endswith(_COMPRESSED):
        return None
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    child, matrix = None, None
    try:
        cut = _cut(fd, info.st_size)
        if cut is None:
            return None
        child = _fork_part(fd, cut, info.st_size)
        matrix = _gather(fd, cut, child[1])
    except Exception:
        # whatever failed, the serial parse reports it, or reads the file
        return None
    finally:
        if child is not None:
            pid, r = child
            os.close(r)
            if matrix is None:
                os.kill(pid, 9)  # SIGKILL, without adding signal to the start-up imports
            if os.waitpid(pid, 0)[1] != 0:
                matrix = None
        os.close(fd)
    return matrix


def _read_matrix(path) -> np.ndarray:
    """The float64 matrix np.loadtxt reads from path, or a DataError.

    A large regular file is parsed in two parts where two CPUs are usable
    (see _split_read); a part that fails or disagrees sends the whole file
    through the serial parse, so every input gets the serial result or the
    serial error.
    """
    arr = _split_read(path)
    if arr is not None:
        return arr
    try:
        with warnings.catch_warnings():
            # an empty file is reported below as a data error, not also as
            # numpy's warning
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            arr = _load(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"parse failure in {path}: {exc}") from exc
    if arr.size == 0:
        raise DataError(f"{path} is empty")
    return arr


def _read_labels(path) -> np.ndarray:
    """The one column of a labels file; data.check_labels checks its values."""
    arr = _read_matrix(path)
    if arr.shape[1] != 1:
        raise DataError(f"labels file {path} must have one column")
    return arr[:, 0]


@contextlib.contextmanager
def _output(path, mode="w"):
    """path opened as text in mode; a path that cannot be opened or written
    is a DataError."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _check_outputs(*paths):
    """Each output path that is not None opened for appending and closed,
    before any input is read: a path that cannot be written fails the
    command before it does any work, and no byte of a file that existed
    changes. Two paths that resolve to one file are a usage error before
    any file is made, unless it exists and is not a regular file, such as
    /dev/null. The real path of each path that did not exist, the target of
    a dangling link included, joins the list of created files that main
    passes to the command as its context's obj."""
    files = [p for p in paths if p is not None and (os.path.isfile(p) or not os.path.exists(p))]
    real = [os.path.realpath(p) for p in files]
    if len(set(real)) < len(real):
        raise click.UsageError(f"two of the outputs {files} are one file")
    ctx = click.get_current_context(silent=True)
    created = [] if ctx is None or ctx.obj is None else ctx.obj
    for path in paths:
        if path is not None:
            made = None if os.path.exists(path) else os.path.realpath(path)
            with _output(path, "a"):
                if made is not None:
                    created.append(made)


def _write_matrix(path, matrix):
    """Headerless CSV with every value written by repr, so it round-trips:
    an integer matrix as int64 digits, any other as float64.

    Each block of rows formats each distinct value once: calibrated
    matrices hold few distinct values. Values are told apart by their bits,
    so -0.0 keeps its own text. Each token of a block's table carries the
    separator that follows it, a comma or, in the last column, a newline, so
    the block is written by one join.
    """
    matrix = np.asarray(matrix)
    dtype = np.int64 if np.issubdtype(matrix.dtype, np.integer) else np.float64
    matrix = matrix.astype(dtype, copy=False)
    with _output(path) as fh:
        for rows in row_blocks(*matrix.shape):
            bits = np.ascontiguousarray(matrix[rows]).view(np.uint64)
            keys, inverse = np.unique(bits, return_inverse=True)
            at = inverse.reshape(bits.shape)
            last_keys, last_at = np.unique(at[:, -1], return_inverse=True)
            at[:, -1] = keys.size + last_at
            text = list(map(repr, keys.view(dtype).tolist()))
            tokens = [t + "," for t in text] + [text[i] + "\n" for i in last_keys.tolist()]
            fh.write("".join(np.array(tokens, dtype=object)[at].ravel().tolist()))


def _parse_multi(values, parse, what, once=True):
    """The comma-separated tokens of a repeatable flag's values, each read by
    parse, whose ValueError is a usage error. With once, a value repeated
    after names and aliases resolve counts once. A flag given only empty
    values is a usage error."""
    out = []
    for value in values:
        for token in str(value).split(","):
            token = token.strip()
            if not token:
                continue
            try:
                out.append(parse(token))
            except ValueError as exc:
                raise click.UsageError(f"bad {what} value {token!r}") from exc
    if not out:
        raise click.UsageError(f"no {what} value in {list(values)!r}")
    return list(dict.fromkeys(out)) if once else out


def _flag_config(build, **flags):
    """build(**flags), a config made of flag values or a check of them: the
    DataError its checks raise is a usage error."""
    try:
        return build(**flags)
    except DataError as exc:
        raise click.UsageError(str(exc)) from exc


def _given(param):
    """Whether the current command's flag param was given, not left at its
    default."""
    source = click.get_current_context().get_parameter_source(param)
    return source is not ParameterSource.DEFAULT


def _name(token, allowed, what, aliases=None):
    """The name in allowed that a flag value spells: '-' reads as '_', and
    aliases maps the flag's short names to full ones."""
    name = token.replace("-", "_")
    name = (aliases or {}).get(name, name)
    if name not in allowed:
        raise click.UsageError(f"unknown {what} {token!r}")
    return name


def _threshold(token):
    """A --cw-threshold token: a number, else a named threshold."""
    try:
        return float(token)
    except ValueError:
        return _name(token, NAMED_THRESHOLDS, "threshold", {"prior": THRESHOLD_CLASS_PRIOR})


def _group(token):
    """The classes of one --groups token: an index, or lo-hi for lo to hi."""
    if "-" not in token:
        return (int(token),)
    lo, _, hi = token.partition("-")
    group = tuple(range(int(lo), int(hi) + 1))
    if not group:
        raise ValueError(token)
    return group


def _parse_groups(text):
    """A --groups value as fit's groups_spec; explicit groups keep repeats, which overlap."""
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        return _parse_multi([text], _group, "--groups", once=False)


@click.group(context_settings={"show_default": True})
def cli():
    """Post-hoc confidence calibration: binning, scaling, evaluation."""


@cli.command("fit")
@click.argument("scores_csv", type=click.Path())
@click.argument("labels_csv", type=click.Path())
@click.option("-o", "--out", required=True, type=click.Path(), help="Bundle JSON path.")
@click.option("--method", default=METHOD_IMAX, help=" | ".join(bundle_mod.FIT_METHODS))
@click.option("--bins", default=ImaxConfig.n_bins, help="Number of bins M.")
@click.option("--strategy", default=_FIT_KEYWORDS["strategy"].default,
              type=click.Choice([bundle_mod.STRATEGY_CW, bundle_mod.STRATEGY_SCW]),
              help="Per-class (cw) or shared (scw) calibrators.")
@click.option(
    "--groups",
    default=None,
    help="scw only: group count (prior quantiles) or explicit groups like 0-1,2-4,5-9.",
)
@click.option(
    "--scaler",
    default="none",
    type=click.Choice(["none", KIND_TEMPERATURE, KIND_PLATT]),
    help="Scaler for imax_with_scaler representatives.",
)
@click.option("--seed", default=ImaxConfig.seed)
@click.option("--input-kind", default="logits", type=click.Choice(list(_KIND_BY_FLAG)))
@click.option("--holdout-frac", default=0.0,
              help="Class-balanced holdout fraction, written next to the bundle.")
@click.option("--rep-strategy", default=_FIT_KEYWORDS["rep_strategy"].default,
              help=f"{' | '.join(_REP_FLAGS)} for binning methods.")
def cmd_fit(
    scores_csv,
    labels_csv,
    out,
    method,
    bins,
    strategy,
    groups,
    scaler,
    seed,
    input_kind,
    holdout_frac,
    rep_strategy,
):
    """Fit a calibrator bundle from scores and labels."""
    method = _name(method, bundle_mod.FIT_METHODS, "method")
    rep = _name(rep_strategy, _REP_FLAGS, "rep strategy")
    if not 0.0 <= holdout_frac < 1.0:
        raise click.UsageError("--holdout-frac must lie in [0, 1)")
    if method == METHOD_IMAX and scaler != "none":
        method = bundle_mod.METHOD_IMAX_WITH_SCALER
    scalers = (bundle_mod.METHOD_TEMPERATURE, bundle_mod.METHOD_PLATT)
    if method in scalers and _given("bins"):
        raise click.UsageError(f"--bins does not apply to {method}, which fits no bins")
    if method in (*scalers, bundle_mod.METHOD_IMAX_WITH_SCALER) and _given("rep_strategy"):
        raise click.UsageError(f"--rep-strategy does not apply to {method}")
    groups_spec = _parse_groups(groups)
    scaler_kind = None if scaler == "none" else scaler
    _flag_config(
        bundle_mod.check_strategy,
        strategy=strategy,
        groups_spec=groups_spec,
        method=method,
        scaler_kind=scaler_kind,
        input_kind=_KIND_BY_FLAG[input_kind],
    )
    cfg = _flag_config(ImaxConfig, n_bins=bins, seed=seed)
    stem = out[:-5] if out.endswith(".json") else out
    held_scores, held_labels = f"{stem}.holdout-scores.csv", f"{stem}.holdout-labels.csv"
    _check_outputs(out, *((held_scores, held_labels) if holdout_frac > 0.0 else ()))

    scores = _read_matrix(scores_csv)
    data = PredictionMatrix(scores, _read_labels(labels_csv), _KIND_BY_FLAG[input_kind])
    labels = data.labels

    if holdout_frac > 0.0:
        fit_idx, hold_idx = _class_balanced_split(labels, holdout_frac, seed)
        data = PredictionMatrix(scores[fit_idx], labels[fit_idx], _KIND_BY_FLAG[input_kind])

    fitted = bundle_mod.fit_bundle(
        data,
        method,
        strategy=strategy,
        groups_spec=groups_spec,
        config=cfg,
        rep_strategy=rep,
        scaler_kind=scaler_kind,
    )
    if holdout_frac > 0.0:  # written only once the fit has succeeded
        _write_matrix(held_scores, scores[hold_idx])
        _write_matrix(held_labels, labels[hold_idx, None])
        diag(event="holdout_split", fit_n=len(fit_idx), holdout_n=len(hold_idx),
             holdout_scores=held_scores, holdout_labels=held_labels)
    for i, cal in enumerate(fitted.calibrators):
        if cal.binner is not None:
            _diag_fit_group(cal.binner, group=i, n=data.n_samples * len(cal.classes))
    with _output(out) as fh:
        fh.write(fitted.to_json())
    diag(event="fit", method=method, strategy=strategy, out=out)


def _diag_fit_group(binner, **where):
    """One event=fit_group line for an iteratively fitted binner."""
    trace = binner.diagnostics
    if trace is not None:
        diag(
            event="fit_group",
            **where,
            iterations=binner.iterations,
            converged=int(trace.converged),
            movement=f"{trace.final_movement:.3g}",
            loss=f"{trace.loss[-1]:.10g}",
            empty_bins=trace.empty_bin_events,
            seed_s=f"{trace.seed_s:.3f}",
        )


def _class_balanced_split(labels, frac, seed):
    rng = np.random.default_rng(seed)
    fit_idx, hold_idx = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        n_hold = int(round(frac * idx.size))
        if n_hold >= idx.size:
            n_hold = idx.size - 1
        hold_idx.append(idx[:n_hold])
        fit_idx.append(idx[n_hold:])
    fit_idx = np.sort(np.concatenate(fit_idx))
    hold_idx = np.sort(np.concatenate(hold_idx))
    if hold_idx.size == 0:
        raise DataError("holdout fraction leaves no holdout samples")
    return fit_idx, hold_idx


@cli.command("apply")
@click.argument("bundle_json", type=click.Path())
@click.argument("scores_csv", type=click.Path())
@click.option("-o", "--out", required=True, type=click.Path(), help="Calibrated CSV path.")
def cmd_apply(bundle_json, scores_csv, out):
    """Apply a fitted bundle to scores of the kind it was fitted on; rows are
    not renormalized."""
    if out.endswith(_COMPRESSED):
        raise click.UsageError(f"-o {out} names a compressed file; apply writes plain text")
    _check_outputs(out)
    fitted = _load_bundle(bundle_json)
    scores = _read_matrix(scores_csv)
    calibrated = bundle_mod.apply_bundle(fitted, scores)
    _write_matrix(out, calibrated)
    diag(event="apply", n=calibrated.shape[0], k=calibrated.shape[1], out=out)


def _load_bundle(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"bundle {path} is not UTF-8 text: {exc}") from exc
    return bundle_mod.CalibratorBundle.from_json(text)


@cli.command("eval")
@click.argument("scores_csv", type=click.Path())
@click.argument("labels_csv", type=click.Path())
@click.option("--bundle", "bundle_json", default=None, type=click.Path(),
              help="Apply this bundle first; scores_csv is then raw scores.")
@click.option("-o", "--out", default=None, type=click.Path(), help="Report JSON path.")
@click.option("--csv", "csv_out", default=None, type=click.Path(), help="Report CSV path.")
@click.option("--eval-scheme", default="auto", help=" | ".join(("auto", *EVAL_SCHEMES)))
# a repeatable flag's type is that of its default's entries unless given
@click.option("--eval-bins", default=(EvalConfig.n_eval_bins,), type=str, multiple=True,
              help="Repeatable.")
@click.option("--cw-threshold", default=EvalConfig.cw_thresholds, multiple=True,
              help="zero | one-over-k | prior | half | float; repeatable.")
@click.option("--top-k", default=EvalConfig.top_k, type=str, multiple=True, help="Repeatable.")
@click.option("--bootstrap", default=EvalConfig.bootstrap, help="Resample count B.")
@click.option("--tie-break", default=TIE_CLASS_INDEX, help=" | ".join(_TIE_BREAKS))
@click.option("--seed", default=EvalConfig.seed)
@click.option("--raw-scores", default=None, type=click.Path(),
              help="The scores file apply read, for --tie-break raw-logit without --bundle.")
def cmd_eval(
    scores_csv,
    labels_csv,
    bundle_json,
    out,
    csv_out,
    eval_scheme,
    eval_bins,
    cw_threshold,
    top_k,
    bootstrap,
    tie_break,
    seed,
    raw_scores,
):
    """Evaluate calibrated scores (or scores through a bundle)."""
    scheme = None if eval_scheme == "auto" else _name(
        eval_scheme, EVAL_SCHEMES, "eval scheme", {"imax": SCHEME_IMAX, "exact": SCHEME_EXACT}
    )
    if bundle_json is not None and raw_scores is not None:
        raise click.UsageError(
            "--raw-scores applies only without --bundle; with it, scores_csv is the raw scores"
        )
    tie_break = _name(tie_break, _TIE_BREAKS, "tie break")
    if raw_scores is not None and tie_break != TIE_RAW_LOGIT:
        raise click.UsageError("--raw-scores applies only with --tie-break raw-logit")
    if tie_break == TIE_RAW_LOGIT and bundle_json is None and raw_scores is None:
        raise click.UsageError("raw-logit tie break needs --bundle or --raw-scores")
    bins_list = _parse_multi(eval_bins, int, "--eval-bins")
    thresholds = _parse_multi(cw_threshold, _threshold, "threshold")
    ks = _parse_multi(top_k, int, "--top-k")
    configs = [
        _flag_config(
            EvalConfig,
            eval_scheme=scheme or SCHEME_EQ_SIZE,
            n_eval_bins=nb,
            cw_thresholds=tuple(thresholds),
            top_k=tuple(ks),
            bootstrap=bootstrap,
            seed=seed,
        )
        for nb in bins_list
    ]
    _check_outputs(out, csv_out)
    fitted = None if bundle_json is None else _load_bundle(bundle_json)

    scores = _read_matrix(scores_csv)
    labels = _read_labels(labels_csv)
    if fitted is None:
        calibrated = scores
        raw = None if raw_scores is None else _read_matrix(raw_scores)
    else:
        calibrated = bundle_mod.apply_bundle(fitted, scores)
        raw = scores if tie_break == TIE_RAW_LOGIT else None
        if scheme is None and fitted.has_binners():
            configs = [replace(cfg, eval_scheme=SCHEME_EXACT) for cfg in configs]

    started = time.perf_counter()
    stats = RowStats(calibrated, labels, raw)
    stats.ranking()  # once, for every report below
    ranked = time.perf_counter()
    reports = [build_report(stats, None, cfg) for cfg in configs]
    diag(
        event="eval",
        n=stats.n,
        k=stats.k,
        reports=",".join(str(nb) for nb in bins_list),
        bootstrap=bootstrap,
        rank_s=f"{ranked - started:.3f}",
        report_s=f"{time.perf_counter() - ranked:.3f}",
    )

    for rep in reports:
        if len(reports) > 1:
            click.echo(f"# eval_bins={rep.config.n_eval_bins}")
        click.echo(rep.to_text())
    if out is not None:
        payload = [rep.to_dict() for rep in reports]
        with _output(out) as fh:
            json.dump(payload[0] if len(payload) == 1 else payload, fh, indent=2)
            fh.write("\n")
    if csv_out is not None:
        with _output(csv_out) as fh:
            fh.write(reports_csv(reports))
    for rep in reports:
        for label, res in rep.cw.items():
            if res.zero_kept_classes:
                diag(
                    event="zero_kept_classes",
                    threshold=label,
                    count=res.zero_kept_classes,
                )


@cli.command("synth")
@click.option("--preset", default=None, type=click.Choice(sorted(synth_mod.PRESETS)))
@click.option("--multiclass", is_flag=True, help="Multiclass generator (default: binary mixture).")
@click.option(
    "--k", default=synth_mod.MulticlassSynthSpec.n_classes, help="Multiclass class count."
)
@click.option("--tgen", default=synth_mod.MulticlassSynthSpec.t_gen, help="Generation temperature.")
@click.option("--prior", default=synth_mod.BinaryMixtureSpec.prior, help="Binary positive prior.")
@click.option("--mu-pos", default=synth_mod.BinaryMixtureSpec.mu_pos)
@click.option("--mu-neg", default=synth_mod.BinaryMixtureSpec.mu_neg)
@click.option("--sigma-pos", default=synth_mod.BinaryMixtureSpec.sigma_pos)
@click.option("--sigma-neg", default=synth_mod.BinaryMixtureSpec.sigma_neg)
# the two specs share their n and seed defaults
@click.option("--n", default=synth_mod.BinaryMixtureSpec.n)
@click.option("--seed", default=synth_mod.BinaryMixtureSpec.seed)
@click.option("--out-prefix", required=True, type=click.Path())
def cmd_synth(
    preset,
    multiclass,
    k,
    tgen,
    prior,
    mu_pos,
    mu_neg,
    sigma_pos,
    sigma_neg,
    n,
    seed,
    out_prefix,
):
    """Generate synthetic scores/labels with a ground-truth sidecar."""
    if preset is not None and multiclass:
        raise click.UsageError("--preset and --multiclass are exclusive")
    mixture = ("prior", "mu_pos", "mu_neg", "sigma_pos", "sigma_neg")
    unused = mixture if multiclass else ("k", "tgen") + (mixture if preset else ())
    mode = "--multiclass" if multiclass else f"--preset {preset}" if preset else "a binary mixture"
    for param in unused:
        if _given(param):
            raise click.UsageError(f"--{param.replace('_', '-')} does not apply to {mode}")
    if preset is not None:
        family, build, flags = "binary", synth_mod.BinaryMixtureSpec, synth_mod.PRESETS[preset]
    elif multiclass:
        family, build = "multiclass", synth_mod.MulticlassSynthSpec
        flags = dict(n_classes=k, t_gen=tgen)
    else:
        family, build = "binary", synth_mod.BinaryMixtureSpec
        flags = dict(
            prior=prior, mu_pos=mu_pos, sigma_pos=sigma_pos, mu_neg=mu_neg, sigma_neg=sigma_neg
        )
    spec = _flag_config(build, n=n, seed=seed, **flags)
    scores_out, labels_out, spec_out = (
        f"{out_prefix}-{name}" for name in ("scores.csv", "labels.csv", "spec.json")
    )
    _check_outputs(scores_out, labels_out, spec_out)

    if family == "binary":
        logits, targets = synth_mod.draw_binary_mixture(spec)
        # Two-column raw logits [0, lam] in draw order: softmax gives
        # (1-sigma(lam), sigma(lam)), so class 1's one-vs-rest logit
        # round-trips to lam exactly.
        scores = np.column_stack([np.zeros(len(logits)), logits])
        labels = targets.astype(np.int64)
        sidecar = {
            "spec": spec.to_dict(),
            "analytic": {
                "mi_nats": synth_mod.analytic_mi(spec),
                "posterior": "expit(log_prior_ratio + loglik_pos - loglik_neg)",
            },
        }
    else:
        data = synth_mod.gen_multiclass(spec)
        scores = data.scores
        labels = data.labels
        sidecar = {
            "spec": spec.to_dict(),
            "analytic": {"posterior": "softmax(t_gen * scores)"},
        }

    _write_matrix(scores_out, scores)
    _write_matrix(labels_out, labels[:, None])
    with _output(spec_out) as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    diag(event="synth", family=family, n=len(labels), out_prefix=out_prefix)


@cli.command("mi-report")
@click.argument("scores_csv", type=click.Path())
@click.argument("labels_csv", type=click.Path())
@click.option("--bins", default=(2, 4, 8, 16), type=str, multiple=True,
              help="Repeatable bin counts.")
@click.option("--method", "methods", default=BINNING_METHODS, multiple=True,
              help=f"Repeatable: {' | '.join(BINNING_METHODS)}.")
@click.option("--seed", default=ImaxConfig.seed)
@click.option("--input-kind", default="logits", type=click.Choice(list(_KIND_BY_FLAG)))
@click.option("-o", "--out", default=None, type=click.Path(), help="CSV path (default stdout).")
def cmd_mi_report(scores_csv, labels_csv, bins, methods, seed, input_kind, out):
    """Empirical binner MI against the KDE upper bound, on the fit set."""
    configs = [
        _flag_config(ImaxConfig, n_bins=m, seed=seed) for m in _parse_multi(bins, int, "--bins")
    ]
    method_list = _parse_multi(methods, lambda m: _name(m, BINNING_METHODS, "method"), "--method")
    _check_outputs(out)

    data = PredictionMatrix(
        _read_matrix(scores_csv), _read_labels(labels_csv), _KIND_BY_FLAG[input_kind]
    )
    cal_set = ovr_set(data.ovr_logits(), data.labels, range(data.n_classes))

    # the bound before the fits: after them, its FFT buffers raise the
    # process's peak resident set (54.6 against 50.5 MB on 200k samples)
    started = time.perf_counter()
    bound = info_mod.mi_bound_of_set(cal_set)
    bounded = time.perf_counter()
    if not bound > 0:
        diag(event="zero_bound", msg="the KDE bound is 0 nats, so every ratio is left empty")
    named = []
    for cfg in configs:
        for method in method_list:
            binner = fit_edges(cal_set, method, cfg)
            _diag_fit_group(binner, bins=cfg.n_bins, n=len(cal_set))
            named.append((method, binner))
    fitted = time.perf_counter()
    rows = info_mod.mi_report(cal_set, named, bound=bound)
    scored = time.perf_counter()
    text = info_mod.mi_report_csv(rows)
    if out is None:
        click.echo(text, nl=False)
    else:
        with _output(out) as fh:
            fh.write(text)
    diag(
        event="mi_report",
        set="fit",
        n=len(cal_set),
        rows=len(rows),
        fit_s=f"{fitted - bounded:.3f}",
        bound_s=f"{bounded - started:.3f}",
        score_s=f"{scored - fitted:.3f}",
    )


def _error_line(kind, exc):
    print(f'error={kind} msg="{_one_line(exc)}"', file=sys.stderr)


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """Display hook for Python warnings: one event=warning diagnostic."""
    diag(event="warning", category=category.__name__, msg=message)


def main(argv=None):
    """Console entry point with the documented exit-code mapping; Python
    warnings that pass the warning filters show as event=warning lines. A
    command that fails removes the output files it created."""
    shown = warnings.showwarning
    warnings.showwarning = _warning_line
    created = []  # the output files the command creates (see _check_outputs)
    code = 1  # an exception that none of the clauses below maps
    try:
        cli.main(args=argv, standalone_mode=False, obj=created)
        code = 0
    except click.exceptions.Exit as exc:
        code = exc.exit_code
    except click.UsageError as exc:
        _error_line("usage", exc.format_message())
        code = 2
    except click.Abort:
        _error_line("usage", "aborted")
        code = 2
    except DataError as exc:
        _error_line("data", exc)
        code = 3
    except MemoryError as exc:
        _error_line("data", f"out of memory: {exc}")
        code = 3
    except FitError as exc:
        _error_line("fit", exc)
        code = 4
    finally:
        warnings.showwarning = shown
        if code != 0:
            for path in created:
                with contextlib.suppress(OSError):
                    os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
