"""Batch command-line interface.

Subcommands: fit, apply, eval, synth, mi-report. Files are headerless CSV
(scores: N x K floats; labels: N x 1 integers); calibrators travel as strict
JSON bundles. Exit codes: 0 success, 2 usage error, 3 data error, 4 fit
failure. Diagnostics go to stderr as single-line key=value records.
"""

import contextlib
import json
import sys
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
    METHOD_EQ_MASS,
    METHOD_EQ_SIZE,
    METHOD_IMAX,
    REP_EMPIRICAL_FREQ,
    REP_RAW_PROB_MEAN,
    ImaxConfig,
    fit_edges,
    fit_imax_many,
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

_KIND_BY_FLAG = {"logits": RAW_LOGITS, "probs": PROBABILITIES}
_TIE_BY_FLAG = {"class-index": TIE_CLASS_INDEX, "raw-logit": TIE_RAW_LOGIT}


def diag(**kv):
    """Single-line key=value diagnostic on stderr."""
    parts = []
    for key, value in kv.items():
        text = str(value).replace("\n", "; ").replace('"', "'")
        parts.append(f'{key}="{text}"' if " " in text or text == "" else f"{key}={text}")
    print(" ".join(parts), file=sys.stderr)


def _read_matrix(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below as a data error, not also as
            # numpy's warning
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
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
def _output(path):
    """path opened for writing text; a path that cannot be opened or written
    is a DataError."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _write_matrix(path, matrix):
    """Headerless CSV with every value written by repr, so it round-trips.

    Each block of rows formats each distinct value once: calibrated
    matrices hold few distinct values. Values are told apart by their bits,
    so -0.0 keeps its own text. Each token of a block's table carries the
    separator that follows it, a comma or, in the last column, a newline, so
    the block is written by one join.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    with _output(path) as fh:
        for rows in row_blocks(*matrix.shape):
            bits = np.ascontiguousarray(matrix[rows]).view(np.uint64)
            keys, inverse = np.unique(bits, return_inverse=True)
            at = inverse.reshape(bits.shape)
            last_keys, last_at = np.unique(at[:, -1], return_inverse=True)
            at[:, -1] = keys.size + last_at
            text = list(map(repr, keys.view(np.float64).tolist()))
            tokens = [t + "," for t in text] + [text[i] + "\n" for i in last_keys.tolist()]
            fh.write("".join(np.array(tokens, dtype=object)[at].ravel().tolist()))


def _write_labels(path, labels):
    with _output(path) as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def _parse_multi(values, cast, what):
    """Flatten repeatable, comma-separated flag values."""
    out = []
    for value in values:
        for token in str(value).split(","):
            token = token.strip()
            if not token:
                continue
            try:
                out.append(cast(token))
            except ValueError as exc:
                raise click.UsageError(f"bad {what} value {token!r}") from exc
    return out


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


def _parse_thresholds(values):
    out = []
    for token in _parse_multi(values, str, "threshold"):
        try:
            out.append(float(token))
        except ValueError:
            out.append(
                _name(token, NAMED_THRESHOLDS, "threshold", {"prior": THRESHOLD_CLASS_PRIOR})
            )
    return out or [THRESHOLD_CLASS_PRIOR]


def _parse_groups(text):
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    groups = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, _, hi = part.partition("-")
            try:
                group = tuple(range(int(lo), int(hi) + 1))
            except ValueError:
                group = ()
            if not group:
                raise click.UsageError(f"bad group range {part!r}")
            groups.append(group)
        else:
            try:
                groups.append((int(part),))
            except ValueError:
                raise click.UsageError(f"bad group index {part!r}") from None
    if not groups:
        raise click.UsageError(f"empty group spec {text!r}")
    return groups


@click.group()
def cli():
    """Post-hoc confidence calibration: binning, scaling, evaluation."""


@cli.command("fit")
@click.argument("scores_csv", type=click.Path())
@click.argument("labels_csv", type=click.Path())
@click.option("-o", "--out", required=True, type=click.Path(), help="Bundle JSON path.")
@click.option(
    "--method",
    default="imax",
    help="eq_size | eq_mass | imax | temperature | platt | imax_with_scaler",
)
@click.option("--bins", default=15, show_default=True, help="Number of bins M.")
@click.option(
    "--strategy",
    default="scw",
    type=click.Choice(["cw", "scw"]),
    show_default=True,
    help="Per-class (cw) or shared (scw) calibrators.",
)
@click.option(
    "--groups",
    default=None,
    help="scw only: group count (prior quantiles) or explicit groups like 0-1,2-4,5-9.",
)
@click.option(
    "--scaler",
    default="none",
    type=click.Choice(["none", "temperature", "platt"]),
    show_default=True,
    help="Scaler for imax_with_scaler representatives.",
)
@click.option("--seed", default=0, show_default=True)
@click.option(
    "--input-kind",
    default="logits",
    type=click.Choice(["logits", "probs"]),
    show_default=True,
)
@click.option(
    "--holdout-frac",
    default=0.0,
    show_default=True,
    help="Class-balanced holdout fraction, written next to the bundle.",
)
@click.option("--rep-strategy", default="empirical-freq", show_default=True,
              help="empirical-freq | raw-prob-mean for binning methods.")
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
    rep = _name(rep_strategy, (REP_EMPIRICAL_FREQ, REP_RAW_PROB_MEAN), "rep strategy")
    if not 0.0 <= holdout_frac < 1.0:
        raise click.UsageError("--holdout-frac must lie in [0, 1)")
    if method == "imax" and scaler != "none":
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
        stem = out[:-5] if out.endswith(".json") else out
        held_scores, held_labels = f"{stem}.holdout-scores.csv", f"{stem}.holdout-labels.csv"
        _write_matrix(held_scores, scores[hold_idx])
        _write_labels(held_labels, labels[hold_idx])
        diag(event="holdout_split", fit_n=len(fit_idx), holdout_n=len(hold_idx),
             holdout_scores=held_scores, holdout_labels=held_labels)
    for i, cal in enumerate(fitted.calibrators):
        if cal.binner is not None:
            _diag_fit_group(cal.binner, group=i, n=data.n_samples * len(cal.classes))
    with _output(out) as fh:
        fh.write(fitted.to_json())
    diag(event="fit", method=method, strategy=fitted.strategy, out=out)


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
    fitted = _load_bundle(bundle_json)
    scores = _read_matrix(scores_csv)
    calibrated = bundle_mod.apply_bundle(fitted, scores, fitted.input_kind)
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
@click.option("--eval-scheme", default="auto", show_default=True,
              help="auto | eq_size | eq_mass | kmeans | imax_eval | exact_grouping")
@click.option("--eval-bins", multiple=True, help="Repeatable; default 100.")
@click.option("--cw-threshold", multiple=True,
              help="zero | one-over-k | prior | half | float; repeatable.")
@click.option("--top-k", multiple=True, help="Repeatable; default 1,5.")
@click.option("--bootstrap", default=0, show_default=True, help="Resample count B.")
@click.option("--tie-break", default="class-index",
              type=click.Choice(["class-index", "raw-logit"]), show_default=True)
@click.option("--seed", default=0, show_default=True)
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
    tie = _TIE_BY_FLAG[tie_break]
    if bundle_json is not None and raw_scores is not None:
        raise click.UsageError(
            "--raw-scores applies only without --bundle; with it, scores_csv is the raw scores"
        )
    if raw_scores is not None and tie != TIE_RAW_LOGIT:
        raise click.UsageError("--raw-scores applies only with --tie-break raw-logit")
    if tie == TIE_RAW_LOGIT and bundle_json is None and raw_scores is None:
        raise DataError("raw-logit tie break needs --bundle or --raw-scores")
    bins_list = _parse_multi(eval_bins, int, "--eval-bins") or [100]
    thresholds = _parse_thresholds(cw_threshold)
    ks = _parse_multi(top_k, int, "--top-k") or [1, 5]
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

    scores = _read_matrix(scores_csv)
    labels = _read_labels(labels_csv)
    if bundle_json is None:
        calibrated = scores
        raw = None if raw_scores is None else _read_matrix(raw_scores)
    else:
        fitted = _load_bundle(bundle_json)
        calibrated = bundle_mod.apply_bundle(fitted, scores, fitted.input_kind)
        raw = scores
        if scheme is None and fitted.has_binners():
            configs = [replace(cfg, eval_scheme=SCHEME_EXACT) for cfg in configs]

    started = time.perf_counter()
    stats = RowStats(calibrated, labels, tie, raw)
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
@click.option("--k", default=10, show_default=True, help="Multiclass class count.")
@click.option("--tgen", default=1.0, show_default=True, help="Generation temperature.")
@click.option("--prior", default=0.5, show_default=True, help="Binary positive prior.")
@click.option("--mu-pos", default=1.0, show_default=True)
@click.option("--mu-neg", default=-1.0, show_default=True)
@click.option("--sigma-pos", default=1.0, show_default=True)
@click.option("--sigma-neg", default=1.0, show_default=True)
@click.option("--n", default=10_000, show_default=True)
@click.option("--seed", default=0, show_default=True)
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

    if family == "binary":
        cal_set, _ = synth_mod.gen_binary_mixture(spec)
        # Two-column raw logits [0, lam]: softmax gives (1-sigma(lam), sigma(lam)),
        # so class 1's one-vs-rest logit round-trips to lam exactly.
        scores = np.column_stack([np.zeros(len(cal_set)), cal_set.logits])
        labels = cal_set.targets.astype(np.int64)
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

    _write_matrix(f"{out_prefix}-scores.csv", scores)
    _write_labels(f"{out_prefix}-labels.csv", labels)
    with _output(f"{out_prefix}-spec.json") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    diag(event="synth", family=family, n=len(labels), out_prefix=out_prefix)


@cli.command("mi-report")
@click.argument("scores_csv", type=click.Path())
@click.argument("labels_csv", type=click.Path())
@click.option("--bins", multiple=True, help="Repeatable bin counts; default 2,4,8,16.")
@click.option("--method", "methods", multiple=True,
              help="Repeatable: imax | eq_size | eq_mass; default all three.")
@click.option("--seed", default=0, show_default=True)
@click.option(
    "--input-kind",
    default="logits",
    type=click.Choice(["logits", "probs"]),
    show_default=True,
)
@click.option("-o", "--out", default=None, type=click.Path(), help="CSV path (default stdout).")
def cmd_mi_report(scores_csv, labels_csv, bins, methods, seed, input_kind, out):
    """Empirical binner MI against the KDE upper bound, on the fit set."""
    configs = [
        _flag_config(ImaxConfig, n_bins=m, seed=seed)
        for m in _parse_multi(bins, int, "--bins") or [2, 4, 8, 16]
    ]
    binning_methods = (METHOD_IMAX, METHOD_EQ_SIZE, METHOD_EQ_MASS)
    method_list = [
        _name(m, binning_methods, "method") for m in _parse_multi(methods, str, "--method")
    ] or list(binning_methods)

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
    imax_fits = fit_imax_many(cal_set, configs) if METHOD_IMAX in method_list else None
    named = []
    for i, cfg in enumerate(configs):
        for method in method_list:
            if method == METHOD_IMAX:
                binner = imax_fits[i]
                _diag_fit_group(binner, bins=cfg.n_bins, n=len(cal_set))
            else:
                binner = fit_edges(cal_set, method, cfg)
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
    msg = str(exc).replace("\n", "; ").replace('"', "'")
    print(f'error={kind} msg="{msg}"', file=sys.stderr)


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """Display hook for Python warnings: one event=warning diagnostic."""
    diag(event="warning", category=category.__name__, msg=message)


def main(argv=None):
    """Console entry point with the documented exit-code mapping; Python
    warnings that pass the warning filters show as event=warning lines."""
    shown = warnings.showwarning
    warnings.showwarning = _warning_line
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        _error_line("usage", exc.format_message() if hasattr(exc, "format_message") else exc)
        return 2
    except click.Abort:
        _error_line("usage", "aborted")
        return 2
    except DataError as exc:
        _error_line("data", exc)
        return 3
    except FitError as exc:
        _error_line("fit", exc)
        return 4
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    sys.exit(main())
