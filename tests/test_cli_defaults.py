"""The command line's defaults and name lists have one record, in the
library: each flag that feeds a config, a spec or fit_bundle reads its
default from it, --help prints that default, and the method and scheme lists
are built from the library's constants. The last tests guard cli.py's source
in the AST style of test_exports."""

import ast
import inspect
import re
from pathlib import Path

import pytest

from imaxcal import cli as cli_mod
from imaxcal.binning import BINNING_METHODS, ImaxConfig
from imaxcal.bundle import FIT_METHODS, fit_bundle
from imaxcal.cli import cli, main
from imaxcal.metrics import EVAL_SCHEMES, TIE_CLASS_INDEX, TIE_RAW_LOGIT, EvalConfig
from imaxcal.synth import BinaryMixtureSpec, MulticlassSynthSpec

CLI_PATH = Path(cli_mod.__file__)
COMMANDS = ["fit", "apply", "eval", "synth", "mi-report"]
_FIT_KEYWORDS = inspect.signature(fit_bundle).parameters

# (command, flag): the library value that is the flag's default
LIBRARY_DEFAULTS = {
    ("fit", "--bins"): ImaxConfig.n_bins,
    ("fit", "--seed"): ImaxConfig.seed,
    ("fit", "--strategy"): _FIT_KEYWORDS["strategy"].default,
    ("fit", "--rep-strategy"): _FIT_KEYWORDS["rep_strategy"].default,
    ("eval", "--eval-bins"): (EvalConfig.n_eval_bins,),
    ("eval", "--top-k"): EvalConfig.top_k,
    ("eval", "--cw-threshold"): EvalConfig.cw_thresholds,
    ("eval", "--bootstrap"): EvalConfig.bootstrap,
    ("eval", "--seed"): EvalConfig.seed,
    ("eval", "--tie-break"): TIE_CLASS_INDEX,
    ("synth", "--k"): MulticlassSynthSpec.n_classes,
    ("synth", "--tgen"): MulticlassSynthSpec.t_gen,
    ("synth", "--prior"): BinaryMixtureSpec.prior,
    ("synth", "--mu-pos"): BinaryMixtureSpec.mu_pos,
    ("synth", "--mu-neg"): BinaryMixtureSpec.mu_neg,
    ("synth", "--sigma-pos"): BinaryMixtureSpec.sigma_pos,
    ("synth", "--sigma-neg"): BinaryMixtureSpec.sigma_neg,
    ("synth", "--n"): BinaryMixtureSpec.n,
    ("synth", "--seed"): BinaryMixtureSpec.seed,
    ("mi-report", "--seed"): ImaxConfig.seed,
}

# (command, flag): the names a flag takes, as its help lists them
NAME_LISTS = {
    ("fit", "--method"): FIT_METHODS,
    ("eval", "--eval-scheme"): ("auto", *EVAL_SCHEMES),
    ("eval", "--tie-break"): (TIE_CLASS_INDEX, TIE_RAW_LOGIT),
    ("mi-report", "--method"): BINNING_METHODS,
}


def _shown(value):
    """A default as click prints it: a tuple's entries joined by ', '."""
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _help_texts(command):
    """{flag: help text} of each option of command, the text --help prints
    after the flag, unwrapped."""
    parent = cli.make_context("imaxcal", [], resilient_parsing=True)
    cmd = cli.commands[command]
    ctx = cmd.make_context(command, [], parent=parent, resilient_parsing=True)
    texts = {}
    for param in cmd.get_params(ctx):
        record = param.get_help_record(ctx)
        if record is not None:
            texts.update(dict.fromkeys(param.opts, record[1]))
    return texts


def test_the_table_names_every_library_owned_flag_once():
    assert len(LIBRARY_DEFAULTS) == 20
    # synth --n and --seed feed either spec, and the specs agree on them
    assert MulticlassSynthSpec.n == BinaryMixtureSpec.n
    assert MulticlassSynthSpec.seed == BinaryMixtureSpec.seed


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_exits_zero(command, capsys):
    argv = ["--help"] if command is None else [command, "--help"]
    assert main(argv) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert out.startswith("Usage: ")
    for (owner, _), value in LIBRARY_DEFAULTS.items():
        if owner == command:
            assert f"[default: {_shown(value)}]" in out


@pytest.mark.parametrize("command, flag", sorted(LIBRARY_DEFAULTS))
def test_help_prints_the_library_default(command, flag):
    shown = _shown(LIBRARY_DEFAULTS[command, flag])
    assert f"[default: {shown}]" in _help_texts(command)[flag]


@pytest.mark.parametrize("command, flag", sorted(NAME_LISTS))
def test_help_lists_the_library_names(command, flag):
    text = _help_texts(command)[flag]
    (listed,) = re.findall(r"\w+(?: \| \w+)+", text)
    assert tuple(listed.split(" | ")) == NAME_LISTS[command, flag]


def test_mi_report_fits_every_binning_method_by_default():
    assert f"[default: {_shown(BINNING_METHODS)}]" in _help_texts("mi-report")["--method"]


# --- cli.py's source -----------------------------------------------------

def _cli_tree():
    return ast.parse(CLI_PATH.read_text())


def _option_defaults(tree):
    """{(command, flag): the default= expression, or None where there is
    none} of every click option of every command in tree."""
    defaults = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        calls = [d for d in node.decorator_list if isinstance(d, ast.Call)]
        names = [c.args[0].value for c in calls if getattr(c.func, "attr", "") == "command"]
        if not names:
            continue
        for call in calls:
            if getattr(call.func, "attr", "") != "option":
                continue
            default = next((kw.value for kw in call.keywords if kw.arg == "default"), None)
            for arg in call.args:
                if isinstance(arg, ast.Constant) and str(arg.value).startswith("--"):
                    defaults[names[0], arg.value] = default
    return defaults


def _is_literal(node):
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False
    return True


def test_no_library_default_is_written_in_the_cli():
    defaults = _option_defaults(_cli_tree())
    written = [
        key for key in LIBRARY_DEFAULTS if defaults[key] is None or _is_literal(defaults[key])
    ]
    assert written == []


def test_no_string_in_the_cli_spells_a_method_or_scheme_list():
    names = {*FIT_METHODS, *EVAL_SCHEMES, *BINNING_METHODS}
    spelled = [
        node.value
        for node in ast.walk(_cli_tree())
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "|" in node.value
        and len(names.intersection(re.findall(r"[\w-]+", node.value))) >= 2
    ]
    assert spelled == []


def test_no_choice_in_the_cli_lists_only_literals():
    # a literal list of names would be a second record of a library list
    literal = [
        ast.unparse(node)
        for node in ast.walk(_cli_tree())
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "Choice"
        and any(_is_literal(arg) for arg in node.args)
    ]
    assert literal == []


def test_the_binning_method_tuple_is_written_once():
    binning = {"METHOD_IMAX", "METHOD_EQ_SIZE", "METHOD_EQ_MASS"}
    written = [
        path.name
        for path in sorted(CLI_PATH.parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and {getattr(e, "id", getattr(e, "attr", None)) for e in node.elts} == binning
    ]
    assert written == ["binning.py"]


def test_show_default_is_set_once():
    assert CLI_PATH.read_text().count("show_default") == 1
