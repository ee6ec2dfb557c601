"""Each module's concern stays behind its public names: no module of the package imports another's private name, and
no import hides inside a function, where it would put off an import cycle instead of removing it. The autodiff engine
exports only what another module of the package uses, and the package holds only what a stage runs: every function in
it is reached by a stage, or listed with its reason."""

import ast
import json
import sys
from pathlib import Path

import pytest

import t4c
from t4c import autodiff
from t4c.cli import main

SOURCES = sorted(Path(t4c.__file__).parent.glob("*.py"))


def _faults(tree: ast.AST) -> list[str]:
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:  # a relative import: the imported name, not its alias
            faults += [f"line {node.lineno}: imports private {alias.name}" for alias in node.names
                       if alias.name.startswith("_")]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            faults += [f"line {inner.lineno}: an import inside {node.name}"
                       for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return faults


def test_the_package_has_modules():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "data.py", "evaluation.py", "training.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_or_imports_inside_a_function(path):
    assert _faults(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_the_check_finds_both_faults():
    source = "from .data import _hints as hints, read_json\n\ndef f():\n    from .training import train_one\n"
    assert _faults(ast.parse(source)) == ["line 1: imports private _hints", "line 4: an import inside f"]


def _autodiff_names_used(tree: ast.AST) -> set[str]:
    """The names a module takes from ``autodiff``: imported from it, or read as attributes of the name bound to it."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "autodiff":
                names |= {alias.name for alias in node.names}
            elif node.module is None:
                modules |= {alias.asname or alias.name for alias in node.names if alias.name == "autodiff"}
    reads = (node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name))
    return names | {node.attr for node in reads if node.value.id in modules}


def test_every_autodiff_export_is_used_by_another_module():
    used = set().union(*(_autodiff_names_used(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
                         for path in SOURCES if path.name != "autodiff.py"))
    assert sorted(set(autodiff.__all__) - used) == []


def test_the_export_check_finds_both_spellings():
    source = "from . import autodiff as ad\nfrom .autodiff import Plan\n\nx = ad.linear(ad.Tensor, y.mse)\n"
    assert _autodiff_names_used(ast.parse(source)) == {"Plan", "linear", "Tensor"}


# -- every function a stage runs -------------------------------------------------------------------------------------

# The functions and lambdas of the package that the stage sequence below does not reach, each with its reason or the
# test that reaches it. An entry is ``file:qualified name``, a nested function's name after its enclosing one's.
UNREACHED = {
    "autodiff.py:Tensor.backward": "the engine's gradient entry: criterion 1's gradient check and demo 01 call it",
    "autodiff.py:Tensor.__repr__": "what pytest prints for a Tensor in a failing assertion",
    "autodiff.py:_getter.<lambda>": "no op has one operand today; without it such an op would unpack its operand",
    "autodiff.py:_refuse_dtype": "test_autodiff.py::test_linear_and_gnn_round_refuse_an_operand_that_is_not_float64",
    "data.py:labels_by_record": "a label view perfbench/workload.py reads; ROADMAP item 3 deletes it",
    "data.py:LabelTable.__len__": "a label view perfbench/workload.py reads; ROADMAP item 3 deletes it",
    "data.py:LabelTable.__getitem__": "a label view perfbench/workload.py reads; ROADMAP item 3 deletes it",
    "data.py:LabelTable.labelled": "a label view perfbench/workload.py reads; ROADMAP item 3 deletes it",
    "data.py:LabelBundle.edges": "a label view perfbench/workload.py reads; ROADMAP item 3 deletes it",
}


def _definitions(tree: ast.AST, prefix: str = "") -> list[tuple[int, str]]:
    """Each function and lambda under ``tree``: its first line (a decorated function's first decorator's, as its code
    object has it) and its qualified name."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(node, "name", "<lambda>")
            found.append((min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))]), name))
            found += _definitions(node, name + ".")
        else:
            found += _definitions(node, prefix + node.name + "." if isinstance(node, ast.ClassDef) else prefix)
    return found


def _reach_faults(sources: dict[str, str], called: set[tuple[str, int, str]], listed: dict[str, str]) -> list[str]:
    """A line for each definition in ``sources`` (file name -> source) that is neither ``called`` (as its file, first
    line and bare name) nor ``listed``; for each listed one that is called; and for each entry that names none."""
    faults, seen = [], set()
    for file, source in sources.items():
        for line, name in _definitions(ast.parse(source)):
            entry, reached = f"{file}:{name}", (file, line, name.rpartition(".")[2]) in called
            if entry in listed:
                seen.add(entry)
                faults += [f"{entry} is listed, but the stages reach it"] if reached else []
            elif not reached:
                faults.append(f"{file}:{line} {name} is reached by no stage and is not listed")
    return faults + [f"{entry} is listed, but no such function is defined" for entry in listed if entry not in seen]


def _stage_sequence(tmp: Path) -> None:
    """Every stage on a 12-node city, as the CI's rerun step runs them, one train and predict through a pipeline config,
    the eval stages and fit-clusters again with every binary copy deleted, then a refused stage for each refusal the
    stages can reach."""
    def run(*argv: str, code: int = 0) -> None:
        assert main(["--workdir", str(tmp), *argv]) == code, argv

    config = {"model": {"hidden": 16, "num_clusters": 5}, "train": {"epochs": 1, "ensemble_size": 1}}
    (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
    run("synth", "--out", "city", "--nodes", "12", "--records", "32", "--records-per-day", "16")
    run("fit-clusters", "--data", "city", "--k", "5", "--out", "clusters.json")
    trained = "--data", "city", "--cluster-model", "clusters.json"
    run("train", *trained, "--out", "run", "--members", "2", "--epochs", "1", "--k", "5")
    run("predict", *trained, "--run", "run", "--out", "pred.jsonl")
    run("train", *trained, "--out", "run_ar", "--members", "2", "--epochs", "1", "--k", "5",
        "--prior-mode", "active_row")
    run("predict", *trained, "--run", "run_ar", "--out", "pred_ar.jsonl")
    run("train", "--config", "config.json", *trained, "--out", "run_cfg")
    run("predict", "--config", "config.json", *trained, "--run", "run_cfg", "--out", "pred_cfg.jsonl")
    evals = [("eval-core", "--out", "core.json", "--csv", "core.csv"),
             ("eval-eta", "--out", "eta.json", "--csv", "eta.csv")]
    for stage, *outputs in evals:
        run(stage, "--data", "city", "--pred", "pred.jsonl", *outputs)
    run("baseline", "naive", "--data", "city", "--out", "bl")
    run("baseline", "naive", "--data", "city", "--out", "bl_global", "--global")
    run("baseline", "volume_cluster", "--data", "city", "--out", "bl", "--k", "5")
    run("baseline", "node_gnn", "--data", "city", "--out", "bl", "--epochs", "1")
    run("ablate", *trained, "--variants", "full,no_cluster,no_static,no_gnn", "--epochs", "1", "--k", "5",
        "--out", "ablation")
    run("report", "--runs", "run", "--ablation", "ablation/ablation.json", "--out", "report")

    for copy in tmp.rglob("*.bin"):
        if copy.name != "checkpoint.bin":
            copy.unlink()
    for stage, *outputs in evals:
        run(stage, "--data", "city", "--pred", "pred.jsonl", *outputs)
    run("fit-clusters", "--data", "city", "--k", "5", "--out", "clusters.json")

    rows = [json.loads(line) for line in (tmp / "pred.jsonl").read_text(encoding="utf-8").splitlines()]
    faults = {
        "not_a_row.jsonl": [{"record_id": 1}],  # a SchemaError
        "not_a_vector.jsonl": [{**rows[0], "segments": {seg: {"cc": [0.5, 0.5, "x"]} for seg in rows[0]["segments"]}}],
        "unscored.jsonl": [{**row, "segments": {}} for row in rows],  # the scorer's PredictionError
    }
    for name, fault in faults.items():
        (tmp / name).write_text("".join(json.dumps(row) + "\n" for row in fault), encoding="utf-8")
        run("eval-core", "--data", "city", "--pred", name, code=1)
    run("train", "--no-such-flag", code=1)


def test_every_function_of_the_package_is_reached_by_a_stage_or_listed(tmp_path, capsys):
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _stage_sequence(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()  # the stages' output, which a failure need not show
    package = SOURCES[0].parent.resolve()
    called = {(Path(code.co_filename).name, code.co_firstlineno, code.co_name) for code in codes
              if Path(code.co_filename).resolve().parent == package}
    faults = _reach_faults({path.name: path.read_text(encoding="utf-8") for path in SOURCES}, called, UNREACHED)
    assert not faults, "\n".join(faults)


def test_the_reach_check_finds_all_three_faults():
    toy = (
        "def run():\n"
        "    return lambda: 0\n"
        "\n"
        "def dead():\n"
        "    pass\n"
        "\n"
        "class C:\n"
        "    @property\n"
        "    def listed(self):\n"
        "        pass\n"
    )
    called = {("toy.py", 1, "run"), ("toy.py", 2, "<lambda>"), ("toy.py", 8, "listed")}
    listed = {"toy.py:C.listed": "reached after all", "toy.py:gone": "deleted since"}
    assert _reach_faults({"toy.py": toy}, called, listed) == [
        "toy.py:4 dead is reached by no stage and is not listed",
        "toy.py:C.listed is listed, but the stages reach it",
        "toy.py:gone is listed, but no such function is defined",
    ]
