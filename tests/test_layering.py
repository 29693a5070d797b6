"""Which padland module may import which, read from the source with ast.

Each file format and each check has one owning module, and `cli` only
parses arguments, calls the library and writes; these tests keep it so.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "padland"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def imports(module: str) -> dict[str, set[str]]:
    """The padland modules that module imports from, each with the names
    it binds from them (empty for a plain `import padland.x`)."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("padland."):
                    found.setdefault(alias.name.removeprefix("padland."), set())
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.level == 0 and node.module and node.module.startswith("padland."):
                found.setdefault(node.module.removeprefix("padland."), set()).update(names)
            elif node.level == 1 and node.module:
                found.setdefault(node.module, set()).update(names)
            elif node.level == 1 or node.module == "padland":  # from . import x
                for name in names:
                    found.setdefault(name, set())
    return found


def calls(tree: ast.AST) -> set[str]:
    """The names that tree calls, as `f(...)` or `x.f(...)`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            found.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return found


def test_cli_imports_only_the_layers_it_dispatches_to():
    found = imports("cli")
    assert {"config", "harness", "reporting"} <= set(found)  # the reader finds imports at all
    assert set(found) <= {"config", "harness", "reporting", "stats", "gating", "servo"}
    # bench/spans.py wraps these two names on padland.cli; nothing in cli calls them
    assert found.get("gating", set()) <= {"select_expert"}
    assert found.get("servo", set()) <= {"compute_errors"}


def top_level_names(tree: ast.Module) -> set[str]:
    """The functions, classes and variables a module's source defines at top level."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return defined


def test_experts_defines_no_log_layout():
    defined = top_level_names(ast.parse((SRC / "experts.py").read_text()))
    assert not {name for name in defined if name.startswith("LOG_")}
    assert not defined & {"_detection", "replay_detect"}


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("cli", "__main__")])
def test_no_module_imports_cli(module):
    # __main__ is `python -m padland`, the command line's other entry point
    assert "cli" not in imports(module)


FILE_WRITERS = {"write_text", "write_bytes", "mkdir", "open"}


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("reporting", "cli")])
def test_only_reporting_and_cli_write_files(module):
    # reporting writes every output format and cli the files its subcommands
    # name; every other module only computes, reading through config.read_text
    assert not calls(ast.parse((SRC / f"{module}.py").read_text())) & FILE_WRITERS


# the classes whose fields geometry.check_fields checks, by module
CHECKED_CLASSES = {
    "geometry": {"CameraModel", "HelipadSpec"},
    "servo": {"ControllerGains"},
    "dynamics": {"DynamicsParams"},
    "experts": {"ExpertProfile"},
    "gating": {"GateState"},
    "harness": {"Scenario", "TrialConfig", "TrialResult"},
}
TYPE_RULES = {"_is_finite", "_is_integer", "check_value", "check_fields"}


def math_names(tree: ast.AST) -> set[str]:
    """The names tree reads from math (`math.x`, or `from math import x`)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math":
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.update(alias.name for alias in node.names)
    return found


def test_one_owner_for_the_number_rules_and_the_campaign_check():
    # geometry owns the one rule per field annotation: the nine parameter
    # and result classes check their fields' types through check_fields
    # first, and keep only their range and relational rules; no other
    # module tests finiteness itself. harness.check_campaign is the one
    # check of a campaign's modes.
    checked = set()
    for module in MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "check_modes" not in defined, module
        if module == "geometry":
            assert TYPE_RULES <= defined
        else:
            assert not defined & TYPE_RULES, module
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in CHECKED_CLASSES.get(module, ()):
                (post,) = [n for n in cls.body if getattr(n, "name", None) == "__post_init__"]
                assert ast.unparse(post.body[0]) == "check_fields(self)", cls.name
                calls_in_post = [n for n in ast.walk(post) if isinstance(n, ast.Call)]
                called = {getattr(n.func, "id", None) for n in calls_in_post}
                assert not called & {"_is_finite", "_is_integer", "isinstance"}, cls.name
                assert not math_names(post), cls.name
                checked.add(cls.name)
        if module == "reporting":  # the detection-log reader's cells are not fields
            tree.body = [n for n in tree.body if getattr(n, "name", None) != "_parse_record"]
        if module != "geometry":
            assert not math_names(tree) & {"isfinite", "inf"}, module
    assert checked == set().union(*CHECKED_CLASSES.values())
    # the reader finds math names at all
    assert "isfinite" in math_names(ast.parse((SRC / "reporting.py").read_text()))


PARAMETER_CLASSES = {
    "CameraModel",
    "HelipadSpec",
    "ControllerGains",
    "DynamicsParams",
    "ExpertProfile",
    "Scenario",
    "TrialConfig",
}


def test_config_builds_parameter_objects_only_through_section():
    # _section reads each key by its field's annotation, so no call in
    # config states a section's key types a second time
    tree = ast.parse((SRC / "config.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_section" in defined and "_numbers" not in defined
    built = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = getattr(node.func, "id", None)
            args = node.args + [k.value for k in node.keywords]
            passed = {a.id for a in args if isinstance(a, ast.Name)}
            if func == "_section":
                built |= passed & PARAMETER_CLASSES
            elif func != "field":  # CampaignSpec's default_factory
                assert not ({func} | passed) & PARAMETER_CLASSES, func
    assert built == PARAMETER_CLASSES
    # one reader, _read: _section's key, and by hand only the three keys
    # that are not fields
    assert not defined & {"_integer", "_number", "_floats"}
    assert "_READERS" not in top_level_names(tree)
    keys = {
        ast.unparse(node.args[1])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_read"
    }
    assert keys == {
        "f'{section}.{name}'",
        "'helipad.center'",
        "'gains.z_ref'",
        "f'{base}.distractor_offset_m'",
    }


# the config keys that are not fields of a parameter class
NON_FIELD_KEYS = {"center", "z_ref", "distractor_offset_m"}


def test_only_config_doc_writes_the_keys_that_are_not_fields():
    # config_doc is the one writer of a config document, so a key it writes
    # (a dict literal's key or a subscript stored to) is converted in one place
    writers = set()
    for module in MODULES:
        for top in ast.parse((SRC / f"{module}.py").read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Dict):
                    keys = node.keys
                elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    keys = [node.slice]
                else:
                    continue
                if any(isinstance(k, ast.Constant) and k.value in NON_FIELD_KEYS for k in keys):
                    writers.add((module, getattr(top, "name", None)))
    assert writers == {("config", "config_doc")}


def test_no_module_names_an_expert_id():
    # an expert is the slot it fills (far_profile, det_far, FAR's log fields
    # first): no profile or detection carries its name a second time
    def names(module: str) -> set[str]:
        found = set()
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
            if isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Name):  # a class field's annotated name too
                found.add(node.id)
            elif isinstance(node, (ast.arg, ast.keyword)):
                found.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)  # getattr(x, "expert_id"), doc["expert_id"]
        return found

    assert "Detection" in names("experts")  # the reader finds names at all
    assert [m for m in MODULES if "expert_id" in names(m)] == []


def test_trial_and_replay_pack_each_frame_in_one_loop():
    # run_trial and replay_log pack each frame's row onto one bytearray as
    # they go: no block size, no block packer, and no loop around the frame loop
    tree = ast.parse((SRC / "harness.py").read_text())
    defined = top_level_names(tree)
    assert "run_trial" in defined and "replay_log" in defined  # the reader finds names at all
    assert not defined & {"RECORD_BLOCK", "_rows"}
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("run_trial", "replay_log"):
        loops = [n for n in ast.walk(functions[name]) if isinstance(n, (ast.For, ast.While))]
        assert len(loops) == 1, name  # a comprehension's `for` is not a statement


def loop_counters(target: ast.AST, iterable: ast.AST) -> set[str]:
    """The names a `for target in iterable` binds to a counter: the items of
    a `range`, iterated or zipped, and the index of an `enumerate`."""

    def called(name: str) -> bool:
        return isinstance(iterable, ast.Call) and getattr(iterable.func, "id", None) == name

    def names(node: ast.AST) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    if called("range"):
        return names(target)
    if called("enumerate") and isinstance(target, ast.Tuple):
        index, item = target.elts
        return names(index) | loop_counters(item, iterable.args[0])
    if called("zip") and isinstance(target, ast.Tuple):
        return set().union(*map(loop_counters, target.elts, iterable.args))
    return set()


def test_no_layout_stores_a_frame_number():
    # frame k is row k of every record, log and replay array, and reporting
    # writes each CSV's first column (`step` or `frame`) as the row's number:
    # no layout holds that column, and neither frame loop packs its counter
    from padland.harness import (
        DERIVED_COLUMNS,
        RECORD_COLUMNS,
        REPLAY_COLUMNS,
        REPLAY_HEADER,
        TRAJECTORY_HEADER,
    )
    from padland.reporting import LOG_HEADER

    numbers = {header.split(",")[0] for header in (TRAJECTORY_HEADER, REPLAY_HEADER, LOG_HEADER)}
    assert numbers == {"step", "frame"}
    assert not numbers & {*RECORD_COLUMNS, *REPLAY_COLUMNS}
    stored = tuple(c for c in REPLAY_HEADER.split(",")[1:] if c not in DERIVED_COLUMNS)
    assert REPLAY_COLUMNS == stored

    def counters(source: str) -> set[str]:
        loop = ast.parse(source).body[0]
        return loop_counters(loop.target, loop.iter)

    # the reader finds counters at all
    assert counters("for k, (a, b) in zip(range(n), c): pass") == {"k"}
    assert counters("for k, (i, a) in zip(c, enumerate(d)): pass") == {"i"}
    assert counters("for t, a in zip((k * dt for k in range(n)), c): pass") == set()
    tree = ast.parse((SRC / "harness.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("run_trial", "replay_log"):
        (loop,) = [n for n in ast.walk(functions[name]) if isinstance(n, ast.For)]
        (pack,) = [
            n for n in ast.walk(loop) if isinstance(n, ast.Call)
            and "pack" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
        ]
        packed = {n.id for arg in pack.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
        assert "code" in packed, name  # the reader finds the pack call's arguments at all
        assert not packed & loop_counters(loop.target, loop.iter), name


# what follows from a stored cell: `t` is the row number times
# dynamics.dt, e_x, e_y, A and e_z are servo.compute_errors of the smoothed
# box, and vx_cmd, vy_cmd and vz_cmd servo.compute_command of those
DERIVED = {"t", "e_x", "e_y", "A", "e_z", "vx_cmd", "vy_cmd", "vz_cmd"}


def test_no_layout_stores_a_derived_cell():
    # the writers derive these cells block by block, and reporting gets the
    # servo cells only from compute_errors and the command only from
    # compute_command, each named once: it reads none of the camera's
    # principal point or the gains' fields itself, reads no box's area,
    # width or height (so it cannot multiply them) and names no hypot, so
    # the formulas keep their one home in servo
    from padland.harness import RECORD_COLUMNS, REPLAY_COLUMNS, REPLAY_HEADER, TRAJECTORY_HEADER

    written = {*TRAJECTORY_HEADER.split(","), *REPLAY_HEADER.split(",")}
    assert DERIVED <= written  # the CSVs still hold them
    assert not DERIVED & {*RECORD_COLUMNS, *REPLAY_COLUMNS}
    tree = ast.parse((SRC / "reporting.py").read_text())
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert {"camera", "gains"} <= attributes  # the reader finds attributes at all
    assert not attributes & {"cx", "cy", "area", "w", "h"}
    assert not attributes & {"area_ref", "k_xy", "k_z", "v_lat_max", "align_threshold"}
    named = [n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
    assert "hypot" not in {*attributes, *named}
    assert named.count("compute_errors") == named.count("compute_command") == 1


def test_perceive_is_the_one_home_of_the_no_box_rule():
    # perceive returns a frame's four cells, one shared all-NaN tuple when
    # there is no smoothed box, so neither loop works out for itself what
    # such a frame records: _BLANKS and _HOLD, the command it holds, are
    # read only in perceive (the writers, which derive the command, take
    # _HOLD from harness), and no loop tests a name it unpacks from
    # perceive's result against None
    tree = ast.parse((SRC / "harness.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for rule in ("_BLANKS", "_HOLD"):
        readers = {
            name
            for name, function in functions.items()
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and node.id == rule
        }
        assert readers == {"perceive"}, rule
    assert "_REPLAY_BLANKS" not in top_level_names(tree)
    for name in ("run_trial", "replay_log"):
        unpacked = {
            target.id
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Assign)
            and getattr(getattr(node.value, "func", None), "id", None) == "perceive"
            for target in ast.walk(node.targets[0])
            if isinstance(target, ast.Name)
        }
        assert "cells" in unpacked, name  # the reader finds perceive's result at all
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(o, ast.Constant) and o.value is None for o in operands):
                    named = {n.id for o in operands for n in ast.walk(o) if isinstance(n, ast.Name)}
                    assert not named & unpacked, (name, ast.unparse(node))


def compares_a_field_with_a_number(node: ast.AST) -> bool:
    """Whether node compares `self.<field>` or `getattr(self, ...)` with a
    number literal (a negated one too) on either side of one operator."""

    def is_field(n):
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr":
            n = n.args[0]
        elif isinstance(n, ast.Attribute):
            n = n.value
        else:
            return False
        return getattr(n, "id", None) == "self"

    def is_number(n):
        if isinstance(n, ast.UnaryOp):
            n = n.operand
        return isinstance(n, ast.Constant) and type(n.value) in (int, float)

    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(
        is_field(a) and is_number(b) or is_number(a) and is_field(b)
        for a, b in zip(operands, operands[1:])
    )


def test_a_rule_on_one_field_is_its_annotation():
    # each one-field range rule is a ranged annotation (geometry.ranged), so
    # __post_init__ keeps only rules between fields and compares no field
    # with a number; Scenario's gate fields carry the gate's annotations
    assert compares_a_field_with_a_number(ast.parse("0 < self.x < min(y)").body[0].value)
    assert compares_a_field_with_a_number(ast.parse("getattr(self, n) <= -1").body[0].value)
    assert not compares_a_field_with_a_number(ast.parse("self.x < min(self.y)").body[0].value)
    posts = {}
    for module, classes in CHECKED_CLASSES.items():
        for cls in ast.parse((SRC / f"{module}.py").read_text()).body:
            if isinstance(cls, ast.ClassDef) and cls.name in classes:
                (post,) = [n for n in cls.body if getattr(n, "name", None) == "__post_init__"]
                posts[cls.name] = post
    assert set(posts) == set().union(*CHECKED_CLASSES.values())
    for name, post in posts.items():
        assert not any(map(compares_a_field_with_a_number, ast.walk(post))), name
    scenario = posts["Scenario"]
    assert [ast.unparse(n) for n in scenario.body] == ["check_fields(self)"]
    assert "GateState" not in {getattr(n, "id", None) for n in ast.walk(scenario)}


def test_version_has_one_source():
    # pyproject reads the version from padland.__version__ and repeats no number
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    dynamic = project["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "padland.__version__"}


def function(module: str, name: str) -> ast.FunctionDef:
    """The top-level function name of module's source."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def test_each_frame_path_formula_has_one_home():
    # the gate's L1 distance, the pad's apparent width f * D / z and a box's
    # area each have one function, which the frame path calls, not a copy
    def read(node: ast.AST) -> set[str]:
        """The names and attributes node reads."""
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
        }

    gate = function("gating", "select_expert")
    assert {"box_far", "box_near", "last_selected"} <= read(gate)  # the reader finds reads at all
    assert "l1_center_distance" in calls(gate)
    assert not read(gate) & {"cx", "cy"}
    project = function("geometry", "project_helipad")
    assert "apparent_width" in calls(project)
    assert "side_length" not in read(project)
    errors = function("servo", "compute_errors")
    assert "area" in read(errors)
    products = [
        ast.unparse(n) for n in ast.walk(errors)
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
        and read(n) & {"box", "u", "v", "w", "h"}  # the box, or a field unpacked from it
    ]
    assert products == []
