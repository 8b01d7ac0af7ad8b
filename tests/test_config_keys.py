"""The config-key table (`cli.CONFIG_KEYS`): README renders it, README's
example configs load under it, and no value of any key makes a command
raise or end `aborted`."""

import copy
import json
import math
import re
from pathlib import Path

import pytest

from gapwalk import cli, expander_gen as eg

README = Path(__file__).resolve().parents[1] / "README.md"
BEGIN, END = "<!-- config-keys:begin -->", "<!-- config-keys:end -->"


def _literal(value) -> str:
    return {cli.INT_MAX: "2^63-1", -cli.INT_MAX - 1: "-2^63"}.get(value, str(value))


def render_config_keys() -> str:
    """The README block: one table line per CONFIG_KEYS row."""
    lines = ["| key | commands | kind | default |", "|---|---|---|---|"]
    for path, (commands, kind, default, *limits) in cli.CONFIG_KEYS.items():
        if kind in ("int", "ints"):
            kind += f" in [{_literal(limits[0][0])}, {_literal(limits[0][1])}]"
        elif kind == "choice":
            kind = "one of " + ", ".join(f"`{json.dumps(c)}`" for c in limits[0])
        if default is cli.REQUIRED:
            default = "required"
        elif isinstance(default, dict):
            default = ", ".join(f"`{json.dumps(v)}` ({k})" for k, v in default.items())
        elif default is not None:
            default = f"`{json.dumps(default)}`"
        who = "all" if set(commands) == set(cli.COMMANDS) else ", ".join(commands)
        lines.append(f"| `{path}` | {who} | {kind} | {default or ''} |")
    return "\n".join(lines)


def test_readme_lists_the_config_keys_of_the_table():
    text = README.read_text()
    block = text[text.index(BEGIN) + len(BEGIN): text.index(END)]
    assert block.strip() == render_config_keys()


def test_every_row_names_known_commands_and_kinds():
    kinds = {"int", "number", "str", "bool", "choice", "ints", "numbers", "strs", "object", "objects"}
    for path, (commands, kind, default, *limits) in cli.CONFIG_KEYS.items():
        assert set(commands) <= set(cli.COMMANDS) and commands, path
        assert kind in kinds, path
        assert bool(limits) == (kind in ("int", "ints", "choice")), path
        parent = path.rpartition(".")[0]
        if parent:  # a nested key's section is a row of the same commands
            assert set(commands) <= set(cli.CONFIG_KEYS[parent.removesuffix("[]")][0]), path
        if kind in ("int", "ints"):
            assert limits[0][1] <= cli.INT_MAX, path


def test_readme_example_configs_load_under_the_table():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 3
    for block in blocks:
        cfg = json.loads(block)
        fits = []
        for name in cli.COMMANDS:
            run = cli.Run.__new__(cli.Run)
            run.name = name
            try:
                run.check_keys(cfg)
            except cli.UsageError:
                continue
            fits.append(name)
        assert fits, block


# -- the fuzzer -------------------------------------------------------------------

PETERSEN_INSTANCE = {"mode": "scaled", "degrees": [4, 3], "depths": [1, 2],
                     "expander": {"petersen": True}, "padding_ratio": 0.0625}
# Each command's smallest valid configs: a Petersen core and one or two trials.
# Where the keys read depend on a mode, there is one config per mode.
BASES = {
    "gen-expander": [{"expander": {"petersen": True}},
                     {"expander": {"N": 10, "d": 3, "seed": 1}}],
    "certify": [{"expander_file": "petersen.txt"}],
    "spectrum": [{"instance": PETERSEN_INSTANCE},
                 {"instance": {"mode": "standard", "n": 4}},
                 {"instance": {"mode": "custom", "lambda_e": 1.0, "expander_size": 2,
                               "trees": [{"degrees": [2], "depths": [0], "copies": 1}]}}],
    "sample-ground": [{"instance": PETERSEN_INSTANCE, "count": 2}],
    "explore-tree": [{"schedule": {"degrees": [4, 3], "depths": [1, 2]}, "trials": 2, "budget": 4,
                      "strategies": ["uniform-walk"]}],
    "explore-graph": [{"instance": PETERSEN_INSTANCE, "trials": 1, "budget": 4,
                       "oracle": {"key": "0" * 32}}],
    "ggsp": [{"instance": PETERSEN_INSTANCE, "trials": 1, "budget": 4, "t": 2,
              "oracle": {"key": "0" * 32}}],
    "bounds": [{"bounds": [
        {"name": "avoidance", "d_k": 2, "d_km1": 4, "l_k": 4, "l_km1": 1},
        {"name": "recursion", "degrees": [4, 3], "depths": [1, 2], "q_schedule": [1, 4]},
        {"name": "closed-form", "n": 16, "k": 4},
        {"name": "localization", "u_size": 2, "degree": 3, "g": 2, "n_e": 10},
        {"name": "tv-budget", "fidelity": 0.9, "tv": 0.1},
        {"name": "gap-sum", "delta": 0.5, "gamma": 1.0},
        {"name": "alpha", "lambda_e": 3.0, "max_degree": 4.0, "beta": 1.0, "tree_count": 2},
    ]}],
    "verify-small": [{}],
    "report": [{"dir": "run"}],
}
MISSING = object()
# Each key takes each of these in turn; "wrong type" is a number for a key
# that holds text and text for any other.
VALUES = ("wrong type", math.nan, math.inf, -math.inf, 0, -1, 2**70, [1], MISSING)


def put(obj: dict, parts: list, value):
    """Set (or, for MISSING, remove) the key at `parts` under `obj`, in every
    entry of a list of objects; a section on the way is made if absent."""
    head, rest = parts[0], parts[1:]
    key = head.removesuffix("[]")
    if not rest:
        if value is MISSING:
            obj.pop(key, None)
        else:
            obj[key] = value
    elif key in obj or value is not MISSING:
        held = obj.setdefault(key, {} if key == head else [{}])
        for entry in [held] if key == head else held:
            put(entry, rest, value)


def cases():
    for command, bases in BASES.items():
        paths = [p for p, row in cli.CONFIG_KEYS.items() if command in row[0]]
        for base in bases:
            for path in paths:
                kind = cli.CONFIG_KEYS[path][1]
                for value in VALUES:
                    if value == "wrong type":
                        value = 5 if kind in ("str", "choice") else "x"
                    cfg = copy.deepcopy(base)
                    put(cfg, path.split("."), value)
                    yield command, cfg


def test_no_config_value_raises_or_aborts(tmp_path, monkeypatch, capsys, in_process_pool):
    """Every key of every command, at a wrong type, NaN, +-Infinity, 0, -1,
    2**70, a list where a dict or value belongs, and left out: each run
    returns an exit code and its meta.json says the same, never `aborted`.
    verify-small's suite is replaced by one check that fails only under
    planted_defect: its inputs are the seed and that flag, and the suite is
    tested on its own."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "petersen.txt").write_text(eg.to_text(eg.petersen()))
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "records.jsonl").write_text('{"metric":"m","value":1.0,"bound":1.0,"flags":[]}\n')
    monkeypatch.setattr(cli, "run_verification_suite", lambda seed, planted_defect: [
        {"name": "stub", "measured": 0.0, "threshold": 1.0, "passed": not planted_defect}])
    seen, codes = set(), {}
    for command, cfg in cases():
        text = json.dumps(cfg, sort_keys=True)
        if (command, text) in seen:
            continue
        seen.add((command, text))
        out = tmp_path / f"o{len(seen)}"
        (tmp_path / "c.json").write_text(text)
        code = cli.main([command, "--config", "c.json", "--out", str(out)])
        assert code in cli.STATUS, (command, text)
        if (out / "meta.json").exists():
            assert json.loads((out / "meta.json").read_text())["status"] == cli.STATUS[code], (command, text)
        codes[code] = codes.get(code, 0) + 1
    capsys.readouterr()
    assert codes[cli.EXIT_OK] and codes[cli.EXIT_USAGE] and codes[cli.EXIT_CERTIFICATION], codes
