"""The report and exit code of tools/same_behaviour.py, on differences built by
hand (a whole run of the tool takes minutes; tools/same_behaviour.py runs it)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_behaviour.py"
spec = importlib.util.spec_from_file_location("same_behaviour", TOOL)
same_behaviour = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_behaviour)

BASE = ({"train_flatten": (0, b"ok\n", b""), "detect_pool": (0, b"", b"")},
        {"models/flatten.model": "aa" * 32, "timelines/pool.csv": "bb" * 32})
CHANGE = ({"train_flatten": (0, b"ok\n", b""), "detect_pool": (1, b"", b"")},
          {"models/flatten.model": "cc" * 32, "timelines/pool.csv": "bb" * 32})


def test_differences_name_their_command_or_file():
    found = same_behaviour.differences(BASE, CHANGE)
    assert found == [("detect_pool", "detect_pool: exit 0 != 1"),
                     ("models/flatten.model",
                      f"file models/flatten.model: sha256 {'a' * 16} != {'c' * 16}")]


def test_the_tree_against_itself_reports_nothing():
    assert same_behaviour.differences(BASE, BASE) == []
    assert same_behaviour.sort_out([], []) == ([], 0, 0)


@pytest.mark.parametrize("globs, lines, expected, code", [
    ([], ["detect_pool: exit 0 != 1", "file models/flatten.model: ..."], 0, 1),
    (["detect_*", "models/*"],
     ["expected: detect_pool: exit 0 != 1", "expected: file models/flatten.model: ..."], 2, 0),
    (["models/*"], ["detect_pool: exit 0 != 1", "expected: file models/flatten.model: ..."], 1, 1),
    (["*", "nothing-*"], ["expected: detect_pool: exit 0 != 1",
                          "expected: file models/flatten.model: ...",
                          "--expect-diff nothing-*: matches no difference"], 2, 1),
], ids=["no glob", "every difference expected", "one difference unexpected", "a glob matches none"])
def test_expect_diff_globs(globs, lines, expected, code):
    found = [("detect_pool", "detect_pool: exit 0 != 1"),
             ("models/flatten.model", "file models/flatten.model: ...")]
    assert same_behaviour.sort_out(found, globs) == (lines, expected, code)


def test_an_unmatched_glob_fails_a_run_with_no_difference():
    assert same_behaviour.sort_out([], ["*flatten*"]) == (
        ["--expect-diff *flatten*: matches no difference"], 0, 1)
