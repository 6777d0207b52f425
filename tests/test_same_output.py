import importlib.util
import os

import pytest

SAME_OUTPUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_output.py")


@pytest.fixture(scope="module")
def same_output():
    spec = importlib.util.spec_from_file_location("same_output", SAME_OUTPUT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_moves_per_number_and_per_file(same_output):
    # 2.0 -> 2.5 moves that number by 0.25 and the file, whose largest
    # number is 4, by 0.125; a number written another way does not move
    assert same_output.moves("t,x\n2.0,-4\n", "t,x\n2.5,-4.0\n") == (0.25, 0.125)
    assert same_output.moves("1.50", "1.5") == (0.0, 0.0)
    assert same_output.moves("h,1.0", "n,1.0") is None


def test_compare_names_each_differing_file(same_output, tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for side, norms in ((old, "1.0,2.0\n"), (new, "1.0,2.000002\n")):
        (side / "run" / "files").mkdir(parents=True)
        (side / "run" / "files" / "norms.csv").write_text(norms)
        (side / "run" / "exit_code.txt").write_text("0\n")
    (new / "run" / "stderr.txt").write_text("")
    assert same_output.main(["--compare", str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["run/files/norms.csv: largest move 1.00e-06 of a number, 1.00e-06 of the file's largest",
                   f"run/stderr.txt: only in {new}",
                   "2 of 3 files differ"]
    assert same_output.main(["--compare", str(old), str(old)]) == 0
