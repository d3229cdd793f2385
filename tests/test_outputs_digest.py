"""The CLI's outputs over a sample of small instances, pinned by digest.

Six commands run in-process on every 7th instance of
``gen_instances(EnumSpec(max_edges=4))`` (520 instances, 3,120 outputs):
``verify --json --suite all``, ``chart``, ``blowup-report``,
``indices --json``, ``contract`` and ``contract --dot``.  Each command's
exit codes, stdout and stderr, in enumeration order, are hashed into one sha256 line of
``tests/golden/outputs.sha256``, so a refactor that changes any output fails
here and names the command.  After a declared change of output, regenerate
the file with ``PYTHONPATH=src python tests/test_outputs_digest.py``.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leveltree.cli import run  # noqa: E402
from leveltree.enumerate import EnumSpec, gen_instances  # noqa: E402
from leveltree.tree import tree_json  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "outputs.sha256"
COMMANDS = (["verify", "--json", "--suite", "all"], ["chart"], ["blowup-report"],
            ["indices", "--json"], ["contract"], ["contract", "--dot"])


def output_digests(path: Path) -> list[str]:
    """One ``<sha256>  <command>`` line per command, over the sample; each
    instance is written to ``path`` in turn."""
    hashes = [hashlib.sha256() for _ in COMMANDS]
    for n, t in enumerate(gen_instances(EnumSpec(max_edges=4))):
        if n % 7:
            continue
        path.write_text(tree_json(t.base, t.level))
        for (name, *flags), h in zip(COMMANDS, hashes):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run([name, str(path), *flags])
            h.update(f"#{n} exit {code}\n{out.getvalue()}\n--\n{err.getvalue()}\n==\n"
                     .encode())
    return [f"{h.hexdigest()}  {' '.join(argv)}" for argv, h in zip(COMMANDS, hashes)]


def test_cli_outputs_match_the_digest(tmp_path):
    assert output_digests(tmp_path / "instance.json") == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text("\n".join(output_digests(Path(tmp) / "instance.json")) + "\n")
