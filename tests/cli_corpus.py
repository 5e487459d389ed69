"""The byte-identity corpus of the phi, h and verify-sum-bound commands.

tests/data/cli_corpus.json maps each argv to the sha256 of its exit code,
stdout and stderr, as cli.main produced them in process.  An argv token
{doc:ARGV} stands for a document file: the text that cli.main writes to
stdout for ARGV (a `fixtures` command).  The file's path is replaced by the
token again in the captured output, so the hashes do not depend on where
the documents are written.

Regenerate only in a change that lists each changed output and why:

    PYTHONPATH=src python tests/cli_corpus.py > tests/data/cli_corpus.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from floer_workbench import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "cli_corpus.json")

# argparse wraps usage lines to the terminal width, which it reads from
# COLUMNS; every run of the corpus fixes it
COLUMNS = "80"

BUILTINS = ("Pplus", "Pminus", "TrefoilLikeSynthetic")
ORDERED = ("nPplusModel", "NilpotentLadder")
ORDERS = (1, 2, 3, 5, 8, 16, 40)
U_PARAMS = (-3, -1, 0, 1, 2)
VSB = "verify-sum-bound"


def _doc(argv: str) -> str:
    return "{doc:%s}" % argv


def _phi_h_argvs() -> list:
    specs = list(BUILTINS) + ["%s:%d" % (name, k) for name in ORDERED for k in ORDERS]
    out = []
    for spec in specs:
        for u in U_PARAMS:
            base = ["--fixture", spec, "--u-param", str(u)]
            out.append(["phi"] + base)
            out.append(["phi"] + base + ["--mode", "plus"])
            out.append(["h"] + base)
        out.append(["phi", "--fixture", spec, "--json"])
        out.append(["h", "--fixture", spec, "--json"])
    out += [
        ["phi", "--fixture", "NilpotentLadder:200"],
        ["phi", "--fixture", "NilpotentLadder:201"],
        ["h", "--fixture", "nPplusModel:180"],
        ["h", "--fixture", "nPplusModel:181"],
        ["phi", "--fixture", "NilpotentLadder:7", "--class", "z3"],
        ["phi", "--fixture", "NilpotentLadder:7", "--class", "w5", "--mode", "plus"],
        ["phi", "--fixture", "nPplusModel:6", "--class", "x0_2", "--mode", "plus"],
        ["phi", "--fixture", "Pplus", "--class", "rho0", "--u-param", "-3"],
        ["phi", "--fixture", "NilpotentLadder:3", "--class", "nosuch"],
        ["phi", "--file", _doc("fixtures --emit NilpotentLadder:4")],
        ["phi", "--file", _doc("fixtures --emit nPplusModel:400"), "--class", "x4_1"],
        ["h", "--file", _doc("fixtures --emit nPplusModel:400")],
    ]
    return out


def _nilpotent_document_argvs() -> list:
    """20 seeded random nilpotent documents, orders 1 to 28: the document
    itself, phi in both modes on the first generator of psi, and h."""
    out = []
    for seed in range(20):
        gen = "fixtures --random nilpotent --order %d --seed %d" % (1 + 3 * seed % 30, seed)
        out.append(gen.split())
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.main(gen.split())
        # the trailer's last line reads "# psi NAME:COEFF ..."
        name = text.getvalue().rstrip("\n").rsplit("\n", 1)[-1].split()[2].split(":")[0]
        out.append(["phi", "--file", _doc(gen), "--class", name])
        out.append(["phi", "--file", _doc(gen), "--class", name, "--mode", "plus"])
        out.append(["h", "--file", _doc(gen)])
    return out


def _sum_bound_argvs() -> list:
    out = []
    for k in range(1, 49):
        lad = "NilpotentLadder:%d" % k
        out.append([VSB, "--a", lad, "--b", lad])
        out.append([VSB, "--a", lad, "--b", lad, "--c", lad])
    for k in (1, 2, 5, 17, 48):
        lad = "NilpotentLadder:%d" % k
        out.append([VSB, "--a", lad, "--b", lad, "--json"])
        out.append([VSB, "--a", lad, "--b", lad, "--c", lad, "--json"])
        out.append([VSB, "--a", lad, "--b", lad, "--n", str(k + 1)])
        out.append([VSB, "--a", lad, "--b", lad, "--c", lad, "--n", str(k)])
    for j, k in ((1, 3), (3, 1), (2, 5), (5, 2), (4, 9), (9, 4), (7, 30)):
        a, b = "NilpotentLadder:%d" % j, "NilpotentLadder:%d" % k
        out.append([VSB, "--a", a, "--b", b])
        out.append([VSB, "--a", a, "--b", b, "--c", b])
        out.append([VSB, "--a", b, "--b", a, "--c", b])
    for j, k, l in ((2, 3, 4), (4, 3, 2), (6, 6, 1), (1, 6, 6), (12, 12, 12)):
        out.append([VSB, "--a", "NilpotentLadder:%d" % j, "--b", "NilpotentLadder:%d" % k,
                    "--c", "NilpotentLadder:%d" % l])
    out += [
        [VSB, "--a", "NilpotentLadder:6", "--b", "NilpotentLadder:6",
         "--functional-l", "z3", "--functional-m", "z4"],
        [VSB, "--a", "NilpotentLadder:6", "--b", "NilpotentLadder:6",
         "--c", "NilpotentLadder:6", "--functional-l", "z5", "--functional-m", "z6",
         "--functional-r", "z4"],
        [VSB, "--a", "TrefoilLikeSynthetic", "--b", "TrefoilLikeSynthetic"],
        [VSB, "--a", "TrefoilLikeSynthetic", "--b", "TrefoilLikeSynthetic",
         "--c", "TrefoilLikeSynthetic"],
        [VSB, "--a", "TrefoilLikeSynthetic", "--b", "NilpotentLadder:3",
         "--c", "NilpotentLadder:3"],
        [VSB, "--a", "Pminus", "--b", "TrefoilLikeSynthetic", "--u-param", "-3"],
        # refusals
        [VSB, "--a", "NilpotentLadder:49", "--b", "NilpotentLadder:1"],
        [VSB, "--a", "NilpotentLadder:1", "--b", "NilpotentLadder:1",
         "--c", "NilpotentLadder:49"],
        [VSB, "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2", "--n", "1"],
        [VSB, "--a", "NilpotentLadder:1", "--b", "NilpotentLadder:1",
         "--c", "NilpotentLadder:2", "--n", "2", "--functional-r", "z2"],
        [VSB, "--a", "NilpotentLadder:3", "--b", "NilpotentLadder:3",
         "--n", "5"],
        [VSB, "--a", "Pminus", "--b", "NilpotentLadder:1"],
        [VSB, "--a", "nPplusModel:2", "--b", "NilpotentLadder:1"],
        [VSB, "--a", "NilpotentLadder:2"],
        [VSB, "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2", "--n", "0"],
        [VSB, "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2",
         "--functional-l", "nosuch"],
        [VSB, "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2",
         "--functional-l", "w1"],
        [VSB, "--a", "NoSuchFixture", "--b", "NilpotentLadder:2"],
    ]
    ladder = _doc("fixtures --emit NilpotentLadder:100")
    out.append([VSB, "--file-a", ladder, "--file-b", ladder, "--file-c", ladder,
                "--functional-l", "z100", "--functional-m", "z100",
                "--functional-r", "z100"])
    out.append([VSB, "--file-a", ladder, "--file-b", ladder,
                "--functional-l", "z100", "--functional-m", "z100"])
    return out


def argvs() -> list:
    return _phi_h_argvs() + _nilpotent_document_argvs() + _sum_bound_argvs()


def _capture(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Runs corpus argvs through cli.main, writing each {doc:...} document
    once into a directory of its own."""

    def __init__(self, directory: str):
        self.directory = directory
        self.paths = {}

    def _path(self, token: str) -> str:
        if token not in self.paths:
            code, text, _ = _capture(token[len("{doc:"):-1].split())
            assert code == 0, token
            path = os.path.join(self.directory, "doc%d.txt" % len(self.paths))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths[token] = path
        return self.paths[token]

    def digest(self, argv: list) -> str:
        tokens = [t for t in argv if t.startswith("{doc:")]
        resolved = [self._path(t) if t.startswith("{doc:") else t for t in argv]
        code, out, err = _capture(resolved)
        for token in tokens:
            out = out.replace(self.paths[token], token)
            err = err.replace(self.paths[token], token)
        blob = json.dumps([code, out, err]).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def main() -> None:
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as directory:
        runner = Runner(directory)
        entries = [{"argv": argv, "sha256": runner.digest(argv)} for argv in argvs()]
    lines = ",\n".join("  " + json.dumps(entry) for entry in entries)
    sys.stdout.write('{"entries": [\n%s\n]}\n' % lines)


if __name__ == "__main__":
    main()
