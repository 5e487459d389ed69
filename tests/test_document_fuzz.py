"""Exit contract of the document commands under seeded mutations.

Documents written by `serialize` are mutated with stdlib `random`: a line
dropped or duplicated, a degree changed, the bytes truncated or given
bytes that are not UTF-8, a coefficient rewritten as a decimal, a
non-canonical fraction, a zero, a zero denominator or a 5000-digit
integer.  `validate --file` and `homology --file` must exit 0, 1 or 2 on
each, with no exception escaping `main`, and every (stdout, stderr, exit
code) is pinned by one digest.
"""

import hashlib
import random

from floer_workbench import cli, fixtures

COEFFICIENTS = ["1.5", "2/4", "-0", "0/7", "1/0", "3/06", "7" * 5000]
BAD_BYTES = [b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80", b"\xfe\xff"]
MATRIX_SECTIONS = {b"differential": 3, b"u": 3, b"delta": 2, b"delta_prime": 2}


def _base_documents() -> list:
    docs = [fixtures.serialize(fixtures.builtin(spec))
            for spec in ("Pplus", "Pminus", "nPplusModel:3", "NilpotentLadder:3")]
    for seed in range(6):
        docs.append(fixtures.serialize(
            fixtures.random_admissible(random.Random(seed), max_gens=8)))
        docs.append(fixtures.serialize(
            fixtures.random_homology_sphere(random.Random(100 + seed))))
    rng = random.Random(35)
    while True:  # one document of the size the chain benchmark reads
        data = fixtures.random_admissible(rng, max_gens=35)
        if data.size >= 24:
            docs.append(fixtures.serialize(data))
            return [doc.encode() for doc in docs]


def _mutate(rng: random.Random, doc: bytes) -> bytes:
    lines = doc.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        k = rng.randrange(len(lines))
        if op == 0:
            del lines[k]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[k])
        elif op == 2:  # a degree: the second token of a generator line
            section, degree_lines = None, []
            for i, line in enumerate(lines):
                if line and not line[:1].isspace():
                    section = line
                elif section == b"generators" and len(line.split()) == 2:
                    degree_lines.append(i)
            if degree_lines:
                i = rng.choice(degree_lines)
                name, degree = lines[i].split()
                new = (int(degree) + rng.randint(1, 8)) % 9
                lines[i] = b"  " + name + b" " + str(new).encode()
        else:  # a coefficient: the last token of a matrix or vector line
            section, coeff_lines = None, []
            for i, line in enumerate(lines):
                if line and not line[:1].isspace():
                    section = line
                elif len(line.split()) == MATRIX_SECTIONS.get(section):
                    coeff_lines.append(i)
            if coeff_lines:
                i = rng.choice(coeff_lines)
                tokens = lines[i].split()
                tokens[-1] = rng.choice(COEFFICIENTS).encode()
                lines[i] = b"  " + b" ".join(tokens)
    text = b"\n".join(lines)
    if rng.random() < 0.15:
        text = text[:rng.randrange(len(text) + 1)]
    if rng.random() < 0.1:
        k = rng.randrange(len(text) + 1)
        text = text[:k] + rng.choice(BAD_BYTES) + text[k:]
    return text


def test_document_commands_keep_the_exit_contract(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2024)
    bases = _base_documents()
    digest, codes = hashlib.sha256(), set()
    for i in range(240):
        with open("doc.fx", "wb") as fh:
            fh.write(_mutate(rng, bases[i % len(bases)]))
        for command in ("validate", "homology"):
            code = cli.main([command, "--file", "doc.fx"])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (i, command, code, err)
            codes.add(code)
            digest.update(("%d %s\0%s\0%s\0%d\n" % (i, command, out, err, code)).encode())
    assert codes == {0, 1, 2}
    # recorded while document coefficients were read as Fractions
    assert digest.hexdigest() == (
        "a9e449214ae1c8aa7f69dd67cfeb4a92c7443224028390055eb3f37c4349c3bb")
