"""Exit contract of every command under seeded argv mutations.

Each argv names one command and fills its options from pools of ordinary,
malformed and oversized values: builtin orders past a command's cap or
past any int() reads, `name^k` powers past lattice.POWER_CAP, `--max-n`
and `--order` past their caps, bad `--signs` and `--class` texts, missing
values, unreadable paths and unknown flags.  Each argv goes through
cli.main in process and must end with exit 0, 1 or 2, with no exception
escaping.  Oversized requests are refused before any work, so the sweep
stays within a few seconds.
"""

import random

from floer_workbench import cli

HUGE = ["99999999999999999999", "9" * 5000]
BAD_INTS = ["0", "-1", "x", "", "1.5"] + HUGE
SMALL_SPECS = ["Pplus", "Pminus", "TrefoilLikeSynthetic", "nPplusModel:2",
               "NilpotentLadder:2", "NilpotentLadder:1"]
# past ORDER_CAP, a per-command cap or SUM_GENERATOR_CAP, but readable
OVER_CAP = ["nPplusModel:10001", "NilpotentLadder:" + HUGE[0], "nPplusModel:2000",
            "NilpotentLadder:49", "NilpotentLadder:181", "NilpotentLadder:201"]
MALFORMED = ["Nope", "nPplusModel", "Pplus:", ":3", "nPplusModel:-2",
             "nPplusModel:0", "nPplusModel:x", "nPplusModel:" + HUGE[1]]
SPECS = SMALL_SPECS + OVER_CAP + MALFORMED
CLASSES = ["zero", "w0", "w0^2", "w0^5", "halfsum", "root", "2,2,0,0,0,0,0,0",
           "1,1,1", "8,8,0,0,0,0,0,0", "w0^2049", "w0^-1", "w0^x", "zero^3",
           "w0^" + HUGE[0], "w0^" + HUGE[1], "1/3,0,0,0,0,0,0,0", "", "w0,w0"]
SIGNS = ["1,1,1,1,-1", "1,1,1,1,1", "-1,1,1,1,-1", "1,1,1,1", "2,1,1,1,1",
         "a,b,c,d,e", "1,,1,1,1", " 1, 1,1,1,-1", "1,1,1,1," + HUGE[1]]
GENERATORS = ["rho4", "rho1", "z1", "x4_1", "y1", "nope", ""]
UNKNOWN = ["--bogus", "-x", "--json=1", "--", "stray"]


def _input_options(paths):
    # --file only names unreadable paths, and with --fixture is refused
    return {"--fixture": SPECS, "--file": paths, "--u-param": ["1", "-3"] + BAD_INTS,
            "--json": None}


def _pair_options(paths):
    return {"--a": SPECS, "--b": SPECS, "--file-a": paths, "--file-b": paths,
            "--u-param": ["2"] + BAD_INTS, "--json": None}


def _templates(paths) -> dict:
    """command -> {flag: value pool, or None for a switch}."""
    one, two = _input_options(paths), _pair_options(paths)
    return {
        "validate": one, "homology": one, "reduce": one, "dualize": one,
        "connect-sum": {**two, "--signs": SIGNS, "--search": None, "--homology": None},
        "disjoint-union": {**two, "--homology": None},
        "phi": {**one, "--class": GENERATORS, "--mode": ["plus", "minus", "both"]},
        "h": one,
        "eta": {"--class": CLASSES, "--blocks": ["1", "3"] + BAD_INTS,
                "--list": None, "--workers": ["1", "2", "x"], "--json": None},
        "extremal": {"--class": CLASSES, "--json": None},
        "verify-sum-bound": {**two, "--c": SPECS, "--file-c": paths,
                             "--n": ["1", "2", "3"] + BAD_INTS,
                             "--functional-l": GENERATORS, "--functional-m": GENERATORS,
                             "--functional-r": GENERATORS},
        "poly-identities": {"--max-n": ["1", "3", "61"] + BAD_INTS, "--json": None},
        "fixtures": {"--describe": SPECS, "--emit": SPECS,
                     "--random": ["admissible", "sphere", "valid", "nilpotent", "odd"],
                     "--order": ["1", "3", "101"] + BAD_INTS,
                     "--seed": ["0", "7"] + BAD_INTS, "--u-param": ["1"] + BAD_INTS,
                     "--json": None},
    }


# a valid argv per command, which the mutations start from
BASES = {
    "validate": ["--fixture", "Pplus"], "homology": ["--fixture", "nPplusModel:2"],
    "reduce": ["--fixture", "Pminus"], "dualize": ["--fixture", "TrefoilLikeSynthetic"],
    "connect-sum": ["--a", "Pplus", "--b", "nPplusModel:2"],
    "disjoint-union": ["--a", "NilpotentLadder:1", "--b", "NilpotentLadder:2"],
    "phi": ["--fixture", "NilpotentLadder:2"], "h": ["--fixture", "Pplus"],
    "eta": ["--class", "w0"], "extremal": ["--class", "w0"],
    "verify-sum-bound": ["--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2"],
    "poly-identities": ["--max-n", "2"],
    "fixtures": ["--random", "nilpotent", "--order", "2"],
}


def _argv(rng: random.Random, templates: dict) -> list:
    """One command's valid argv with one or two mutations: an option set
    from its pool (replaced when present) or a switch added, an unknown
    flag inserted, or the last word dropped."""
    command = rng.choice(sorted(templates))
    argv = [command] + BASES[command]
    options = sorted(templates[command].items(), key=lambda item: item[0])
    for _ in range(rng.randint(1, 2)):
        kind = rng.random()
        if kind < 0.75:
            flag, pool = rng.choice(options)
            if pool is None:
                argv.append(flag)
            elif flag in argv[:-1]:
                argv[argv.index(flag) + 1] = rng.choice(pool)
            else:
                argv += [flag, rng.choice(pool)]
        elif kind < 0.9:
            argv.insert(rng.randint(1, len(argv)), rng.choice(UNKNOWN))
        elif len(argv) > 1:
            argv.pop()
    if rng.random() < 0.03:
        argv[0] = rng.choice(["", "sum", "eta2", "--help-me"])
    return argv


def test_every_argv_keeps_the_exit_contract(tmp_path, capsys):
    paths = [str(tmp_path), str(tmp_path / "missing.txt")]
    templates = _templates(paths)
    rng = random.Random(2025)
    codes = {}
    for _ in range(1500):
        argv = _argv(rng, templates)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        codes[code] = codes.get(code, 0) + 1
    assert set(codes) == {0, 1, 2} and min(codes.values()) >= 50, codes
