"""The three benchmark workloads: inputs, job lists and output checks.

A workload is one round of in-process CLI jobs, repeated in a closed loop
(one client, one job at a time).  Each workload puts most of its time in a
different set of layers, so that each optimisation on the ROADMAP has one
workload that exercises it and one that predicts no change:

- `chain`: large graded eliminations (linalg, homology, connect_sum).
- `lattice`: E8-block enumeration and the CLI's class checks; no linalg
  at all, so it is the control for eliminator and sign-search work.
- `small-jobs`: all 13 commands on small inputs, where fixed per-job costs
  dominate (argparse, fixture parsing, tiny-matrix linalg, report text).

Random documents come from `fixtures.random_*` at set-up and reach the CLI
only as `--file` paths.  Each job list is chosen so that the median and the
90th percentile of job latency fall inside a dense band of job latencies,
not on a gap between two job classes, where a percentile would flip from
run to run; the docstring of each job list says where they fall.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import oracles

WORKLOADS = ("chain", "lattice", "small-jobs")


@dataclass
class Job:
    cls: str                       # job class, for the latency bands
    argv: list
    rc: int = 0
    checks: list = field(default_factory=list)  # stdout -> failure or None
    heavy: bool = False            # skipped by the quick self-check

    def check(self, rc: Optional[int], stdout: str) -> Optional[str]:
        if rc != self.rc:
            return "exit %r, expected %d" % (rc, self.rc)
        if self.rc != 0:
            return None if stdout == "" else "stdout on a failing exit"
        for chk in self.checks:
            why = chk(stdout)
            if why:
                return why
        return None


# ---------------------------------------------------------------------------
# report checks


def fields(stdout: str) -> dict:
    """First value of each `key: value` line of a text report."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


def expect(**want) -> Callable:
    """Keys are report keys with '-' written as '_'."""
    want = {k.replace("_", "-"): str(v) for k, v in want.items()}

    def chk(stdout):
        got = fields(stdout)
        for key, value in want.items():
            if got.get(key) != value:
                return "%s: %r, expected %r" % (key, got.get(key), value)
        return None
    return chk


def expect_pairs(pairs: dict) -> Callable:
    def chk(stdout):
        got = fields(stdout)
        for key, value in pairs.items():
            if got.get(key) != value:
                return "%s: %r, expected %r" % (key, got.get(key), value)
        return None
    return chk


def expect_json(**want) -> Callable:
    want = {k.replace("_", "-"): v for k, v in want.items()}

    def chk(stdout):
        try:
            got = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        for key, value in want.items():
            if got.get(key) != value:
                return "%s: %r, expected %r" % (key, got.get(key), value)
        return None
    return chk


def search_ok(shape: str) -> Callable:
    """Every accepted config is listed and leaves the homology unchanged."""
    def chk(stdout):
        got = fields(stdout)
        listed = sum(1 for line in stdout.splitlines() if line.startswith("config "))
        if got.get("summands") != shape:
            return "summands %r, expected %r" % (got.get("summands"), shape)
        if not listed or got.get("accepted-configs") != str(listed):
            return "accepted-configs %r with %d listed" % (got.get("accepted-configs"), listed)
        if got.get("dims-invariant-across-configs") != "true":
            return "homology changes across accepted configs"
        return None
    return chk


def lattice_list_ok(coords: list, count: int) -> Callable:
    """The listed vectors are `count` distinct members of the class of the
    given coordinates with its norm."""
    ref = [c for block in oracles.doubled_blocks(coords) for c in block]
    norm = sum(c * c for c in ref)

    def chk(stdout):
        vectors = [line.partition(": ")[2].split() for line in stdout.splitlines()
                   if line.startswith("vector ")]
        if len(vectors) != count or len({tuple(v) for v in vectors}) != count:
            return "%d distinct vector lines, expected %d" % (len({tuple(v) for v in vectors}), count)
        for v in vectors:
            dv = [c for block in oracles.doubled_blocks(v) for c in block]
            if sum(c * c for c in dv) != norm:
                return "listed vector of the wrong norm"
            half = [(a - b) // 2 for a, b in zip(dv, ref)]
            if any((a - b) % 2 for a, b in zip(dv, ref)) or not all(
                    len({c % 2 for c in half[i:i + 8]}) == 1 and sum(half[i:i + 8]) % 4 == 0
                    for i in range(0, len(half), 8)):
                return "listed vector outside the class"
        return None
    return chk


# ---------------------------------------------------------------------------
# inputs


def _write(workdir: str, name: str, data, fixtures) -> tuple:
    """Serialize, write, read back and parse one generated document."""
    path = os.path.join(workdir, name + ".txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fixtures.serialize(data))
    with open(path, "r", encoding="utf-8") as fh:
        return path, fixtures.parse(fh.read(), check=False)


def _admissible(rng, fixtures, max_gens: int, lo: int, hi: int):
    """random_admissible drawn until its size lies in [lo, hi]: the size
    sets the cost, so banding it keeps one seed from dominating a run."""
    while True:
        data = fixtures.random_admissible(rng, max_gens=max_gens)
        if lo <= data.size <= hi:
            return data


def _root_block(rng) -> list:
    """A random E8 root, doubled coordinates."""
    if rng.random() < 0.5:
        block = [0] * 8
        for pos in rng.sample(range(8), 2):
            block[pos] = rng.choice((2, -2))
        return block
    signs = [rng.choice((1, -1)) for _ in range(7)]
    signs.append(1 if signs.count(-1) % 2 == 0 else -1)
    return signs


def _norm4_block(rng) -> list:
    """A random E8 vector of norm 4, doubled coordinates."""
    block = [0] * 8
    for pos in rng.sample(range(8), 4):
        block[pos] = rng.choice((2, -2))
    return block


def _class_spec(blocks: list) -> tuple:
    coords = [str(Fraction(c, 2)) for block in blocks for c in block]
    return ",".join(coords), coords


def build_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Everything a workload's jobs read, generated from the seed.

    This is the part timed as `setup_s`: the caller has just imported
    floer_workbench.  Documents are written to workdir.
    """
    from floer_workbench import fixtures
    rng = random.Random("%s/%d" % (workload, seed))
    inputs = {}
    if workload == "chain":
        # 24-35 generators: big enough that elimination, not parsing, sets
        # the cost; banded from below so every seed's documents cost about
        # the same
        inputs["docs"] = [_write(workdir, "doc%d" % i,
                                 _admissible(rng, fixtures, 35, 24, 35), fixtures)
                          for i in range(6)]
        # factor pairs of criterion 5, one per summand shape; admissible
        # factors keep criterion 5's max_gens=5
        shapes = {}
        for shape in ("ss", "as", "sa", "aa"):
            pair = []
            for side, kind in zip("ab", shape):
                data = (fixtures.random_homology_sphere(rng) if kind == "s"
                        else _admissible(rng, fixtures, 5, 2, 5))
                pair.append(_write(workdir, "search_%s_%s" % (shape, side), data, fixtures))
            shapes[shape] = pair
        inputs["search"] = shapes
        # union factors: max_gens 12, since a 21-generator self-union took
        # 1.9 s and a 35-generator one 38.7 s; 6-10 generators per factor
        # keeps each union near 10-100 ms
        inputs["unions"] = [
            [_write(workdir, "union%d_%s" % (i, side),
                    _admissible(rng, fixtures, 12, 6, 10), fixtures) for side in "ab"]
            for i in range(4)]
    elif workload == "lattice":
        # three norm-4 blocks: 4096 vectors, so that a count job costs what
        # w0^3 does and these jobs and w0^3 form one latency band; a
        # six-block class of the same count costs twice as much and would
        # split that band
        inputs["count_classes"] = [
            _class_spec([_norm4_block(rng) for _ in range(3)]) for _ in range(5)]
        # list jobs: 16 * 16 * 2 = 512 vectors, 30 KB of report
        inputs["list_classes"] = [
            _class_spec([_norm4_block(rng), _root_block(rng), _norm4_block(rng)])
            for _ in range(2)]
        # extremal: 16 blocks of zero, root and norm-4 vectors; the check is
        # per block, so longer classes add nothing but parsing
        inputs["extremal_classes"] = [
            _class_spec([rng.choice((lambda: [0] * 8, lambda: _root_block(rng),
                                     lambda: _norm4_block(rng)))() for _ in range(16)])
            for _ in range(18)]
        # small count jobs: one root and one norm-4 block, 32 vectors
        inputs["small_count_classes"] = [
            _class_spec([_root_block(rng), _norm4_block(rng)]) for _ in range(4)]
    elif workload == "small-jobs":
        inputs["valid"] = [_write(workdir, "valid%d" % i,
                                  fixtures.random_valid(rng, max_gens=8), fixtures)
                           for i in range(3)]
        inputs["admissible"] = [_write(workdir, "adm%d" % i,
                                       _admissible(rng, fixtures, 8, 4, 8), fixtures)
                                for i in range(2)]
        # spheres have delta_prime . delta != 0, so reduce and h exit 1
        inputs["spheres"] = [_write(workdir, "sphere%d" % i,
                                    fixtures.random_homology_sphere(rng), fixtures)
                             for i in range(2)]
        inputs["random_seeds"] = [rng.randrange(10 ** 6) for _ in range(2)]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return inputs


# ---------------------------------------------------------------------------
# job lists


def _doc_jobs(path: str, data) -> list:
    dims = oracles.homology_dims(data)
    degree_dims = data.complex.dims_by_degree()
    dual_dims = {(5 - r) % 8: n for r, n in degree_dims.items()}
    fmt = oracles.format_dims
    return [
        Job("doc", ["validate", "--file", path],
            checks=[expect(valid="true", generators=data.size, dims=fmt(degree_dims))]),
        Job("doc", ["homology", "--file", path],
            checks=[expect(dims=fmt(dims), total_dim=sum(dims.values()))]),
        Job("doc", ["reduce", "--file", path],
            checks=[expect(dims=fmt(dims), generators=sum(dims.values()))]),
        Job("doc", ["dualize", "--file", path],
            checks=[expect(dims=fmt(dual_dims), involution_exact="true")]),
    ]


def _union_job(cls, argv, ra, rb, heavy=False) -> Job:
    dims = oracles.format_dims(oracles.union_dims(ra, rb))
    return Job(cls, ["disjoint-union"] + argv + ["--homology"], heavy=heavy,
               checks=[expect(homology_dims=dims, extended_u_commutes="true",
                              kernel_symmetry_all_true="true")])


# copies of the k=4 and k=8 self-sums in one chain round; see chain_jobs
K4_COPIES = 18
K8_COPIES = 12


def chain_jobs(inputs: dict) -> tuple:
    """One round, 99 jobs, weighted so that each percentile falls inside
    the latencies of one fixed input, whatever the seed.

    The k=8 self-sum runs K8_COPIES times: with the three admissible
    searches (together about 100-150 ms on a fast machine state) they hold
    about the 82nd to 95th of the 99 latencies, and only the k=12 self-sum,
    the k=8 ladder union and the two largest searches (0.4-0.7 s) lie above
    them, so the 90th percentile stays inside that band.  The NilpotentLadder
    unions keep a x b <= 16 (8-50 ms): the larger pairs (70-230 ms) would
    spread the jobs just under the band.

    The k=4 self-sum runs K4_COPIES times.  Its latency (about 25 ms) is
    near the middle of the document jobs and the unions (10-50 ms), so its
    copies hold about the 38th to 56th latencies and the median lies among
    them rather than among the seeded documents, whose costs move with the
    seed."""
    from floer_workbench import fixtures
    from floer_workbench.homology import reduce_to_homology
    jobs = []
    for path, data in inputs["docs"]:
        jobs += _doc_jobs(path, data)
    for (pa, a), (pb, b) in inputs["unions"]:
        jobs.append(_union_job("union", ["--file-a", pa, "--file-b", pb],
                               reduce_to_homology(a), reduce_to_homology(b)))
    # 8k^2 + 4k generators: 144, 528 and 1200 at k = 4, 8 and 12
    for k in (4,) * K4_COPIES + (8,) * K8_COPIES + (12,):
        spec = "nPplusModel:%d" % k
        jobs.append(Job("self-sum-k%d" % k,
                        ["connect-sum", "--a", spec, "--b", spec, "--homology"],
                        # the quick self-check runs one copy of each
                        heavy=k > 8 or jobs[-1].cls == "self-sum-k%d" % k,
                        checks=[expect(homology_dims="0:%d 4:%d" % (2 * k, 2 * k),
                                       generators=8 * k * k + 4 * k)]))
    shape_tags = {"ss": "1 2 3 4", "as": "1 2 4", "sa": "1 3 4", "aa": "1 4"}
    for shape, ((pa, _), (pb, _)) in inputs["search"].items():
        jobs.append(Job("search", ["connect-sum", "--file-a", pa, "--file-b", pb,
                                   "--search", "--homology"], heavy=shape == "ss",
                        checks=[search_ok(shape_tags[shape])]))
    spec = "nPplusModel:4"
    jobs.append(Job("search", ["connect-sum", "--a", spec, "--b", spec, "--search",
                               "--homology"], heavy=True,
                    checks=[expect(homology_dims="0:8 4:8"), search_ok("1 2 3 4")]))
    # ladders have d = 0, so they are their own homology
    ladders = {k: fixtures.builtin("NilpotentLadder:%d" % k) for k in range(1, 9)}
    pairs = [(a, b) for a in range(1, 9) for b in range(1, 9) if a * b <= 16]
    ladder_jobs = {(a, b): _union_job("ladder-union", ["--a", "NilpotentLadder:%d" % a,
                                                       "--b", "NilpotentLadder:%d" % b],
                                      ladders[a], ladders[b], heavy=a * b > 16)
                   for a, b in pairs + [(8, 8)]}
    jobs += ladder_jobs.values()
    # cold starts: fixed-input jobs of 8-30 ms, the same sample for every seed
    cold = [next(j for j in jobs if j.cls == "self-sum-k4")] + [
        job for (a, b), job in ladder_jobs.items() if a * b <= 4]
    return jobs, cold


def _eta(cls, spec, count, workers=None, listed=None) -> Job:
    argv = ["eta", "--class=" + spec]
    if listed is not None:
        argv.append("--list")
    if workers:
        argv += ["--workers", str(workers)]
    checks = [expect(count=count, vectors=count, all_in_class="true")]
    if listed is not None:
        checks.append(lattice_list_ok(listed, count))
    return Job(cls, argv, checks=checks, heavy=count > 4096)


W0_BLOCK = ["1", "1", "1", "1", "0", "0", "0", "0"]


def lattice_jobs(inputs: dict) -> tuple:
    """One round, 54 jobs.  The median falls among the 26 extremal jobs and
    the small count jobs (3-8 ms), which hold the 1st to 37th of the 54
    latencies, well below the boundary with the 10-80 ms count and list
    jobs.  The 90th percentile (the 49.5th) falls inside the seven
    4096-vector count jobs (w0^3 and five seeded three-block classes, about
    100-180 ms), which hold the 46th to 52nd latencies, below w0^3 --list
    and w0^4 (0.4 and 2 s).  w0^4 runs without --workers: it is
    most of a round's time, and its threads would make jobs_per_s follow the
    shared machine's scheduling rather than the program."""
    jobs = []
    # count path: w0^n (16^n), root^n and halfsum^n (2^n), coordinate and
    # non-extremal classes; 11 of the 23 count jobs pass --workers 2
    for n, workers in ((1, 2), (2, 2), (3, None), (3, 2), (4, None)):
        jobs.append(_eta("eta-count", "w0^%d" % n, 16 ** n, workers))
    for name, n, workers in (("root", 2, None), ("root", 4, 2), ("root", 8, None),
                             ("halfsum", 3, 2), ("halfsum", 6, None)):
        jobs.append(_eta("eta-count", "%s^%d" % (name, n), 2 ** n, workers))
    jobs.append(_eta("eta-count", "0,0,0,2,0,0,0,0", 16, 2))
    jobs.append(_eta("eta-count", "1/2,-1/2,1/2,-1/2,1/2,1/2,1/2,1/2", 2))
    jobs.append(_eta("eta-count", "2,2,0,0,0,0,0,0", oracles.TWICE_ROOT_COUNT, 2))
    jobs.append(_eta("eta-count", "0,0,-2,0,0,0,0,2", oracles.TWICE_ROOT_COUNT))
    for i, (spec, coords) in enumerate(inputs["count_classes"] + inputs["small_count_classes"]):
        jobs.append(_eta("eta-count", spec, oracles.extremal_count(coords),
                         2 if i % 2 else None))
    # list path: w0, w0^2, w0^3 (273 KB of report) and seeded mixed classes
    for n in (1, 2, 3):
        job = _eta("eta-list", "w0^%d" % n, 16 ** n, listed=W0_BLOCK * n)
        job.heavy = n == 3
        jobs.append(job)
    for spec, coords in inputs["list_classes"]:
        jobs.append(_eta("eta-list", spec, oracles.extremal_count(coords), listed=coords))
    # extremal on up to 16 blocks: min-charge-k is 2n-1 for w0^n
    for n in (1, 2, 4, 8, 16):
        jobs.append(Job("extremal", ["extremal", "--class", "w0^%d" % n],
                        checks=[expect(member="true", extremal="true", norm=-4 * n,
                                       min_charge_k=2 * n - 1)]))
    for name, n in (("root", 16), ("halfsum", 9)):
        jobs.append(Job("extremal", ["extremal", "--class", "%s^%d" % (name, n)],
                        checks=[expect(member="true", extremal="true", norm=-2 * n,
                                       min_charge_k=n - 1)]))
    jobs.append(Job("extremal", ["extremal", "--class", "2,2,0,0,0,0,0,0"],
                    checks=[expect(member="true", extremal="false", norm=-8,
                                   min_charge_k=3)]))
    for spec, coords in inputs["extremal_classes"]:
        norm = sum(oracles.block_norm(b) for b in oracles.doubled_blocks(coords))
        charge = norm // 2 - 1 if norm >= 2 else "none"
        jobs.append(Job("extremal", ["extremal", "--class=" + spec],
                        checks=[expect(member="true", extremal="true", norm=-norm,
                                       min_charge_k=charge)]))
    small_counts = [j for j in jobs if j.cls == "eta-count" and j.checks and
                    j.argv[1] in ("--class=w0^1", "--class=w0^2", "--class=root^2",
                                  "--class=root^4")]
    cold = [j for j in jobs if j.cls == "extremal"][:5] + small_counts
    return jobs, cold


# copies of poly-identities --max-n 6 in one small-jobs round; see small_jobs
POLY6_COPIES = 8


def small_jobs(inputs: dict) -> tuple:
    """One round, 61 jobs covering all 13 commands.  Most jobs take 4-6 ms,
    mostly argparse and report text, and hold the median.  The costlier
    jobs (8-40 ms) rise steeply, one job per step, and they do not all
    slow down alike when the shared machine does, so a percentile among
    them would move from run to run.  poly-identities --max-n 6 (17-24 ms)
    runs POLY6_COPIES times: its copies hold about the 52nd to 59th of the
    61 latencies, so the 90th percentile (the 55.8th) lies among them,
    below only poly-identities --max-n 7 and the k=8 triple sum bound."""
    from floer_workbench import fixtures
    fmt = oracles.format_dims
    jobs = []
    for spec in ("Pplus", "Pminus", "TrefoilLikeSynthetic", "NilpotentLadder:4"):
        jobs.append(Job("validate", ["validate", "--fixture", spec],
                        checks=[expect(valid="true")]))
    jobs.append(Job("validate", ["validate", "--fixture", "Pplus", "--json"],
                    checks=[expect_json(valid=True, generators=2)]))
    for path, data in inputs["valid"]:
        jobs.append(Job("validate", ["validate", "--file", path],
                        checks=[expect(valid="true", generators=data.size)]))
        jobs.append(Job("homology", ["homology", "--file", path],
                        checks=[expect(dims=fmt(oracles.homology_dims(data)))]))
    for spec, k in (("nPplusModel:3", 3), ("NilpotentLadder:3", 3)):
        dims = {0: k, 4: k} if spec.startswith("nP") else {1: k, 5: k}
        jobs.append(Job("homology", ["homology", "--fixture", spec],
                        checks=[expect(dims=fmt(dims))]))
    for path, data in inputs["admissible"]:
        dims = oracles.homology_dims(data)
        jobs.append(Job("reduce", ["reduce", "--file", path],
                        checks=[expect(dims=fmt(dims))]))
        jobs.append(Job("dualize", ["dualize", "--file", path, "--json"],
                        checks=[expect_json(involution_exact=True)]))
    jobs.append(Job("dualize", ["dualize", "--fixture", "Pplus"],
                    checks=[expect(involution_exact="true", dims="1:1 5:1")]))
    for path, _ in inputs["spheres"]:
        jobs.append(Job("error", ["reduce", "--file", path], rc=1))
        jobs.append(Job("error", ["h", "--file", path], rc=1))
    jobs.append(Job("error", ["eta", "--class", "1,0,0,0,0,0,0,0"], rc=1))
    jobs.append(Job("error", ["validate", "--fixture", "NoSuchFixture"], rc=2))
    jobs.append(Job("connect-sum", ["connect-sum", "--a", "Pplus", "--b", "Pminus"],
                    checks=[expect(summands="1 2 3 4", generators=12)]))
    jobs.append(Job("connect-sum", ["connect-sum", "--a", "nPplusModel:1", "--b", "Pplus",
                                    "--homology"],
                    checks=[expect(homology_dims="0:2 4:2")]))
    # ladders have d = 0, so they are their own homology
    ladder1, ladder2 = (fixtures.builtin("NilpotentLadder:%d" % k) for k in (1, 2))
    jobs.append(_union_job("disjoint-union", ["--a", "NilpotentLadder:1",
                                              "--b", "NilpotentLadder:2"], ladder1, ladder2))
    # verify-sum-bound, pair and triple, on NilpotentLadder:k for k <= 8
    # and on TrefoilLikeSynthetic
    for k in (2, 5, 8):
        ladder = "NilpotentLadder:%d" % k
        jobs.append(Job("sum-bound", ["verify-sum-bound", "--a", ladder, "--b", ladder],
                        checks=[expect(mode="pair", cycle_ok="true", product_matches="true")]))
    for k in (2, 4, 8):
        ladder = "NilpotentLadder:%d" % k
        jobs.append(Job("sum-bound", ["verify-sum-bound", "--a", ladder, "--b", ladder,
                                      "--c", ladder],
                        checks=[expect(mode="triple", cycle_ok="true",
                                       product_matches="true")]))
    t = "TrefoilLikeSynthetic"
    jobs.append(Job("sum-bound", ["verify-sum-bound", "--a", t, "--b", t, "--c", t],
                    checks=[expect(mode="triple", cycle_ok="true", product_matches="true",
                                   pairing=1)]))
    # phi and h on fixtures with k <= 16; h = -k on nPplusModel:k
    for k in (2, 8, 16):
        jobs.append(Job("phi", ["phi", "--fixture", "NilpotentLadder:%d" % k],
                        checks=[expect(span_dim=k, filtration_order=k, agree="true")]))
    jobs.append(Job("phi", ["phi", "--fixture", t, "--mode", "plus"],
                    checks=[expect(span_dim=1, agree="true")]))
    for k in (1, 4, 16):
        jobs.append(Job("h", ["h", "--fixture", "nPplusModel:%d" % k],
                        checks=[expect(h=-k, mutual_triviality="true")]))
    for n in (3, 4, 5) + (6,) * POLY6_COPIES + (7,):
        pairs = {}
        for i in range(1, n + 1):
            pairs["telescoping n=%d corrected" % i] = "true"
            pairs["telescoping n=%d printed" % i] = "false"
        for i in range(1, min(n, 3) + 1):
            pairs["triple n=%d" % i] = "true"
        jobs.append(Job("poly-identities", ["poly-identities", "--max-n", str(n)],
                        # the quick self-check runs one copy
                        heavy=jobs[-1].argv == ["poly-identities", "--max-n", str(n)],
                        checks=[expect_pairs(pairs)]))
    jobs.append(Job("eta", ["eta", "--class", "w0"], checks=[expect(count=16)]))
    jobs.append(Job("extremal", ["extremal", "--class", "w0^2"],
                    checks=[expect(min_charge_k=3)]))
    names = " ".join(fixtures.fixture_names())
    jobs.append(Job("fixtures", ["fixtures"], checks=[expect(fixtures=names)]))
    jobs.append(Job("fixtures", ["fixtures", "--describe", "nPplusModel"],
                    checks=[expect(fixtures="nPplusModel")]))
    for spec in ("nPplusModel:3", "NilpotentLadder:2"):
        text = fixtures.serialize(fixtures.builtin(spec))
        jobs.append(Job("fixtures", ["fixtures", "--emit", spec],
                        checks=[lambda out, text=text: None if out == text
                                else "emitted document differs from serialize"]))
    for seed in inputs["random_seeds"]:
        trailer = "# generated: admissible seed %d\n" % seed
        jobs.append(Job("fixtures", ["fixtures", "--random", "admissible", "--seed", str(seed)],
                        checks=[lambda out, trailer=trailer: None if out.endswith(trailer)
                                else "missing generator trailer"]))
    cold = jobs[:4] + [j for j in jobs if j.cls in ("sum-bound", "poly-identities")][:4] \
        + [j for j in jobs if j.cls == "fixtures"][:2]
    return jobs, cold


JOB_LISTS = {"chain": chain_jobs, "lattice": lattice_jobs, "small-jobs": small_jobs}
