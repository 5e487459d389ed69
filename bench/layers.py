"""Per-layer metrics from the spans and counters of a traced run.

Every `_ms` value is self time: a span's duration minus the time its child
spans cover.  Values are per round of the workload's job list.  The
comment on each group names the end-to-end metric it should move.
"""

from __future__ import annotations

import spans as sp

# metric -> span names whose self time it sums
SELF_MS = {
    # small-jobs job_p50_ms and cold_cli_ms; invisible on chain
    "cli.parse_ms": ("cli.build_parser", "cli.parse_args"),
    # small-jobs setup_s and job_p50_ms
    "fixtures.parse_ms": ("fixtures.parse",),
    "fixtures.builtin_ms": ("fixtures.builtin",),
    "fixtures.serialize_ms": ("fixtures.serialize",),
    # chain job_p50_ms: every assembly and --search config re-validates
    "complexes.validate_ms": ("complexes.validate", "complexes.require_valid"),
    # chain jobs_per_s and job_p90_ms
    "linalg.elim_ms": sp.ELIMINATION,
    # chain jobs_per_s: column scans make _restrict_columns quadratic
    "linalg.column_ms": ("linalg.RatMatrix.column",),
    # chain job_p90_ms through --search, which squares d for each config
    "linalg.matmul_ms": ("linalg.RatMatrix.__matmul__",),
    # small-jobs jobs_per_s
    "linalg.apply_ms": ("linalg.RatMatrix.apply", "linalg.RatMatrix.apply_functional"),
    # chain jobs_per_s: each differential block is eliminated twice
    "homology.homology_ms": ("homology.homology",),
    "homology.cycle_basis_ms": ("homology.cycle_basis",),
    "homology.boundary_basis_ms": ("homology.boundary_basis",),
    "homology.reduce_ms": ("homology.reduce_to_homology",),
    # chain job_p50_ms
    "connect_sum.assembly_ms": ("connect_sum.connected_sum_complex",
                                "connect_sum.disjoint_union_complex"),
    # chain job_p90_ms
    "connect_sum.sign_search_ms": ("connect_sum.sign_search",),
    # chain jobs_per_s
    "connect_sum.kernel_symmetry_ms": ("connect_sum.kernel_symmetry_check",),
    # small-jobs jobs_per_s
    "connect_sum.sum_bound_ms": ("connect_sum.verify_sum_bound",
                                 "connect_sum.build_pair_cycle",
                                 "connect_sum.build_triple_cycle"),
    "invariants.phi_ms": ("invariants.phi_span", "invariants.phi_filtration",
                          "invariants.phi_report"),
    "invariants.h_ms": ("invariants.h_invariant", "invariants.triangular_independence"),
    "invariants.nilpotency_ms": ("invariants.nilpotency_order",),
    # lattice jobs_per_s
    "lattice.enumerate_ms": ("lattice.congruent_vectors",),
    # lattice job_p90_ms and peak_rss_mb
    "lattice.class_check_ms": ("lattice.same_class",),
    # lattice job_p50_ms
    "lattice.extremal_ms": ("lattice.is_extremal", "lattice.min_charge_k"),
    # small-jobs jobs_per_s
    "polyid.telescoping_ms": ("polyid.verify_telescoping",),
    "polyid.triple_ms": ("polyid.verify_triple_identity",),
}

# metric -> counter names it sums
COUNTS = {
    "complexes.validate_calls": ("complexes.validate",),
    "linalg.elim_calls": sp.ELIMINATION,
    "linalg.elim_nnz_in": ("linalg.elim_nnz_in",),
    "linalg.column_calls": ("linalg.RatMatrix.column",),
    "linalg.matmul_calls": ("linalg.RatMatrix.__matmul__",),
    "homology.homology_calls": ("homology.homology",),
    "connect_sum.generators_built": ("connect_sum.generators_built",),
    "lattice.vectors_out": ("lattice.vectors_out",),
    "lattice.class_check_calls": ("lattice.same_class", "lattice.is_member",
                                  "lattice.require_member"),
}

# counters the wrappers derive from arguments or results (spans.py)
DERIVED_COUNTERS = {"linalg.elim_nnz_in", "linalg.solver_kept", "connect_sum.generators_built",
                    "connect_sum.sign_accepted", "lattice.vectors_out"}

# metric -> (numerator counter, denominator counter, denominator scale)
RATIOS = {
    # useful-to-attempted elimination: add() calls that kept a vector
    "linalg.solver_keep_ratio": ("linalg.solver_kept", "linalg.LinearSolver.add", 1),
    # accepted sign configs over the 32 tried per sign_search call
    "connect_sum.sign_accept_ratio": ("connect_sum.sign_accepted",
                                      "connect_sum.sign_search", 32),
}

UNITS = {"_ms": "ms", "_ratio": "ratio", "_frac": "ratio"}


def unit(name: str) -> str:
    for suffix, u in UNITS.items():
        if name.endswith(suffix):
            return u
    return "count"


def layer_metrics(spans: list, counts, rounds: int) -> dict:
    """Per-round layer metrics, plus the untraced gap inside jobs."""
    own = sp.self_times(spans)
    by_name = {}
    for (name, _, _, _), ns in zip(spans, own):
        by_name[name] = by_name.get(name, 0) + ns
    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = sum(by_name.get(n, 0) for n in names) / 1e6 / rounds
    parse = set(SELF_MS["cli.parse_ms"])
    out["cli.self_ms"] = sum(ns for n, ns in by_name.items()
                             if n.startswith("cli.") and n not in parse) / 1e6 / rounds
    out["trace.gap_ms"] = by_name.get("job", 0) / 1e6 / rounds
    for metric, names in COUNTS.items():
        out[metric] = sum(counts.get(n, 0) for n in names) / rounds
    for metric, (num, den, scale) in RATIOS.items():
        attempts = counts.get(den, 0) * scale
        # no attempts on this workload: nothing was wasted
        out[metric] = counts.get(num, 0) / attempts if attempts else 1.0
    return out


def check_job_spans(spans: list, root: int, wall_ns: int) -> str:
    """Checks that a traced job's layer self times plus its untraced gap
    add up to its traced wall time.  Returns a failure reason or ''."""
    job = spans[root:]
    for name, start, end, parent in job:
        if end < start:
            return "span %s was never closed" % name
    own = sp.self_times([[n, s, e, p - root if p >= 0 else -1] for n, s, e, p in job])
    if any(ns < 0 for ns in own):
        return "a span outlives its parent"
    _, start, end, _ = job[0]
    # gap: the job's time outside every top-level layer span, from the
    # union of their intervals rather than from the self-time identity
    covered, reach = 0, start
    for name, s, e, parent in sorted(job[1:], key=lambda t: t[1]):
        if parent == root and e > reach:
            covered += e - max(s, reach)
            reach = e
    gap = (end - start) - covered
    total = sum(own[1:]) + gap
    if total != end - start:
        return "self times %d ns + gap %d ns != span %d ns" % (sum(own[1:]), gap, end - start)
    if abs(wall_ns - (end - start)) > max(200_000, wall_ns // 100):
        return "span %d ns vs measured wall %d ns" % (end - start, wall_ns)
    return ""
