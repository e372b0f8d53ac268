"""Turns the raw outputs of one `qsc_e2e run` into the benchmark's metrics.

The measured process writes four files (see workloads.h):

* samples.tsv  phase kind spec client start_ns end_ns ok first_after_edit version
* spans.tsv    id parent request name start_ns end_ns value   (traced runs)
* answers.tsv  one line per distinct answer (spec, pair, graph version)
* summary.tsv  key value lines; floats as C99 hex (float.fromhex)

Everything here is pure arithmetic over those records, so it is unit-tested
by test_analysis.py without building anything.
"""

import math
import re
import statistics
from collections import defaultdict

# Percentiles the tail metric may report, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10

QUERY_KINDS = ("maxflow", "maxflow_batch", "coloring", "solve_lp", "centrality")
REFINE_BACKENDS = ("rothko", "lp-rounding", "bucket")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_metric_name(name):
    """Metric names: a letter or digit, then letters, digits, '_', '.', '-'."""
    return bool(NAME_RE.match(name))


def median(values):
    return statistics.median(values) if values else 0.0


def interquartile_mean(values):
    """The mean of the middle half: the sorted values without their lowest
    and highest floor(n/4).

    Unlike the median it moves in proportion when samples shift between
    two clusters of a kind's latency: on a host whose cores flip between a
    fast and a slow speed, the median jumps from one cluster to the other
    as their shares cross.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def nearest_rank(sorted_values, pct):
    """The nearest-rank percentile: the value at rank ceil(pct/100 * n)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], rank


def tail(values):
    """The highest percentile with at least MIN_BEYOND samples beyond it.

    Returns (percentile, value, samples_beyond). With fewer than
    2 * MIN_BEYOND samples no percentile from the median up qualifies, and
    the median is returned with the count it has beyond it.
    """
    if not values:
        return 50.0, 0.0, 0
    ordered = sorted(values)
    best = None
    for pct in TAIL_PERCENTILES:
        value, rank = nearest_rank(ordered, pct)
        beyond = len(ordered) - rank
        if beyond >= MIN_BEYOND:
            best = (pct, value, beyond)
    if best is None or best[0] == 50.0:
        # The median itself.
        _, rank = nearest_rank(ordered, 50.0)
        best = (50.0, statistics.median(ordered), len(ordered) - rank)
    return best


def failed_frac(attempted, failed):
    """Failed calls over attempted calls (queries and edits together)."""
    if attempted <= 0:
        raise ValueError("no calls attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed count out of range")
    return failed / attempted


def count_calls(samples, phases):
    """(attempted, failed) over the query and edit samples of `phases`."""
    calls = [s for s in samples if s["phase"] in phases]
    return len(calls), sum(1 for s in calls if not s["ok"])


def covered_ns(start, end, children):
    """Length of [start, end) covered by the union of child intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in children)
    covered = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


def self_times(spans):
    """Span id -> self time (ns): duration minus what its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_ns(span["start"], span["end"], children[span["id"]])
        for span in spans
    }


def unattributed_ms(untraced_latencies_ms, roots, spans):
    """Untraced p50 of a query kind minus its decomposed layer time.

    `roots` are the kind's traced root spans; a request's decomposed time is
    the part of its root span its layer spans cover (root duration minus the
    root's self time). The result is the untraced median minus the median
    decomposed time: the share of the untraced query no layer span explains.
    """
    if not untraced_latencies_ms or not roots:
        return 0.0
    selfs = self_times(spans)
    decomposed = [
        (root["end"] - root["start"] - selfs[root["id"]]) / 1e6 for root in roots
    ]
    return median(untraced_latencies_ms) - median(decomposed)


# --- parsing -----------------------------------------------------------------


def parse_float(text):
    return float.fromhex(text) if "0x" in text or "p" in text else float(text)


def read_samples(path):
    samples = []
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            samples.append({
                "phase": p[0], "kind": p[1], "spec": int(p[2]),
                "client": int(p[3]), "start": int(p[4]), "end": int(p[5]),
                "ok": p[6] == "1", "first": p[7] == "1", "version": int(p[8]),
            })
    return samples


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            spans.append({
                "id": int(p[0]), "parent": int(p[1]), "request": int(p[2]),
                "name": p[3], "start": int(p[4]), "end": int(p[5]),
                "value": float(p[6]),
            })
    return spans


def read_summary(path):
    """key -> list of values; 'edit' and 'violation' rows kept as lists."""
    values = defaultdict(list)
    edits, violations = [], []
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            if p[0] == "edit":
                edits.append({"phase": p[1], "version": int(p[2]),
                              "repairs": int(p[3]), "fallbacks": int(p[4]),
                              "splits": int(p[5])})
            elif p[0] == "violation":
                violations.append(p[1])
            else:
                values[p[0]].append(parse_float(p[1]))
    return values, edits, violations


ANSWER_FIELDS = ("kind", "spec", "pair", "graph", "version", "s", "t", "upper",
                 "lower",
                 "colors", "max_q", "recount_q", "degree_bound", "objective",
                 "lp_status", "partition_hash", "scores_hash")


def read_answers(path):
    answers = []
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            a = dict(zip(ANSWER_FIELDS, p))
            for key in ("spec", "pair", "graph", "version", "s", "t", "colors",
                        "lp_status"):
                a[key] = int(a[key])
            answers.append(a)
    return answers


def answer_key(a):
    return "%d/%d/%d/%d" % (a["spec"], a["pair"], a["graph"], a["version"])


def flow_key(a):
    """The exact max-flow an answer is checked against."""
    return (a["graph"], a["version"], a["s"], a["t"])


def answer_checksum(a):
    """The bit-exact content of an answer, for comparison across runs."""
    return "|".join(a[k] for k in ("upper", "lower", "max_q", "objective",
                                   "partition_hash", "scores_hash")) + \
        "|%d|%d" % (a["colors"], a["lp_status"])


def read_exact(path):
    flows, lp = {}, None
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            if p[0] == "flow":
                flows[tuple(int(x) for x in p[1:5])] = float.fromhex(p[5])
            elif p[0] == "lp":
                lp = (float.fromhex(p[1]), int(p[2]))
    return flows, lp


# --- correctness ----------------------------------------------------------------


def check_answers(answers, exact_flows, exact_lp, lower_bound_specs):
    """Violations of the paper's guarantees among the served answers."""
    violations = []
    for a in answers:
        if a["kind"] in ("maxflow", "maxflow_batch"):
            exact = exact_flows.get(flow_key(a))
            if exact is None:
                violations.append("no exact max-flow for " + answer_key(a))
                continue
            upper = float.fromhex(a["upper"])
            slack = 1e-9 * max(1.0, abs(exact))
            if upper < exact - slack:
                violations.append("Theorem 6 upper bound %r < exact %r for %s"
                                  % (upper, exact, answer_key(a)))
            if a["spec"] in lower_bound_specs:
                lower = float.fromhex(a["lower"])
                if lower > exact + slack:
                    violations.append("Theorem 6 lower bound %r > exact %r for %s"
                                      % (lower, exact, answer_key(a)))
        if a["partition_hash"] != "0":
            max_q = float.fromhex(a["max_q"])
            recount = float.fromhex(a["recount_q"])
            if (math.isnan(max_q) or math.isnan(recount)
                    or math.isnan(float.fromhex(a["degree_bound"]))):
                violations.append("served coloring not recounted: " + answer_key(a))
            elif abs(max_q - recount) > 1e-9 * max(1.0, abs(recount)):
                violations.append("max_q %r != recount %r for %s"
                                  % (max_q, recount, answer_key(a)))
        if a["kind"] == "solve_lp" and exact_lp is None:
            violations.append("no exact LP objective")
    return violations


def compare_checksums(current, stored):
    """Keys whose answer differs from the one a previous run recorded."""
    return sorted(k for k, v in current.items() if k in stored and stored[k] != v)


# --- metrics --------------------------------------------------------------------


def latencies_ms(samples):
    return [(s["end"] - s["start"]) / 1e6 for s in samples]


def accuracy(answers, exact_flows, exact_lp):
    """Accuracy of the distinct answers served.

    Returns (flow_bound_ratio, lp_obj_ratio, mean_max_q_rel, mean_max_q):
    the mean MaxFlow upper bound over the exact max-flow (>= 1 by Theorem
    6), one plus the mean relative SolveLp objective error, and the mean
    reported max q-error of the served colorings, both as a share of the
    graph's largest weighted degree (the most any q-error can be, which
    scales out how hub-heavy a seed's graph is) and raw.
    """
    flow_ratios, lp_ratios, qs, rel_qs = [], [], [], []
    for a in answers:
        if a["kind"] in ("maxflow", "maxflow_batch"):
            exact = exact_flows.get(flow_key(a))
            if exact:
                flow_ratios.append(float.fromhex(a["upper"]) / exact)
        elif a["kind"] == "solve_lp" and exact_lp and exact_lp[0]:
            exact = exact_lp[0]
            lp_ratios.append(1.0 + abs(float.fromhex(a["objective"]) - exact)
                             / abs(exact))
        if a["partition_hash"] != "0":
            q = float.fromhex(a["max_q"])
            bound = float.fromhex(a["degree_bound"])
            if not math.isnan(q) and bound > 0:
                qs.append(q)
                rel_qs.append(q / bound)
    mean = lambda v, empty: statistics.fmean(v) if v else empty
    return (mean(flow_ratios, 1.0), mean(lp_ratios, 1.0), mean(rel_qs, 0.0),
            mean(qs, 0.0))


def end_to_end(samples, summary, answers, exact_flows, exact_lp):
    """The end-to-end metrics of an untraced run, plus a detail table."""
    values, _, _ = summary
    queries = [s for s in samples if s["phase"] == "u" and s["kind"] != "edit"]
    edits = [s for s in samples if s["phase"] == "u" and s["kind"] == "edit"]
    q_lat = latencies_ms([s for s in queries if s["ok"]])
    e_lat = latencies_ms([s for s in edits if s["ok"]])
    q_pct, q_tail, q_beyond = tail(q_lat)
    e_pct, e_tail, e_beyond = tail(e_lat)
    flow_ratio, lp_ratio, rel_q, mean_q = accuracy(answers, exact_flows,
                                                   exact_lp)
    phase_s = values["phase_s.u"][0]
    metrics = {
        "setup_s": (median(values["setup_s"]), "s"),
        "throughput_qps": (sum(1 for s in queries if s["ok"]) / phase_s, "1/s"),
        "query_iqm_ms": (interquartile_mean(q_lat), "ms"),
        "query_tail_ms": (q_tail, "ms"),
        "edit_p50_ms": (median(e_lat), "ms"),
        "edit_tail_ms": (e_tail, "ms"),
        "peak_rss_mib": (values["peak_rss_kib"][0] / 1024.0, "MiB"),
        "flow_bound_ratio": (flow_ratio, "ratio"),
        "lp_obj_ratio": (lp_ratio, "ratio"),
        "mean_max_q_rel": (rel_q, "frac"),
    }
    detail = {
        "query_iqm_ms": "n=%d, median %.4g ms" % (len(q_lat), median(q_lat)),
        "query_tail_ms": "p%g, n=%d, %d beyond" % (q_pct, len(q_lat), q_beyond),
        "edit_p50_ms": "n=%d" % len(e_lat),
        "edit_tail_ms": "p%g, n=%d, %d beyond" % (e_pct, len(e_lat), e_beyond),
        "setup_s": "median of %d" % len(values["setup_s"]),
        "mean_max_q_rel": "raw mean max_q %.6g" % mean_q,
    }
    return metrics, detail


def _span_ms(spans, name):
    return [(s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == name]


def per_layer(samples, spans, summary):
    """The per-layer metrics of a traced run (0 where a layer is not used)."""
    values, edits, _ = summary
    get = lambda key: values[key][0] if values.get(key) else 0.0
    untraced = [s for s in samples if s["phase"] == "u" and s["kind"] != "edit"]
    traced = [s for s in samples if s["phase"] == "t" and s["kind"] != "edit"]
    # Traced churn rounds issue every spec again after its post-edit query,
    # outside the measured time: those repeats are plain hits.
    repeats = [s for s in traced if s["version"] > 0 and not s["first"]]
    traced = [s for s in traced if not (s["version"] > 0 and not s["first"])]
    m = {}

    m["graph.load_ms"] = (median(_span_ms(spans, "graph.load")), "ms")
    m["graph.rss_delta_mib"] = (
        (get("rss_after_load_kib") - get("rss_before_load_kib")) / 1024.0, "MiB")

    m["api.lookup_ms"] = (median(_span_ms(spans, "api.lookup")), "ms")
    lookups = get("u.after.lookups") - get("u.before.lookups")
    hits = get("u.after.hits") - get("u.before.hits")
    m["api.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    m["api.cache_bytes"] = (get("u.after.cache_bytes"), "B")
    m["api.evictions"] = (get("u.after.evictions") - get("u.before.evictions"),
                          "count")
    flow_roots = [s for s in spans if s["name"] == "query.maxflow"]
    flow_untraced = latencies_ms([s for s in untraced if s["kind"] == "maxflow"])
    m["api.unattributed_ms"] = (unattributed_ms(flow_untraced, flow_roots, spans),
                                "ms")
    attempted, failed = count_calls(samples, "ut")
    m["api.failed_frac"] = (
        failed_frac(attempted, failed) if attempted else 0.0, "frac")

    refine_ms, refine_splits = 0.0, 0.0
    for backend in REFINE_BACKENDS:
        ms = _span_ms(spans, "coloring.refine." + backend)
        m["coloring.refine_ms." + backend] = (median(ms), "ms")
        refine_ms += sum(ms)
        refine_splits += sum(s["value"] for s in spans
                             if s["name"] == "coloring.refine." + backend)
    m["coloring.splits_per_s"] = (
        refine_splits / (refine_ms / 1e3) if refine_ms else 0.0, "1/s")
    m["coloring.reduce_ms"] = (median(_span_ms(spans, "coloring.reduce")), "ms")
    m["flow.solve_ms"] = (median(_span_ms(spans, "flow.solve")), "ms")
    m["flow.reduced_arcs"] = (
        median([s["value"] for s in spans if s["name"] == "coloring.reduce"]),
        "count")
    m["flow.lower_bound_ms"] = (median(_span_ms(spans, "flow.lower_bound")), "ms")
    for stage in ("reduce", "simplex", "lift"):
        m["lp.%s_ms" % stage] = (median(_span_ms(spans, "lp." + stage)), "ms")
    m["centrality.pivot_ms"] = (median(_span_ms(spans, "centrality.pivot")), "ms")

    # dynamic: ApplyEdits minus the ApplyEditBatch probe of the same request.
    probe = {s["request"]: s for s in spans if s["name"] == "dynamic.apply_batch"}
    applies = [s for s in spans if s["name"] == "api.apply_edits"]
    m["dynamic.apply_batch_ms"] = (median(_span_ms(spans, "dynamic.apply_batch")),
                                   "ms")
    m["dynamic.repair_ms"] = (median([
        (a["end"] - a["start"] - (probe[a["request"]]["end"]
                                  - probe[a["request"]]["start"])) / 1e6
        for a in applies if a["request"] in probe]), "ms")
    repairs = sum(e["repairs"] for e in edits)
    fallbacks = sum(e["fallbacks"] for e in edits)
    m["dynamic.repair_ratio"] = (
        repairs / (repairs + fallbacks) if repairs + fallbacks else 0.0, "ratio")
    m["dynamic.repair_splits"] = (
        statistics.fmean(e["splits"] for e in edits) if edits else 0.0, "count")
    m["dynamic.post_edit_query_ms"] = (
        median(latencies_ms([s for s in traced if s["first"]])), "ms")
    m["dynamic.repeat_query_ms"] = (median(latencies_ms(repeats)), "ms")

    # parallel: the cold pass's colorings refined after the phase, alone,
    # without a pool over with one, matched per spec (the span's value).
    serial, pooled = defaultdict(list), defaultdict(list)
    for s in spans:
        if s["name"] == "parallel.serial_refine":
            serial[int(s["value"])].append((s["end"] - s["start"]) / 1e6)
        elif s["name"] == "parallel.pool_refine":
            pooled[int(s["value"])].append((s["end"] - s["start"]) / 1e6)
    matched = [spec for spec in pooled if serial.get(spec)]
    with_pool = sum(median(pooled[spec]) for spec in matched)
    m["parallel.refine_speedup"] = (
        sum(median(serial[spec]) for spec in matched) / with_pool
        if with_pool else 0.0, "ratio")

    busy = sum(latencies_ms(untraced)) or 1.0
    for kind in QUERY_KINDS:
        lat = latencies_ms([s for s in untraced if s["kind"] == kind])
        m["kind.%s.p50_ms" % kind] = (median(lat), "ms")
        m["kind.%s.busy_frac" % kind] = (sum(lat) / busy, "frac")

    u_qps = len(untraced) / get("phase_s.u") if get("phase_s.u") else 0.0
    t_qps = len(traced) / get("phase_s.t") if get("phase_s.t") else 0.0
    m["trace.overhead_frac"] = (1.0 - t_qps / u_qps if u_qps else 0.0, "frac")
    return m
