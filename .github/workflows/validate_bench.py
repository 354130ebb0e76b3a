"""Validate the bench JSON documents and gate perf-counter regressions.

Run from the repository root after the bench-smoke sweeps have produced
their JSON files under ci-artifacts/. Nine duties:

1. Schema-validate the E8 top-k documents: the smoke run emitted this job,
   and the committed baseline ``BENCH_topk.json`` (which must also carry
   its seed-implementation ``before`` run and a real speedup).
2. Gate counter regressions: the gate run re-measures the committed
   baseline's exact workload (scale 200, 20 probe users, fixed seed), so
   its ``sorted_accesses`` / ``exact_computations`` are deterministic and
   directly comparable. Any engine x k row exceeding the committed
   ``after`` counters means top-k pruning regressed: fail the job.
3. Schema-validate the E9 batch documents and require the committed
   ``BENCH_batch.json`` headline (exact index, batch 32) to keep the
   measured >= 2x batching gain it was committed with.
4. Gate the clustered headline: the committed ``BENCH_topk.json`` must keep
   a clustered k=20 speedup at or above the refinement-index floor — the
   keyword-first ``tag -> item -> taggers`` refactor took the clustered row
   well past its pre-refinement 1.9x, and a regenerated baseline that
   falls back below the floor means the string-free refinement path
   regressed.
5. Schema-validate the E10 parallel documents (smoke and committed
   ``BENCH_parallel.json``) and gate the committed headline: the exact
   engine at batch 32 and 4 threads must keep its measured >= 2x aggregate
   over the threads=1 per-user serving loop. The speedup is defined
   against the per-user loop (the E9 baseline) because that is the
   deployment question — what the execution layer + batch path buy over
   naive serving; on a single-core measurement machine extra threads
   cannot add wall-clock gain (the committed ``available_parallelism``
   records the cores). Batch 32 sits *below* the engines' 64-members-per-
   worker fan-out floor by design, so what this gate guards is the
   dispatch policy itself: if the floor is lowered or removed, batch-32
   requests start paying worker spawns they cannot amortize, the
   aggregate collapses below 2x, and the gate trips.
6. Gate the fan-out path proper: batch 256 at 4 threads really shards
   (the one committed cell that exercises the multi-worker scatter), so
   its wall time must stay within FANOUT_OVERHEAD_MAX of the threads=1
   wall for the same batch size. On the 1-core measurement box the
   honest ratio is ~2-3x (pure over-subscription cost, recorded in the
   committed rows); a ratio past the ceiling means the parallel scatter
   itself regressed (e.g. quadratic result merging or per-member
   spawns). On a multi-core box the ratio drops below 1 and the gate is
   trivially green.
7. Schema-validate the E11 live-maintenance documents (smoke and committed
   ``BENCH_update.json``) and gate the committed headline: applying the 1%
   event batch to the exact index must stay >= 5x faster than rebuilding
   the index from the already-updated site. The incremental apply only
   touches the posting lists the event batch can move, so its cost scales
   with the batch, not the site; if the headline collapses toward 1x, the
   apply path started doing rebuild-shaped work (e.g. recomputing
   unaffected lists or re-laying-out the whole index per call).
8. Schema-validate the E12 robustness documents (smoke and committed
   ``BENCH_robustness.json``), require the partial-results contract flags
   (asserted in-process by the sweep before anything is timed) to be
   recorded true, and gate the committed headline: the worst-engine
   cost of carrying a deadline budget through a serving batch must stay
   under ROBUSTNESS_OVERHEAD_MAX_PCT. The cooperative checks are chunk-
   granular with a strided, lazily-armed clock precisely so the budget
   machinery stays effectively free; a headline past the ceiling means
   someone put per-member work back on the armed path.
9. Schema-validate the E14 scale documents (smoke and committed
   ``BENCH_scale.json``) and gate the committed headline: at the largest
   committed scale the Compressed layout must keep a
   >= SCALE_SAVING_MIN bytes/user reduction over Raw while staying
   within SCALE_REGRESSION_MAX_PCT on single-query latency and at or
   above SCALE_BATCH_RATIO_MIN of Raw batch throughput. The committed
   document must also record ``identity_checked`` true — the sweep
   asserts Raw and Compressed return byte-identical rankings before
   anything is timed, so a false flag means a single-layout run was
   committed as the baseline.
"""

import json
import sys

TOPK_SMOKE = "ci-artifacts/bench_topk_smoke.json"
TOPK_GATE = "ci-artifacts/bench_topk_gate.json"
BATCH_SMOKE = "ci-artifacts/bench_batch_smoke.json"
PARALLEL_SMOKE = "ci-artifacts/bench_parallel_smoke.json"
UPDATE_SMOKE = "ci-artifacts/bench_update_smoke.json"
ROBUSTNESS_SMOKE = "ci-artifacts/bench_robustness_smoke.json"
SCALE_SMOKE = "ci-artifacts/bench_scale_smoke.json"
TOPK_COMMITTED = "BENCH_topk.json"
BATCH_COMMITTED = "BENCH_batch.json"
PARALLEL_COMMITTED = "BENCH_parallel.json"
UPDATE_COMMITTED = "BENCH_update.json"
ROBUSTNESS_COMMITTED = "BENCH_robustness.json"
SCALE_COMMITTED = "BENCH_scale.json"

REQUIRED_TOPK_RUN = {"experiment", "seed", "scale", "probe_users",
                     "repetitions", "keywords", "engines"}
REQUIRED_TOPK_ROW = {"engine", "k", "wall_ms", "sorted_accesses",
                     "exact_computations", "early_terminations"}
TOPK_ENGINES = {"exhaustive_baseline", "exact_index_ta", "clustered_index_ta"}

REQUIRED_BATCH_RUN = {"experiment", "seed", "scale", "k", "queries_per_class",
                      "repetitions", "site_users", "classes",
                      "empty_keyword_queries", "batch_sizes", "rows",
                      "aggregate", "headline"}
REQUIRED_BATCH_ROW = {"engine", "class", "batch_size", "user_queries",
                      "wall_ms_loop", "wall_ms_batch", "speedup"}
BATCH_ENGINES = {"exact_index", "clustered_index"}
BATCH_CLASSES = {"general", "categorical", "specific"}
BATCH_SIZES = {1, 8, 32, 128}
HEADLINE_MIN_SPEEDUP = 2.0
# The clustered k=20 row sat at 1.9-2.1x before the keyword-first
# refinement index removed per-candidate string hashing; the committed
# baseline must never fall back below this floor.
CLUSTERED_K20_MIN_SPEEDUP = 2.5

REQUIRED_PARALLEL_RUN = {"experiment", "seed", "scale", "k",
                         "queries_per_class", "repetitions", "site_users",
                         "available_parallelism", "threads", "batch_sizes",
                         "build", "rows", "headline"}
REQUIRED_PARALLEL_ROW = {"engine", "threads", "batch_size", "wall_ms_loop",
                         "wall_ms_batch", "speedup_vs_loop"}
REQUIRED_PARALLEL_BUILD_ROW = {"index", "threads", "wall_ms"}
PARALLEL_ENGINES = {"exact_index", "clustered_index"}
PARALLEL_INDEXES = {"exact", "clustered"}
# The committed exact-index batch-32 threads=4 aggregate vs the threads=1
# per-user loop (see duty 5 in the module docstring).
PARALLEL_HEADLINE_MIN = 2.0
# Ceiling on wall_ms_batch(threads=4) / wall_ms_batch(threads=1) for the
# committed batch-256 cells — the ones that really fan out (duty 6). The
# 1-core measurement box sits at ~2-3x from over-subscription alone.
FANOUT_OVERHEAD_MAX = 6.0
FANOUT_BATCH_SIZE = 256

REQUIRED_UPDATE_RUN = {"experiment", "seed", "scale", "k", "repetitions",
                       "site_users", "tag_assignments", "retract_fraction",
                       "fractions", "rows", "headline"}
REQUIRED_UPDATE_ROW = {"index", "fraction", "events", "changed_entries",
                       "wall_ms_apply", "wall_ms_rebuild", "speedup"}
UPDATE_INDEXES = {"exact", "clustered"}
# The committed exact-index 1%-batch apply vs a rebuild from the updated
# site (see duty 7 in the module docstring).
UPDATE_HEADLINE_FRACTION = 0.01
UPDATE_HEADLINE_MIN = 5.0

REQUIRED_ROBUSTNESS_RUN = {"experiment", "seed", "scale", "k",
                           "queries_per_class", "repetitions", "site_users",
                           "batch_size", "hit_batch_size", "workload_members",
                           "contract", "budget_fractions", "overhead",
                           "hit_rates", "headline"}
REQUIRED_ROBUSTNESS_OVERHEAD_ROW = {"engine", "wall_ms_unbounded",
                                    "wall_ms_deadline", "overhead_pct"}
REQUIRED_ROBUSTNESS_HIT_ROW = {"engine", "budget_fraction", "budget_ms",
                               "served", "members", "hit_rate"}
ROBUSTNESS_ENGINES = {"exact_index", "clustered_index"}
ROBUSTNESS_CONTRACT = {"generous_budget_identical",
                       "expired_budget_all_degraded",
                       "partial_results_subset"}
# Ceiling on the committed worst-engine deadline-budget overhead (duty 8).
# The serving walks check budgets once per 32-member chunk with a strided,
# lazily-armed clock, which keeps the honest cost near 1%.
ROBUSTNESS_OVERHEAD_MAX_PCT = 2.0

REQUIRED_SCALE_RUN = {"experiment", "seed", "k", "repetitions",
                      "probe_users", "scales", "layouts",
                      "identity_checked", "rows", "headline"}
REQUIRED_SCALE_ROW = {"scale", "layout", "entries", "exact_build_ms",
                      "clustered_build_ms", "exact_heap_bytes",
                      "clustered_heap_bytes", "heap_bytes", "bytes_per_user",
                      "exact_query_us", "clustered_query_us",
                      "single_query_us", "batch_qps"}
REQUIRED_SCALE_HEADLINE = {"scale", "raw_bytes_per_user",
                           "compressed_bytes_per_user",
                           "bytes_per_user_saving",
                           "single_query_regression_pct",
                           "batch_throughput_ratio"}
SCALE_LAYOUTS = {"raw", "compressed"}
# Gates on the committed headline (duty 9). The delta-varint layouts were
# committed at ~2.6x bytes/user over Raw with single-query well inside the
# budget and batch throughput at parity; a baseline below these lines
# means the compressed read path (skip directory, block decode) regressed.
SCALE_SAVING_MIN = 2.5
SCALE_REGRESSION_MAX_PCT = 15.0
SCALE_BATCH_RATIO_MIN = 0.95


# The REQUIRED_* / *_CONTRACT sets above are kept in lockstep with the
# Rust JSON emitters (crates/bench/src/bin/experiments.rs and
# crates/content/src/wire.rs) by the schema-sync lint; when a key check
# fails here, the lint says which side drifted and where.
SCHEMA_SYNC_HINT = (
    "key sets are synced with the Rust emitters by the schema-sync lint: "
    "run `cargo run -p socialscope_analysis -- lint` to see which side "
    "drifted")


def require_keys(required, mapping, where, what="document"):
    missing = required - mapping.keys()
    assert not missing, (
        f"{where}: {what} missing {sorted(missing)} ({SCHEMA_SYNC_HINT})")


def check_topk_run(run, where):
    require_keys(REQUIRED_TOPK_RUN, run, where)
    assert run["experiment"] == "E8_topk_sweep", where
    seen = set()
    for row in run["engines"]:
        require_keys(REQUIRED_TOPK_ROW, row, where, "engine row")
        seen.add(row["engine"])
    assert seen == TOPK_ENGINES, f"{where}: engines {seen}"


def check_batch_doc(doc, where):
    require_keys(REQUIRED_BATCH_RUN, doc, where)
    assert doc["experiment"] == "E9_batch_sweep", where
    assert set(doc["classes"]) == BATCH_CLASSES, f"{where}: classes {doc['classes']}"
    assert set(doc["batch_sizes"]) == BATCH_SIZES, f"{where}: sizes {doc['batch_sizes']}"
    cells = set()
    for row in doc["rows"]:
        require_keys(REQUIRED_BATCH_ROW, row, where, "batch row")
        cells.add((row["engine"], row["class"], row["batch_size"]))
    expected = {(e, c, b) for e in BATCH_ENGINES for c in BATCH_CLASSES
                for b in BATCH_SIZES}
    assert cells == expected, f"{where}: rows cover {len(cells)}/{len(expected)} cells"
    head = doc["headline"]
    assert head["engine"] == "exact_index" and head["batch_size"] == 32, where
    empties = doc["empty_keyword_queries"]
    assert set(empties) == BATCH_CLASSES, f"{where}: empty counts {empties}"
    for cls, count in empties.items():
        assert 0 <= count <= doc["queries_per_class"], (
            f"{where}: {cls} empty-keyword count {count} outside "
            f"[0, {doc['queries_per_class']}]")


def check_parallel_doc(doc, where):
    require_keys(REQUIRED_PARALLEL_RUN, doc, where)
    assert doc["experiment"] == "E10_parallel_sweep", where
    assert doc["available_parallelism"] >= 1, where
    threads = doc["threads"]
    assert threads and all(isinstance(t, int) and t >= 1 for t in threads), (
        f"{where}: threads {threads}")
    assert 1 in threads and 4 in threads, (
        f"{where}: the sweep must cover threads 1 and 4, got {threads}")
    sizes = doc["batch_sizes"]
    assert 32 in sizes, f"{where}: batch sizes {sizes} miss the gated 32"
    cells = set()
    for row in doc["rows"]:
        require_keys(REQUIRED_PARALLEL_ROW, row, where, "query row")
        assert row["speedup_vs_loop"] > 0, f"{where}: non-positive speedup {row}"
        cells.add((row["engine"], row["threads"], row["batch_size"]))
    expected = {(e, t, b) for e in PARALLEL_ENGINES for t in threads
                for b in sizes}
    assert cells == expected, (
        f"{where}: rows cover {len(cells)}/{len(expected)} cells")
    builds = set()
    for row in doc["build"]:
        require_keys(REQUIRED_PARALLEL_BUILD_ROW, row, where, "build row")
        builds.add((row["index"], row["threads"]))
    assert builds == {(i, t) for i in PARALLEL_INDEXES for t in threads}, (
        f"{where}: build rows cover {builds}")
    head = doc["headline"]
    assert head["engine"] == "exact_index" and head["batch_size"] == 32, where
    assert head["threads"] == max(threads), (
        f"{where}: headline threads {head['threads']} != max({threads})")


def check_update_doc(doc, where):
    require_keys(REQUIRED_UPDATE_RUN, doc, where)
    assert doc["experiment"] == "E11_update_sweep", where
    assert doc["tag_assignments"] >= 1, where
    assert 0.0 <= doc["retract_fraction"] <= 1.0, where
    fractions = doc["fractions"]
    assert fractions and all(0.0 < f < 1.0 for f in fractions), (
        f"{where}: fractions {fractions}")
    assert UPDATE_HEADLINE_FRACTION in fractions, (
        f"{where}: the sweep must cover the gated "
        f"{UPDATE_HEADLINE_FRACTION} fraction, got {fractions}")
    cells = set()
    for row in doc["rows"]:
        require_keys(REQUIRED_UPDATE_ROW, row, where, "update row")
        assert row["events"] >= 1, f"{where}: empty event batch {row}"
        assert row["speedup"] > 0, f"{where}: non-positive speedup {row}"
        cells.add((row["index"], row["fraction"]))
    expected = {(i, f) for i in UPDATE_INDEXES for f in fractions}
    assert cells == expected, (
        f"{where}: rows cover {len(cells)}/{len(expected)} cells")
    head = doc["headline"]
    assert head["index"] == "exact", where
    assert head["fraction"] == UPDATE_HEADLINE_FRACTION, where


def check_robustness_doc(doc, where):
    require_keys(REQUIRED_ROBUSTNESS_RUN, doc, where)
    assert doc["experiment"] == "E12_robustness_sweep", where
    contract = doc["contract"]
    assert set(contract) == ROBUSTNESS_CONTRACT, f"{where}: contract {contract}"
    for name, held in contract.items():
        assert held is True, (
            f"{where}: partial-results contract flag {name} is {held}; the "
            "sweep asserts these in-process, so a false flag means the "
            "document was hand-edited")
    fractions = doc["budget_fractions"]
    assert fractions and all(0.0 < f <= 1.0 for f in fractions), (
        f"{where}: budget fractions {fractions}")
    engines = set()
    for row in doc["overhead"]:
        require_keys(REQUIRED_ROBUSTNESS_OVERHEAD_ROW, row, where,
                     "overhead row")
        assert row["wall_ms_unbounded"] > 0, f"{where}: empty timing row {row}"
        engines.add(row["engine"])
    assert engines == ROBUSTNESS_ENGINES, f"{where}: overhead engines {engines}"
    cells = set()
    for row in doc["hit_rates"]:
        require_keys(REQUIRED_ROBUSTNESS_HIT_ROW, row, where, "hit-rate row")
        assert 0 <= row["served"] <= row["members"], f"{where}: served {row}"
        assert 0.0 <= row["hit_rate"] <= 1.0, f"{where}: hit rate {row}"
        cells.add((row["engine"], row["budget_fraction"]))
    expected = {(e, f) for e in ROBUSTNESS_ENGINES for f in fractions}
    assert cells == expected, (
        f"{where}: hit-rate rows cover {len(cells)}/{len(expected)} cells")
    head = doc["headline"]
    assert head["metric"] == "deadline_check_overhead_pct", where
    worst = max(r["overhead_pct"] for r in doc["overhead"])
    assert abs(head["overhead_pct"] - worst) < 0.01, (
        f"{where}: headline {head['overhead_pct']} != worst engine {worst}")


def check_scale_doc(doc, where):
    require_keys(REQUIRED_SCALE_RUN, doc, where)
    assert doc["experiment"] == "E14_scale_sweep", where
    scales = doc["scales"]
    assert scales and all(isinstance(s, int) and 1 <= s <= 10**6
                          for s in scales), f"{where}: scales {scales}"
    layouts = set(doc["layouts"])
    assert layouts <= SCALE_LAYOUTS and layouts, f"{where}: layouts {layouts}"
    cells = set()
    for row in doc["rows"]:
        require_keys(REQUIRED_SCALE_ROW, row, where, "scale row")
        assert row["entries"] >= 1, f"{where}: empty site row {row}"
        assert row["heap_bytes"] == (
            row["exact_heap_bytes"] + row["clustered_heap_bytes"]), (
            f"{where}: heap components do not sum in row {row}")
        assert row["bytes_per_user"] > 0 and row["batch_qps"] > 0, (
            f"{where}: degenerate measurements in row {row}")
        cells.add((row["scale"], row["layout"]))
    expected = {(s, l) for s in scales for l in doc["layouts"]}
    assert cells == expected, (
        f"{where}: rows cover {len(cells)}/{len(expected)} cells")


def counters_of(run):
    return {(row["engine"], row["k"]): (row["sorted_accesses"],
                                        row["exact_computations"])
            for row in run["engines"]}


def main():
    # 1. E8 schemas.
    smoke = json.load(open(TOPK_SMOKE))
    assert set(smoke) == {"before", "after", "speedup"}, TOPK_SMOKE
    check_topk_run(smoke["after"], TOPK_SMOKE)

    committed = json.load(open(TOPK_COMMITTED))
    assert set(committed) == {"before", "after", "speedup"}, TOPK_COMMITTED
    check_topk_run(committed["after"], TOPK_COMMITTED)
    check_topk_run(committed["before"], TOPK_COMMITTED)
    assert committed["speedup"]["exact_index_ta"]["total"] > 1.0, TOPK_COMMITTED
    clustered_k20 = committed["speedup"]["clustered_index_ta"]["k20"]
    assert clustered_k20 >= CLUSTERED_K20_MIN_SPEEDUP, (
        f"{TOPK_COMMITTED}: committed clustered k=20 speedup {clustered_k20} "
        f"fell below {CLUSTERED_K20_MIN_SPEEDUP}x; the refinement-index "
        "refactor held this row well above its 1.9x pre-refinement value — "
        "regenerate on a quiet machine or fix the clustered refinement "
        "regression")

    # 2. Counter-regression gate against the committed baseline. Counters
    # are only comparable when the gate re-measures the exact committed
    # workload, so pin every workload parameter — if any differs, someone
    # regenerated BENCH_topk.json without updating ci.yml (or vice versa),
    # and silently passing would neutralize the gate.
    gate = json.load(open(TOPK_GATE))
    check_topk_run(gate["after"], TOPK_GATE)
    for param in ("scale", "probe_users", "seed", "keywords"):
        got, want = gate["after"][param], committed["after"][param]
        assert got == want, (
            f"gate run {param}={got} differs from committed baseline "
            f"{param}={want}; align ci.yml's gate flags with BENCH_topk.json")
    baseline = counters_of(committed["after"])
    regressions = []
    for key, (sorted_now, exact_now) in counters_of(gate["after"]).items():
        assert key in baseline, (
            f"gate row {key} has no counterpart in the committed baseline; "
            "the k sweep changed — regenerate BENCH_topk.json")
        sorted_base, exact_base = baseline[key]
        if sorted_now > sorted_base or exact_now > exact_base:
            regressions.append(
                f"{key}: sorted_accesses {sorted_now} vs baseline {sorted_base}, "
                f"exact_computations {exact_now} vs baseline {exact_base}")
    if regressions:
        print("COUNTER REGRESSION past the committed BENCH_topk.json baseline:")
        for line in regressions:
            print(f"  {line}")
        print("If pruning genuinely changed, regenerate BENCH_topk.json and "
              "update the pinned counters in crates/bench/tests/.")
        sys.exit(1)

    # 3. E9 schemas and the committed batching headline.
    check_batch_doc(json.load(open(BATCH_SMOKE)), BATCH_SMOKE)
    batch = json.load(open(BATCH_COMMITTED))
    check_batch_doc(batch, BATCH_COMMITTED)
    headline = batch["headline"]["speedup"]
    assert headline >= HEADLINE_MIN_SPEEDUP, (
        f"{BATCH_COMMITTED}: committed exact-index batch-32 speedup {headline} "
        f"fell below {HEADLINE_MIN_SPEEDUP}x; regenerate with "
        "`experiments batch --scale 200 --out BENCH_batch.json` on a quiet "
        "machine or fix the batching regression")

    # 4. E10 schemas and the committed parallel-serving headline.
    check_parallel_doc(json.load(open(PARALLEL_SMOKE)), PARALLEL_SMOKE)
    parallel = json.load(open(PARALLEL_COMMITTED))
    check_parallel_doc(parallel, PARALLEL_COMMITTED)
    par_headline = parallel["headline"]["speedup_vs_loop"]
    assert par_headline >= PARALLEL_HEADLINE_MIN, (
        f"{PARALLEL_COMMITTED}: committed exact-index batch-32 threads=4 "
        f"aggregate {par_headline}x over the per-user loop fell below "
        f"{PARALLEL_HEADLINE_MIN}x; the parallel engine must never lose the "
        "batching gain (e.g. by fanning out batches too small to amortize "
        "worker spawns) — regenerate with `experiments parallel --scale 200 "
        "--out BENCH_parallel.json` on a quiet machine or fix the regression")

    # 5. Fan-out overhead gate on the committed cells that really shard.
    walls = {(r["engine"], r["threads"], r["batch_size"]): r["wall_ms_batch"]
             for r in parallel["rows"]}
    for engine in PARALLEL_ENGINES:
        base = walls.get((engine, 1, FANOUT_BATCH_SIZE))
        sharded = walls.get((engine, 4, FANOUT_BATCH_SIZE))
        assert base and sharded, (
            f"{PARALLEL_COMMITTED}: missing batch-{FANOUT_BATCH_SIZE} cells "
            f"for {engine} at threads 1/4")
        ratio = sharded / base
        assert ratio <= FANOUT_OVERHEAD_MAX, (
            f"{PARALLEL_COMMITTED}: {engine} batch-{FANOUT_BATCH_SIZE} at 4 "
            f"threads costs {ratio:.2f}x the threads=1 wall (ceiling "
            f"{FANOUT_OVERHEAD_MAX}x); the multi-worker scatter path "
            "regressed — profile the parallel query_batch_opts path, or "
            "regenerate on a "
            "quiet machine if this is measurement noise")

    # 6. E11 schemas and the committed live-maintenance headline.
    check_update_doc(json.load(open(UPDATE_SMOKE)), UPDATE_SMOKE)
    update = json.load(open(UPDATE_COMMITTED))
    check_update_doc(update, UPDATE_COMMITTED)
    update_headline = update["headline"]["speedup"]
    assert update_headline >= UPDATE_HEADLINE_MIN, (
        f"{UPDATE_COMMITTED}: committed exact-index 1%-batch apply "
        f"{update_headline}x over a rebuild fell below {UPDATE_HEADLINE_MIN}x; "
        "incremental maintenance must stay far cheaper than rebuilding — "
        "regenerate with `experiments update --scale 200 --out "
        "BENCH_update.json` on a quiet machine or fix the apply regression")

    # 7. E12 schemas, contract flags, and the committed overhead headline.
    check_robustness_doc(json.load(open(ROBUSTNESS_SMOKE)), ROBUSTNESS_SMOKE)
    robustness = json.load(open(ROBUSTNESS_COMMITTED))
    check_robustness_doc(robustness, ROBUSTNESS_COMMITTED)
    overhead_pct = robustness["headline"]["overhead_pct"]
    assert overhead_pct <= ROBUSTNESS_OVERHEAD_MAX_PCT, (
        f"{ROBUSTNESS_COMMITTED}: committed worst-engine deadline-budget "
        f"overhead {overhead_pct}% exceeds {ROBUSTNESS_OVERHEAD_MAX_PCT}%; "
        "budget checks are chunk-granular with a strided lazily-armed clock "
        "precisely so they stay effectively free — profile the armed serving "
        "path, or regenerate with `experiments robustness --scale 200 --out "
        "BENCH_robustness.json` on a quiet machine if this is measurement "
        "noise")

    # 8. E14 schemas, the identity flag, and the committed memory headline.
    check_scale_doc(json.load(open(SCALE_SMOKE)), SCALE_SMOKE)
    scale = json.load(open(SCALE_COMMITTED))
    check_scale_doc(scale, SCALE_COMMITTED)
    assert scale["identity_checked"] is True, (
        f"{SCALE_COMMITTED}: identity_checked is false — the committed "
        "baseline must come from a both-layouts run, where the sweep "
        "asserts Raw and Compressed return byte-identical rankings before "
        "timing anything")
    scale_head = scale["headline"]
    assert scale_head, f"{SCALE_COMMITTED}: no Raw-vs-Compressed headline"
    require_keys(REQUIRED_SCALE_HEADLINE, scale_head, SCALE_COMMITTED,
                 "headline")
    saving = scale_head["bytes_per_user_saving"]
    assert saving >= SCALE_SAVING_MIN, (
        f"{SCALE_COMMITTED}: committed bytes/user saving {saving}x at scale "
        f"{scale_head['scale']} fell below {SCALE_SAVING_MIN}x; the "
        "delta-varint layouts stopped paying for themselves — regenerate "
        "with `experiments scale --scale 10000,100000 --out "
        "BENCH_scale.json` on a quiet machine or fix the layout regression")
    regression = scale_head["single_query_regression_pct"]
    assert regression <= SCALE_REGRESSION_MAX_PCT, (
        f"{SCALE_COMMITTED}: committed compressed single-query regression "
        f"{regression}% exceeds {SCALE_REGRESSION_MAX_PCT}%; the skip "
        "directory bounds each probe to one decoded block precisely so "
        "point reads stay near Raw — profile score_of on the packed layout "
        "or regenerate on a quiet machine")
    batch_ratio = scale_head["batch_throughput_ratio"]
    assert batch_ratio >= SCALE_BATCH_RATIO_MIN, (
        f"{SCALE_COMMITTED}: committed compressed batch throughput is "
        f"x{batch_ratio} of Raw, below the {SCALE_BATCH_RATIO_MIN} floor; "
        "sequential block decode must keep merge-heavy batches at parity — "
        "profile the packed iteration path or regenerate on a quiet machine")

    print("bench JSON schemas OK; counters within the committed baseline; "
          f"batch headline {headline}x >= {HEADLINE_MIN_SPEEDUP}x; "
          f"clustered k=20 {clustered_k20}x >= {CLUSTERED_K20_MIN_SPEEDUP}x; "
          f"parallel batch-32 threads=4 {par_headline}x >= "
          f"{PARALLEL_HEADLINE_MIN}x; "
          f"update 1%-batch apply {update_headline}x >= {UPDATE_HEADLINE_MIN}x; "
          f"robustness overhead {overhead_pct}% <= "
          f"{ROBUSTNESS_OVERHEAD_MAX_PCT}%; "
          f"scale bytes/user saving {saving}x >= {SCALE_SAVING_MIN}x at "
          f"single-query {regression}% <= {SCALE_REGRESSION_MAX_PCT}% and "
          f"batch x{batch_ratio} >= {SCALE_BATCH_RATIO_MIN}")


if __name__ == "__main__":
    main()
