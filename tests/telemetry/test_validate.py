"""The telemetry gate itself: each cross-field rule rejects a document
that breaks it, a sweep over producer-built documents pins every
presence and type message, and ``main`` exits 0 / 1 / 2.

The sweep restates the documented schema (``docs/observability.md``)
as plain tables below, independently of ``repro.telemetry.validate``:
for one document of each of the five schemas it deletes every key and
retypes every value, one at a time, and compares the validator's
message with the one the table predicts.
"""

import copy
import json
import tempfile

import numpy as np
import pytest

from repro import telemetry
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.parallel.checkpoint import CheckpointConfig
from repro.parallel.cluster import ClusterRuntime
from repro.parallel.plan import distribute
from repro.runtime import DEFAULT_PLAN_CACHE
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel
from repro.telemetry.log import Event
from repro.telemetry.perf import fidelity_report
from repro.telemetry.validate import (
    TelemetryError,
    main,
    validate_chrome_trace,
    validate_cluster_report,
    validate_event,
    validate_fidelity_report,
    validate_run_record,
)

# -- the schema, restated --------------------------------------------------
# Each table maps a normalized path ("" is the root, "[]" any list item,
# "[*]" any map entry) to the keys of the dict found there.  A key
# ending in "?" is optional.  Values name the expected type as the
# validator prints it, or one of the markers below.
NUM = "(<class 'int'>, <class 'float'>)"
SCHEMA = "schema"  # the document's schema id; absent reads as None
ANY = "any"  # presence only
PHASE = "phase"  # a Chrome event phase
MAP = "[*]"  # every key is free; the value is the map's value type
LANE = "[lane]"  # every key names a lane; its value type (None: unchecked)
GET = "get "  # prefix: required, but an absent key reads as None

SPAN = {
    "name": "str", "category": "str", "span_id": "int", "start_ns": "int",
    "duration_ns": "int", "attrs": "dict", "children": "list",
    "events?": "dict", "trace_id?": "str",
}
EVENT = {
    "schema": SCHEMA, "ts": NUM, "level": "str", "kind": "str",
    "message": "str", "fields": "dict", "thread": "str",
    "trace_id?": "str", "span_id?": "int",
}
CLUSTER = {
    "": {
        "schema": SCHEMA, "name": "str", "timestamp": "str",
        "trace_id": "str", "run": "dict", "ranks": "list",
        "critical_path": "dict", "overlap": "dict", "imbalance": "dict",
        "halo": "dict",
    },
    ".run": {
        "steps": "int", "rounds": "int", "phases": "list", "devices": "int",
        "executor": "str", "overlap": "bool", "wall_s": NUM,
        "wall_ns": "int",
    },
    ".ranks[]": {
        "rank": "int", "lanes": "dict", "lanes_ns": "dict", "wall_ns": "int",
        "wall_s": NUM, "busy_s": NUM, "attempts": "int", "segments": "list",
    },
    ".ranks[].lanes": {LANE: None},
    ".ranks[].lanes_ns": {LANE: "int"},
    ".ranks[].segments[]": {
        "t0_s": NUM, "t1_s": NUM, "lane": "str", "round": "int",
    },
    ".critical_path": {"s": NUM, "ns": "int", "nodes": "list"},
    ".overlap": {
        "enabled": "bool", "efficiency": NUM, "hidden_s": NUM,
        "transfer_s": NUM, "per_round": "list",
    },
    ".imbalance": {"max_over_mean": NUM, "mad_frac": NUM, "per_round": "list"},
    ".halo": {
        "total_bytes": "int", "ledger_bytes": "int", "reconciled": "bool",
        "per_round": "list",
    },
    ".halo.per_round[]": dict.fromkeys(
        ("round", "steps", "depth", "halo_bytes", "comm_bytes_max"), "int"
    ),
}
RECORD = {
    "": {
        "schema": SCHEMA, "name": "str", "timestamp": "str", "spans": "list",
        "extra": "dict", "cache?": "dict", "events?": "dict",
        "tracer?": "dict", "faults?": "dict", "log?": "dict",
        "cluster?": "dict", "resilience?": "dict",
    },
    ".spans[]": SPAN,
    ".spans[].events": {MAP: NUM},
    ".cache": dict.fromkeys(
        ("hits", "misses", "evictions", "size", "maxsize"), "int"
    ),
    ".events": {MAP: NUM},
    ".tracer": {
        "finished_spans": "int", "dropped_spans": "int",
        "max_finished": "int", "warp_trace?": "dict",
    },
    ".tracer.warp_trace": {MAP: "int"},
    ".faults": {MAP: NUM},
    ".faults[*]": {MAP: NUM},
    ".log": {"events": "list", "dropped": "int", "max_events": "int"},
    ".log.events[]": EVENT,
    ".resilience": {
        "checkpoints": "dict", "halo": "dict", "replans": "list",
        "reassignments": "int",
    },
    ".resilience.checkpoints": {"saved": "int", "restored": "int"},
    ".resilience.halo": {MAP: "int"},
    ".resilience.replans[]": {
        "round": "int", "dead_rank": "int", "old_mesh": "list",
        "new_mesh": "list",
    },
    **{".cluster" + path: keys for path, keys in CLUSTER.items()},
}
FIDELITY = {
    "": {
        "schema": SCHEMA, "name": "str", "timestamp": "str", "plan": "dict",
        "workload": "dict", "components": "list", "model": "dict",
        "max_rel_error": NUM,
    },
    ".plan": {
        "key": "str", "schedule": "str", "ndim": "int", "radius": "int",
        "rank": "int", "method": "str",
    },
    ".workload": {"shape": "list", "seed": "int", "tiles": "int"},
    ".components[]": {
        "name": "str", "equation": "str", "source": "str", "predicted": NUM,
        "measured": NUM, "rel_error": NUM,
    },
    ".model": {MAP: NUM},
}
CHROME = {
    "": {"schema": SCHEMA, "traceEvents": GET + "list"},
    # items are keyed by phase: metadata events need only a name
    ".traceEvents[M]": {"ph": PHASE, "name": ANY},
    ".traceEvents[X]": {
        "ph": PHASE, "name": ANY, "ts": NUM, "dur": NUM, "pid": NUM,
        "tid": NUM, "args": GET + "dict",
    },
    ".traceEvents[X].args": {"span_id": ANY},
}


_DELETE = object()  # a case that deletes the key


def _item_norm(norm, item):
    if norm.endswith(".traceEvents"):
        return f"{norm}[{item.get('ph')}]"
    if norm.endswith(".children"):  # spans nest
        return norm[: -len(".children")]
    return norm + "[]"


def _wrong(want):
    """A replacement that is not of the expected type ``want``."""
    return 7 if want in ("str", SCHEMA, PHASE) else "x"


def _type_error(path, want):
    return f"{path}: expected {want}, got {type(_wrong(want)).__name__}"


def _cases(node, path, norm, table):
    """Yield ``(container, key, replacement, expected)``: every deletion
    (``replacement`` is ``_DELETE``) and retype of every key the table
    covers; ``expected`` is the validator's message (``None``: valid).
    Lists are entered at their first and last item."""
    if isinstance(node, list):
        for i in sorted({0, len(node) - 1}) if node else ():
            child = _item_norm(norm, node[i])
            if child in table:
                yield node, i, "x", f"{path}[{i}]: expected dict, got str"
                yield from _cases(node[i], f"{path}[{i}]", child, table)
        return
    keys = table.get(norm)
    if keys is None or not isinstance(node, dict):
        return
    for key, value in list(node.items()):
        sub = f"{path}.{key}"
        child = f"{norm}.{key}"
        if MAP in keys:
            sub, child = f"{path}[{key!r}]", norm + "[*]"
            yield node, key, _DELETE, None
            yield node, key, _wrong(keys[MAP]), _type_error(sub, keys[MAP])
        elif LANE in keys:
            lane = key.removesuffix("_s")
            yield node, key, _DELETE, f"{path}: missing lane {lane!r}"
            want = keys[LANE]
            yield node, key, _wrong(want), want and _type_error(sub, want)
        elif key in keys or key + "?" in keys:
            want = keys.get(key) or keys[key + "?"]
            missing = None if key + "?" in keys else (
                f"{path}: missing key {key!r}"
            )
            retyped = _type_error(sub, want)
            if want == SCHEMA:
                missing = f"{sub}: expected {value!r}, got None"
                retyped = f"{sub}: expected {value!r}, got 7"
            elif want == PHASE:
                missing = f"{sub}: unsupported phase None"
                retyped = f"{sub}: unsupported phase 7"
            elif want == ANY:
                retyped = None
            elif want.startswith(GET):
                want = want[len(GET):]
                missing = f"{sub}: expected {want}, got NoneType"
                retyped = _type_error(sub, want)
            yield node, key, _DELETE, missing
            yield node, key, _wrong(want), retyped
        else:  # a key the schema leaves free
            yield node, key, _DELETE, None
            yield node, key, _wrong(None), None
            continue
        yield from _cases(value, sub, child, table)


def _message(validate, doc):
    try:
        validate(doc)
    except TelemetryError as exc:
        return str(exc)
    return None


def _sweep(validate, doc, root, table):
    """Run every case of ``_cases``; returns (cases run, mismatches)."""
    assert _message(validate, doc) is None
    ran, mismatches = 0, []
    for node, key, new, expected in _cases(doc, root, "", table):
        old = node[key]
        if new is _DELETE:
            del node[key]
        else:
            node[key] = new
        try:
            got = _message(validate, doc)
        finally:
            node[key] = old
        ran += 1
        if got != expected:
            mismatches.append((key, new, expected, got))
    return ran, mismatches


# -- producer-built documents ----------------------------------------------
@pytest.fixture(scope="module")
def documents():
    """One document of each schema, as the producers emit them: a traced,
    simulated 2x2 cluster run whose rank 1 dies for good (an elastic
    re-plan) with barrier checkpoints gives the run-record with every
    optional section, its cluster report and its Chrome trace."""
    w = get_kernel("Heat-2D").weights
    x = np.random.default_rng(0).normal(size=(24, 24))
    plan = distribute(w, x.shape, (2, 2), block_steps=3)
    policy = RecoveryPolicy(
        shard_timeout_s=20.0, shard_retries=2, backoff_base_s=0.001,
        backoff_cap_s=0.01,
    )
    kill = FaultPlan(specs=(FaultSpec(kind="rank_crash", site=1, sticky=True),))
    with tempfile.TemporaryDirectory() as ckpt, telemetry.capture() as tracer:
        result = ClusterRuntime(plan).run(
            x, 9, executor="thread", simulate=True, faults=kill,
            policy=policy, elastic=True, checkpoint=CheckpointConfig(dir=ckpt),
        )
        report = result.report(tracer=tracer)
        record = telemetry.run_record(
            "sweep", tracer=tracer, cache_stats=DEFAULT_PLAN_CACHE.stats(),
            counters=result.counters, faults=result.fault_report,
            cluster=report, resilience=result.resilience,
        )
        trace = telemetry.to_chrome_trace(tracer=tracer)
    fidelity = fidelity_report(
        compile_stencil(get_kernel("Box-2D9P").weights).plan, size=16
    )
    event = Event(
        "fault.injected", level="warning", message="boom",
        fields={"site": 3}, trace_id="0123abcd", span_id=4,
    ).as_dict()
    docs = {
        "record": record, "cluster": report, "fidelity": fidelity,
        "trace": trace, "event": event,
    }
    yield docs
    telemetry.reset()


@pytest.fixture
def doc(documents, request):
    """A private deep copy of one producer document (by param name)."""
    return copy.deepcopy(documents[request.param])


class TestSweep:
    """Every required key deleted, every value retyped: one exact message
    each, and keys the schema leaves free stay free."""

    @pytest.mark.parametrize(
        "kind, validate, root, table, at_least",
        [
            ("record", validate_run_record, "record", RECORD, 600),
            ("cluster", validate_cluster_report, "report", CLUSTER, 200),
            ("fidelity", validate_fidelity_report, "report", FIDELITY, 60),
            ("trace", validate_chrome_trace, "trace", CHROME, 40),
            ("event", validate_event, "event", {"": EVENT}, 18),
        ],
    )
    def test_every_key_and_value(
        self, documents, kind, validate, root, table, at_least
    ):
        doc = documents[kind]
        ran, mismatches = _sweep(validate, doc, root, table)
        assert mismatches == []
        assert ran >= at_least
        assert _message(validate, doc) is None  # every case was undone

    def test_the_record_carries_every_optional_section(self, documents):
        record = documents["record"]
        optional = [k[:-1] for k in RECORD[""] if k.endswith("?")]
        assert [k for k in optional if k not in record] == []
        assert record["resilience"]["replans"]
        assert record["log"]["events"]

    @pytest.mark.parametrize("kind, validate, root", [
        ("record", validate_run_record, "record"),
        ("cluster", validate_cluster_report, "report"),
        ("fidelity", validate_fidelity_report, "report"),
        ("trace", validate_chrome_trace, "trace"),
        ("event", validate_event, "event"),
    ])
    def test_a_non_dict_document(self, kind, validate, root):
        assert _message(validate, [kind]) == f"{root}: expected dict, got list"

    def test_cluster_section_path_is_prefixed(self, documents):
        report = copy.deepcopy(documents["cluster"])
        del report["halo"]
        with pytest.raises(TelemetryError) as info:
            validate_cluster_report(report, path="record.cluster")
        assert str(info.value) == "record.cluster: missing key 'halo'"

    def test_null_optional_sections_and_rel_error_are_accepted(
        self, documents
    ):
        record = copy.deepcopy(documents["record"])
        for key in ("cache", "events", "tracer", "faults", "log", "cluster",
                    "resilience"):
            record[key] = None
        record["spans"][0]["events"] = None
        validate_run_record(record)
        fidelity = copy.deepcopy(documents["fidelity"])
        fidelity["components"][0]["rel_error"] = None
        validate_fidelity_report(fidelity)


# -- the cross-field rules -------------------------------------------------
def _rejects(validate, doc, message):
    with pytest.raises(TelemetryError) as info:
        validate(doc)
    assert str(info.value) == message


class TestRules:
    """One document per rule that breaks only that rule."""

    @pytest.mark.parametrize("doc", ["record"], indirect=True)
    def test_negative_span_duration(self, doc):
        doc["spans"][0]["children"][0]["duration_ns"] = -1
        _rejects(validate_run_record, doc,
                 "record.spans[0].children[0].duration_ns: negative")

    @pytest.mark.parametrize("doc", ["record"], indirect=True)
    def test_zero_span_duration_is_valid(self, doc):
        doc["spans"][0]["duration_ns"] = 0
        validate_run_record(doc)

    @pytest.mark.parametrize("doc", ["event"], indirect=True)
    def test_empty_event_kind(self, doc):
        doc["kind"] = ""
        _rejects(validate_event, doc, "event.kind: must be non-empty")

    @pytest.mark.parametrize("doc", ["event"], indirect=True)
    def test_unknown_event_level(self, doc):
        doc["level"] = "screaming"
        _rejects(
            validate_event, doc,
            "event.level: unknown level 'screaming' (expected one of "
            "('debug', 'info', 'warning', 'error'))",
        )

    @pytest.mark.parametrize("doc", ["record"], indirect=True)
    def test_log_events_are_events(self, doc):
        doc["log"]["events"][0]["kind"] = ""
        _rejects(validate_run_record, doc,
                 "record.log.events[0].kind: must be non-empty")

    @pytest.mark.parametrize("doc", ["cluster"], indirect=True)
    def test_lane_nanoseconds_sum_to_wall(self, doc):
        doc["ranks"][1]["lanes_ns"]["other"] += 1
        _rejects(validate_cluster_report, doc,
                 "report.ranks[1].lanes_ns: lane nanoseconds must sum "
                 "exactly to wall_ns")

    @pytest.mark.parametrize("doc", ["cluster"], indirect=True)
    @pytest.mark.parametrize("section, key", [
        ("lanes_ns", "retry"), ("lanes", "retry_s"),
    ])
    def test_missing_lane(self, doc, section, key):
        del doc["ranks"][0][section][key]
        _rejects(validate_cluster_report, doc,
                 f"report.ranks[0].{section}: missing lane 'retry'")

    @pytest.mark.parametrize("doc", ["cluster"], indirect=True)
    def test_critical_path_dominates_every_rank(self, doc):
        slowest = max(row["wall_ns"] for row in doc["ranks"])
        doc["critical_path"]["ns"] = slowest
        validate_cluster_report(doc)  # equal still dominates
        doc["critical_path"]["ns"] = slowest - 1
        _rejects(validate_cluster_report, doc,
                 "report.critical_path.ns: critical path must dominate "
                 "every rank's wall time")

    @pytest.mark.parametrize("doc", ["cluster"], indirect=True)
    def test_no_ranks_has_no_critical_path_bound(self, doc):
        doc["ranks"] = []
        doc["critical_path"]["ns"] = 0
        validate_cluster_report(doc)

    @pytest.mark.parametrize("doc", ["cluster"], indirect=True)
    @pytest.mark.parametrize("efficiency, ok", [
        (0.0, True), (1.0, True), (1.5, False), (-0.25, False),
    ])
    def test_overlap_efficiency_in_unit_interval(self, doc, efficiency, ok):
        doc["overlap"]["efficiency"] = efficiency
        if ok:
            validate_cluster_report(doc)
        else:
            _rejects(validate_cluster_report, doc,
                     f"report.overlap.efficiency: must be in [0, 1], got "
                     f"{efficiency!r}")

    @pytest.mark.parametrize("doc", ["cluster"], indirect=True)
    def test_halo_total_is_the_per_round_sum(self, doc):
        doc["halo"]["per_round"][-1]["halo_bytes"] += 8
        _rejects(validate_cluster_report, doc,
                 "report.halo.total_bytes: must equal the sum of per-round "
                 "halo bytes")

    @pytest.mark.parametrize("doc", ["fidelity"], indirect=True)
    def test_at_least_one_fidelity_component(self, doc):
        doc["components"] = []
        _rejects(validate_fidelity_report, doc,
                 "report.components: must contain at least one component")

    @pytest.mark.parametrize("doc", ["trace"], indirect=True)
    def test_chrome_phase(self, doc):
        doc["traceEvents"][-1]["ph"] = "B"
        i = len(doc["traceEvents"]) - 1
        _rejects(validate_chrome_trace, doc,
                 f"trace.traceEvents[{i}].ph: unsupported phase 'B'")

    @pytest.mark.parametrize("doc", ["trace"], indirect=True)
    def test_negative_chrome_duration(self, doc):
        i = len(doc["traceEvents"]) - 1
        doc["traceEvents"][i]["dur"] = 0
        validate_chrome_trace(doc)
        doc["traceEvents"][i]["dur"] = -0.5
        _rejects(validate_chrome_trace, doc,
                 f"trace.traceEvents[{i}].dur: negative duration")

    @pytest.mark.parametrize("doc", ["trace"], indirect=True)
    def test_at_least_one_complete_chrome_event(self, doc):
        doc["traceEvents"] = [
            e for e in doc["traceEvents"] if e["ph"] == "M"
        ]
        _rejects(validate_chrome_trace, doc,
                 "trace.traceEvents: no complete ('X') events")


# -- the CLI gate ------------------------------------------------------------
class TestMain:
    """``python -m repro.telemetry`` is what CI's validate steps run;
    its exit code is the gate."""

    def test_valid_file_exits_0(self, documents, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(documents["trace"]))
        assert main([str(path)]) == 0
        assert capsys.readouterr().out == (
            f"{path}: ok (repro.telemetry.chrome-trace/v1)\n"
        )

    def test_invalid_file_exits_1(self, documents, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(documents["fidelity"]))
        bad = tmp_path / "bad.json"
        report = copy.deepcopy(documents["fidelity"])
        report["components"] = []
        bad.write_text(json.dumps(report))
        assert main([str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{bad}: INVALID — ")
        assert "at least one component" in err

    def test_one_bad_jsonl_line_exits_1(self, documents, tmp_path, capsys):
        bad_event = dict(documents["event"], level="screaming")
        path = tmp_path / "events.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in (documents["event"], bad_event))
            + "\n"
        )
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: INVALID — ")
        assert "unknown level 'screaming'" in err

    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.startswith("usage:")
