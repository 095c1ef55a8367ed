#!/usr/bin/env python3
"""Per-layer metrics and the layer table of a traced benchmark run.

    python3 simbench/layers.py TRACE.json [TRACE.json ...] [--against BASE.json]

A trace file is what `run.py --trace 1` writes: the benchmark program's
spans, per-cell counters and runCampaign calls, plus the run manifest.
For each file this prints, per layer, every span's self time (its
duration minus the time its child spans cover), sample counts and
quartiles, then every per-layer metric beside its base (the quantities
the ratio is made of) and the tracing overhead. With --against, each
metric also shows the base run's value and the ratio to it; the two
manifests must agree on everything except seed and source identity.
"""

import argparse
import json
import statistics
import sys

# Manifest keys that identify a run rather than the build and settings
# that produced it; two runs that differ in other keys do not compare.
IDENTITY_KEYS = {"seed", "git_describe", "source_sha256", "seconds"}


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


class Trace:
    """Indexes one trace document."""

    def __init__(self, doc):
        result = doc["result"]
        self.spans = result["spans"]
        self.cells = result["cells"]
        self.batches = result["batches"]
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def find(self, name, variant=None):
        return [s for s in self.spans if s["name"] == name and
                (variant is None or s["variant"] == variant)]

    def self_ns(self, span):
        dur = span["end_ns"] - span["start_ns"]
        return dur - sum(c["end_ns"] - c["start_ns"]
                         for c in self.children.get(span["id"], []))

    def per_round_wall_s(self, name, variant):
        """Median over rounds of the summed wall time of @p name spans."""
        by_round = {}
        for s in self.find(name, variant):
            by_round[s["round"]] = by_round.get(s["round"], 0) + (
                s["end_ns"] - s["start_ns"]) * 1e-9
        return statistics.median(by_round.values()) if by_round else 0.0

    def cpu_s(self, name, variant):
        return sum(s["cpu_ns"] for s in self.find(name, variant)) * 1e-9

    def ops(self, name, variant):
        return sum(s["ops"] for s in self.find(name, variant))

    def ns_per_op_samples(self, name, variant="off"):
        return [s["cpu_ns"] / s["ops"] for s in self.find(name, variant)
                if s["ops"] > 0]

    def paired_delta_ns(self, variant):
        """Per-op CPU that @p variant adds to the checker-off MMU chunks.

        Chunk i of a cell holds the same operations in every variant, so
        the per-op difference is taken pairwise; its median per cell
        resists preemption spikes, and the cells are weighted by their
        operation counts.
        """
        def chunks(v):
            out = {}
            for s in self.find("core.mmu", v):
                out.setdefault((s["round"], s["cell"]), []).append(s)
            return out
        base, other = chunks("off"), chunks(variant)
        total = weight = 0.0
        for key, spans in base.items():
            diffs = [(o["cpu_ns"] - b["cpu_ns"]) / b["ops"]
                     for b, o in zip(spans, other.get(key, []))
                     if b["ops"] > 0]
            if diffs:
                ops = sum(b["ops"] for b in spans)
                total += statistics.median(diffs) * ops
                weight += ops
        return ratio(total, weight)

    def count(self, key, kind=None):
        return sum(c["counts"][key] for c in self.cells
                   if kind is None or c["kind"] == kind)


def layer_metrics(doc):
    """Every per-layer metric as name -> (value, unit, base text)."""
    t = Trace(doc)
    m = {}
    sim_cells = [c for c in t.cells if c["kind"] == "sim"]
    mc_cells = [c for c in t.cells if c["kind"] == "mc"]

    for layer, name in (("workloads.gen", "workloads.gen_ns_per_op"),
                        ("core.mmu", "core.mmu_ns_per_op")):
        samples = t.ns_per_op_samples(layer)
        for q, tag in ((0.5, "p50"), (0.9, "p90")):
            m[f"{name}.{tag}"] = (
                quantile(samples, q) if samples else 0.0, "ns",
                f"CPU ns per op over {len(samples)} chunks of "
                f"{layer} (checker off)")

    for name, span in (("workloads.ff_s", "workloads.ff"),
                       ("vm.setup_s", "vm.setup"),
                       ("core.setup_s", "core.setup"),
                       ("check.setup_s", "check.setup")):
        m[name] = (t.per_round_wall_s(span, "full"), "s",
                   f"{span} wall time summed over cells, median of rounds")

    ops_sim = t.count("mem_ops", "sim")
    m["core.front_hit_ratio"] = (
        ratio(t.count("front_hits", "sim"), ops_sim), "ratio",
        f"{t.count('front_hits', 'sim')} front-cache hits / "
        f"{ops_sim} memory ops")

    ops_all = t.count("mem_ops")
    for name, key in (("tlb.l1_misses", "l1_misses"),
                      ("tlb.l2_misses", "l2_misses"),
                      ("tlb.walk_refs", "walk_refs"),
                      ("l3.probes", "l3_probes"),
                      ("vm.host_walk_refs", "host_walk_refs"),
                      ("lite.resizes", "lite_resizes")):
        m[name] = (ratio(t.count(key) * 1000.0, ops_all), "1/kop",
                   f"{t.count(key)} {key} x 1000 / {ops_all} memory ops")
    m["l3.hit_ratio"] = (
        ratio(t.count("l3_hits"), t.count("l3_probes")), "ratio",
        f"{t.count('l3_hits')} L3 hits / {t.count('l3_probes')} probes")

    gen_cpu = t.cpu_s("workloads.gen", "off")
    mmu_cpu = t.cpu_s("core.mmu", "off")
    m["workloads.gen_share"] = (
        ratio(gen_cpu, gen_cpu + mmu_cpu), "ratio",
        f"gen {gen_cpu:.4f} CPU-s / gen+mmu {gen_cpu + mmu_cpu:.4f} CPU-s "
        "(checker off)")

    full_window = t.cpu_s("sim.window", "full")
    ops_off = t.ops("sim.window", "off")
    base = ("per-op MMU-chunk CPU with it minus without, median over "
            f"paired chunks per cell, weighted by the cells' {ops_off} "
            "memory ops")
    m["check.ns_per_op"] = (t.paired_delta_ns("full"), "ns",
                            "ShadowChecker(Full): " + base)
    m["obs.prov_ns_per_op"] = (t.paired_delta_ns("prov"), "ns",
                               "in-memory ProvenanceSink: " + base)
    m["obs.telemetry_ns_per_op"] = (t.paired_delta_ns("telemetry"), "ns",
                                    "TelemetrySink: " + base)
    m["check.mismatches"] = (float(t.count("mismatches")), "count",
                             f"over {len(t.cells)} cell runs")

    ref_sim = sum(c["ref_window_cpu_s"] for c in sim_cells)
    gen_mmu = gen_cpu + mmu_cpu
    m["sim.driver_ns_per_op"] = (
        ratio(ref_sim * 1e9, ops_sim) - ratio(gen_mmu * 1e9, ops_off) -
        m["check.ns_per_op"][0], "ns",
        f"sim::simulate window CPU {ref_sim:.4f} s / {ops_sim} ops minus "
        f"gen+mmu {gen_mmu:.4f} s / {ops_off} ops minus check.ns_per_op")

    instr_sim = t.count("instructions", "sim")
    traced = ratio(instr_sim / 1000.0, full_window)
    untraced = ratio(instr_sim / 1000.0, ref_sim)
    m["sim.untraced_kips"] = (untraced, "kinstr/CPU-s",
                              f"{instr_sim} instr / {ref_sim:.4f} CPU-s in "
                              "sim::simulate")
    m["sim.traced_kips"] = (traced, "kinstr/CPU-s",
                            f"{instr_sim} instr / {full_window:.4f} "
                            "CPU-s in the traced Full replay")
    m["trace.overhead_kips"] = (untraced - traced, "kinstr/CPU-s",
                                "sim.untraced_kips - sim.traced_kips")
    m["trace.overhead_ratio"] = (ratio(untraced - traced, untraced),
                                 "ratio", "trace.overhead_kips / "
                                 "sim.untraced_kips")

    mc_cpu = sum(c["ref_window_cpu_s"] for c in mc_cells)
    mc_ops = sum(c["counts"]["mem_ops"] for c in mc_cells)
    m["mc.ns_per_op"] = (ratio(mc_cpu * 1e9, mc_ops), "ns",
                         f"mcSimulate window CPU {mc_cpu:.4f} s / "
                         f"{mc_ops} memory ops on all cores")
    one = sum(c["ref_window_cpu_s"] for c in mc_cells if c["cores"] == 1)
    pair = sum(c["ref_window_cpu_s"] for c in sim_cells
               if c["name"].endswith("@sim"))
    m["mc.cores1_over_sim"] = (ratio(one, pair), "ratio",
                               f"mcSimulate --cores=1 {one:.4f} CPU-s / "
                               f"sim::simulate {pair:.4f} CPU-s")
    rounds = max(1, len({c["round"] for c in t.cells}))
    for name, key in (("mc.ctx_switches", None),
                      ("mc.shootdown_entries", "shootdown_entries"),
                      ("mc.coh_probes", "coh_probes")):
        total = sum(c["counts"]["ctx_switches"] if key is None else c[key]
                    for c in mc_cells)
        m[name] = (total / rounds, "count",
                   "summed over the mc cells of one round")

    b = t.batches
    scen = sum(x["scenarios"] for x in b)
    child = sum(x["child_cpu_s"] for x in b)
    m["campaign.child_cpu_s_per_scenario"] = (
        ratio(child, scen), "s", f"{child:.3f} child CPU-s / {scen} "
        "scenarios")
    m["campaign.parent_cpu_s"] = (
        statistics.median(x["parent_cpu_s"] for x in b) if b else 0.0, "s",
        f"runCampaign's own CPU per call, median of {len(b)} calls")
    busy = sum(x["wall_s"] * x["workers"] for x in b)
    m["campaign.pool_busy_ratio"] = (
        ratio(child, busy), "ratio",
        f"{child:.3f} child CPU-s / {busy:.3f} worker-wall-s")
    m["campaign.retries"] = (float(sum(x["retries"] for x in b)), "count",
                             f"over {len(b)} runCampaign calls")
    m["qa.violations"] = (float(sum(x["violations"] for x in b)), "count",
                          f"over {scen} scenarios")
    return m


def layer_of(name):
    head = name.split(".")[0]
    return head if "." in name else "bench"


def print_table(doc, out=sys.stdout):
    """Per layer and span: count, self time and duration quartiles."""
    t = Trace(doc)
    groups = {}
    for s in t.spans:
        groups.setdefault((layer_of(s["name"]), s["name"], s["variant"]),
                          []).append(s)
    total_self = sum(t.self_ns(s) for s in t.spans) or 1
    print(f"layer table: workload {doc['workload']}, seed {doc['seed']}, "
          f"{len(t.spans)} spans", file=out)
    print(f"  {'layer':<10} {'span':<14} {'variant':<10} {'n':>6} "
          f"{'self ms':>10} {'self %':>7} {'q1 us':>10} {'q2 us':>10} "
          f"{'q3 us':>10}", file=out)
    for (layer, name, variant), spans in sorted(groups.items()):
        self_ms = sum(t.self_ns(s) for s in spans) * 1e-6
        dur = [(s["end_ns"] - s["start_ns"]) * 1e-3 for s in spans]
        q = [quantile(dur, p) for p in (0.25, 0.5, 0.75)]
        print(f"  {layer:<10} {name:<14} {variant or '-':<10} "
              f"{len(spans):>6} {self_ms:>10.2f} "
              f"{100.0 * self_ms * 1e6 / total_self:>6.1f}% "
              f"{q[0]:>10.1f} {q[1]:>10.1f} {q[2]:>10.1f}", file=out)
    print_cells(doc, out)


def print_cells(doc, out=sys.stdout):
    """Per cell of round 0: front-cache hits and the gen/MMU split."""
    t = Trace(doc)
    print(f"  {'cell':<48} {'mem ops':>10} {'front hit':>9} "
          f"{'gen ns/op':>9} {'mmu ns/op':>9} {'gen share':>9}", file=out)
    for c in t.cells:
        if c["round"] != 0:
            continue
        line = (f"  {c['name'][:48]:<48} {c['counts']['mem_ops']:>10} "
                f"{ratio(c['counts']['front_hits'], c['counts']['mem_ops']):>9.3f}")
        if c["kind"] == "sim":
            cpu = {name: sum(s["cpu_ns"] for s in t.find(name, "off")
                             if s["cell"] == c["cell"] and s["round"] == 0)
                   for name in ("workloads.gen", "core.mmu")}
            ops = c["counts"]["mem_ops"]
            gen, mmu = cpu["workloads.gen"], cpu["core.mmu"]
            line += (f" {ratio(gen, ops):>9.1f} {ratio(mmu, ops):>9.1f} "
                     f"{ratio(gen, gen + mmu):>9.3f}")
        print(line, file=out)


def comparable(a, b):
    """Manifest keys (other than identity keys) on which a and b differ."""
    keys = (set(a) | set(b)) - IDENTITY_KEYS
    return sorted(k for k in keys if a.get(k) != b.get(k))


def print_metrics(doc, base=None, out=sys.stdout):
    metrics = layer_metrics(doc)
    base_metrics = layer_metrics(base) if base else {}
    print("per-layer metrics (value unit, then its base):", file=out)
    for name, (value, unit, why) in metrics.items():
        line = f"  {name:<36} {value:>14.6g} {unit:<13} {why}"
        if base:
            b = base_metrics[name][0]
            line += f" | base run {b:.6g}, ratio {ratio(value, b):.4f}"
        print(line, file=out)
    v = metrics["trace.overhead_kips"][0]
    print(f"tracing overhead: {v:.1f} kinstr/CPU-s "
          f"({100.0 * metrics['trace.overhead_ratio'][0]:.2f}% of "
          f"untraced sim_kips {metrics['sim.untraced_kips'][0]:.1f})",
          file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("traces", nargs="+")
    ap.add_argument("--against", help="trace of the base run to compare")
    args = ap.parse_args()
    base = None
    if args.against:
        with open(args.against) as f:
            base = json.load(f)
    for path in args.traces:
        with open(path) as f:
            doc = json.load(f)
        if base is not None:
            diff = comparable(doc["manifest"], base["manifest"])
            if diff or doc["workload"] != base["workload"]:
                sys.exit(f"{path}: not comparable with {args.against}: "
                         f"manifests differ in {diff or ['workload']}")
        print_table(doc)
        print_metrics(doc, base)
    return 0


if __name__ == "__main__":
    sys.exit(main())
