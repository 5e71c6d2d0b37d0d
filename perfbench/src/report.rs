//! What a measured phase records, the counters read from each layer, and
//! the metric catalogue printed at the end of a run.

use crate::measure::{ms, percentile, sorted, windowed_p99, AllocSnapshot};
use crate::trace::SpanLog;
use nimble_core::EngineStats;
use nimble_device::{DeviceId, DeviceSet};
use nimble_vm::isa::opcode_name;
use nimble_vm::{ArenaStats, ProfileReport};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("us_per_token", "us"),
    ("goodput_rps", "1/s"),
    ("served_ratio", "ratio"),
    ("allocs_per_req", "count"),
    ("heap_bytes_per_req", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Span names the benchmark records, each with the metric giving its
/// mean self time.
const SPAN_SELF: [(&str, &str); 8] = [
    ("bench.setup", "span.bench.setup.self_us_mean"),
    ("bench.compile", "span.bench.compile.self_us_mean"),
    ("bench.register", "span.bench.register.self_us_mean"),
    ("bench.warmup", "span.bench.warmup.self_us_mean"),
    ("bench.request", "span.bench.request.self_us_mean"),
    ("serve.submit", "span.serve.submit.self_us_mean"),
    ("serve.wait", "span.serve.wait.self_us_mean"),
    ("vm.run_in", "span.vm.run_in.self_us_mean"),
];

/// Per-layer metrics, printed by traced runs, with their units. A layer
/// a workload does not cross reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("core.compile_ms", "ms"),
    ("core.instructions", "count"),
    ("codegen.kernels", "count"),
    ("passes.storages", "count"),
    ("passes.shape_funcs", "count"),
    ("passes.fusion_groups", "count"),
    ("passes.device_copies", "count"),
    ("serve.submit_p50_us", "us"),
    ("serve.submit_p99_us", "us"),
    ("serve.residual_p50_us", "us"),
    ("serve.shed_ratio", "ratio"),
    ("serve.expired", "count"),
    ("core.queue_wait_p50_ms", "ms"),
    ("core.queue_wait_p99_ms", "ms"),
    ("core.exec_p50_ms", "ms"),
    ("core.exec_p99_ms", "ms"),
    ("core.batch_size_mean", "count"),
    ("core.batches_formed", "count"),
    ("core.pad_waste_ratio", "ratio"),
    ("vm.instr_per_req", "count"),
    ("vm.instr_per_token", "count"),
    ("vm.kernel_calls_per_req", "count"),
    ("vm.alloc_instr_per_req", "count"),
    ("vm.kernel_ms_per_req", "ms"),
    ("vm.shape_func_ms_per_req", "ms"),
    ("vm.other_ms_per_req", "ms"),
    ("vm.ns_per_instr", "ns"),
    ("vm.arena_hit_rate", "ratio"),
    ("vm.arena_high_water_kib", "KiB"),
    ("device.syncs_per_req", "count"),
    ("device.copies_per_req", "count"),
    ("device.copy_kib_per_req", "KiB"),
    ("device.pool_hit_rate", "ratio"),
    ("tensor.prepack_entries", "count"),
    ("tensor.prepack_kib", "KiB"),
    ("specialize.hit_ratio", "ratio"),
    ("specialize.tunes", "count"),
    ("specialize.installs", "count"),
    ("obs.dropped_spans", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.requests", "count"),
    ("span.bench.setup.self_us_mean", "us"),
    ("span.bench.compile.self_us_mean", "us"),
    ("span.bench.register.self_us_mean", "us"),
    ("span.bench.warmup.self_us_mean", "us"),
    ("span.bench.request.self_us_mean", "us"),
    ("span.serve.submit.self_us_mean", "us"),
    ("span.serve.wait.self_us_mean", "us"),
    ("span.vm.run_in.self_us_mean", "us"),
];

/// Outcome counts and samples of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent (open loop) or calls made (closed loop).
    pub attempted: u64,
    /// Requests that reached the VM and came back, with any result.
    pub completed: u64,
    /// Completions whose output matched the reference.
    pub ok: u64,
    /// Completions whose output did not.
    pub wrong: u64,
    /// VM errors and refusals other than load shedding.
    pub errors: u64,
    /// Refused at admission: queue full, or deadline already passed.
    pub shed: u64,
    /// Admitted but expired while queued.
    pub expired: u64,
    /// End-to-end latency of each correct completion (ms), in send order.
    pub latency_ms: Vec<f64>,
    /// Work units (tokens, tree nodes) of the correct completions.
    pub tokens: u64,
    /// Correct completions within the workload's latency limit.
    pub within_limit: u64,
    /// Measured duration: the schedule start to the last reply (open
    /// loop), or the loop's wall time (closed loop), in seconds.
    pub wall_s: f64,
    /// Heap allocations made by every thread during the phase.
    pub allocs: AllocSnapshot,
    /// Generator lateness per request sent (ms); open loop only.
    pub late_ms: Vec<f64>,
    /// Time inside `submit_with_deadline` per request sent (µs).
    pub submit_us: Vec<f64>,
    /// Unattributed latency per correct completion (µs).
    pub residual_us: Vec<f64>,
    /// `Completion.queued` per completion (ms).
    pub queued_ms: Vec<f64>,
    /// `Completion.execution` per completion (ms).
    pub exec_ms: Vec<f64>,
    /// Sum of `Completion.batch_size` over completions.
    pub batch_size_sum: u64,
    /// Spans, when the phase was traced.
    pub spans: SpanLog,
}

impl Phase {
    /// Requests that went wrong: wrong outputs, VM errors, lost or
    /// refused for a reason other than load.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors
    }

    /// Median latency of correct completions (ms).
    pub fn p50_ms(&self) -> Option<f64> {
        percentile(&sorted(self.latency_ms.iter().copied()), 0.5)
    }

    /// The end-to-end metrics this phase determines (all but `setup_s`
    /// and `peak_rss_mib`); returns how many windows the p99 took.
    pub fn end_to_end(&self, out: &mut BTreeMap<&'static str, f64>) -> Result<usize, String> {
        let lat = sorted(self.latency_ms.iter().copied());
        let too_few = || format!("{} correct completions are too few for p99", lat.len());
        let (p99, windows) = windowed_p99(&self.latency_ms).ok_or_else(too_few)?;
        out.insert("latency_p50_ms", percentile(&lat, 0.5).ok_or_else(too_few)?);
        out.insert("latency_p99_ms", p99);
        out.insert(
            "us_per_token",
            lat.iter().sum::<f64>() * 1e3 / self.tokens.max(1) as f64,
        );
        out.insert("goodput_rps", self.within_limit as f64 / self.wall_s);
        out.insert(
            "served_ratio",
            self.ok as f64 / self.attempted.max(1) as f64,
        );
        let (allocs, bytes) = self.allocs.per(self.completed);
        out.insert("allocs_per_req", allocs);
        out.insert("heap_bytes_per_req", bytes);
        Ok(windows)
    }

    /// The per-layer metrics read from this phase's own samples.
    pub fn per_layer(&self, out: &mut BTreeMap<&'static str, f64>) {
        let pct = |v: &[f64], q: f64| percentile(&sorted(v.iter().copied()), q).unwrap_or(0.0);
        out.insert("serve.submit_p50_us", pct(&self.submit_us, 0.5));
        out.insert("serve.submit_p99_us", pct(&self.submit_us, 0.99));
        out.insert("serve.residual_p50_us", pct(&self.residual_us, 0.5));
        out.insert(
            "serve.shed_ratio",
            self.shed as f64 / self.attempted.max(1) as f64,
        );
        out.insert("serve.expired", self.expired as f64);
        out.insert("core.queue_wait_p50_ms", pct(&self.queued_ms, 0.5));
        out.insert("core.queue_wait_p99_ms", pct(&self.queued_ms, 0.99));
        out.insert("core.exec_p50_ms", pct(&self.exec_ms, 0.5));
        out.insert("core.exec_p99_ms", pct(&self.exec_ms, 0.99));
        out.insert(
            "core.batch_size_mean",
            self.batch_size_sum as f64 / self.exec_ms.len().max(1) as f64,
        );
        out.insert("bench.gen_late_p99_ms", pct(&self.late_ms, 0.99));
        out.insert("bench.requests", self.attempted as f64);
        let selfs = self.spans.self_times();
        for (span, metric) in SPAN_SELF {
            let mean_ns = selfs
                .get(span)
                .map_or(0.0, |&(n, ns)| ns as f64 / n.max(1) as f64);
            out.insert(metric, mean_ns / 1e3);
        }
    }
}

/// Counters the layers expose, summed over a workload's models; the
/// difference of two snapshots covers the phase between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// VM profile (reset when profiling is switched on, so not diffed).
    pub profile: ProfileReport,
    /// Storage-arena counters.
    pub arena: ArenaStats,
    /// Engine counters.
    pub engine: EngineStats,
    /// Specializer hits, misses, tunes and installs.
    pub spec: [u64; 4],
    /// Device syncs, copies, copied bytes, pool allocations, pool hits.
    pub device: [u64; 5],
}

/// Device counters of `set`, in [`Counters::device`] order.
pub fn device_counters(set: &DeviceSet) -> [u64; 5] {
    let (h2d, d2h, bytes) = set.copy_stats().snapshot();
    let pools = [DeviceId::Cpu, DeviceId::Gpu].map(|d| set.pool(d).stats());
    [
        set.sync_count(),
        h2d + d2h,
        bytes,
        pools.iter().map(|p| p.allocs).sum(),
        pools.iter().map(|p| p.pool_hits).sum(),
    ]
}

impl Counters {
    /// The per-layer metrics these counters (taken after a phase, minus
    /// `before`) give for `phase`.
    pub fn per_layer(
        &self,
        before: &Counters,
        phase: &Phase,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        let reqs = phase.completed.max(1) as f64;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let p = &self.profile;
        let sum_ops = |of: &[u64], names: &[&str]| -> u64 {
            (0..of.len())
                .filter(|&op| names.contains(&opcode_name(op as u8)))
                .map(|op| of[op])
                .sum()
        };
        let alloc_ops = sum_ops(
            &p.counts,
            &["AllocStorage", "AllocTensor", "AllocTensorReg"],
        );
        // A call instruction's time includes its callee's instructions,
        // which are timed again on their own, so recursive programs would
        // count their body once per call depth. "Other" is therefore the
        // time of the remaining non-kernel instructions only.
        let call_ns = sum_ops(&p.op_ns, &["Invoke", "InvokeClosure"]);
        let other_ns = p.other_ns.saturating_sub(call_ns);
        let timed_ns = p.kernel_ns + p.shape_func_ns + other_ns;
        out.insert("vm.instr_per_req", p.instructions as f64 / reqs);
        out.insert(
            "vm.instr_per_token",
            p.instructions as f64 / phase.tokens.max(1) as f64,
        );
        out.insert(
            "vm.kernel_calls_per_req",
            p.kernel_invocations as f64 / reqs,
        );
        out.insert("vm.alloc_instr_per_req", alloc_ops as f64 / reqs);
        out.insert("vm.kernel_ms_per_req", p.kernel_ns as f64 / 1e6 / reqs);
        out.insert(
            "vm.shape_func_ms_per_req",
            p.shape_func_ns as f64 / 1e6 / reqs,
        );
        out.insert("vm.other_ms_per_req", other_ns as f64 / 1e6 / reqs);
        out.insert("vm.ns_per_instr", ratio(timed_ns, p.instructions));

        let (a, b) = (&self.arena, &before.arena);
        out.insert(
            "vm.arena_hit_rate",
            ratio(a.hits - b.hits, (a.hits + a.misses) - (b.hits + b.misses)),
        );
        out.insert(
            "vm.arena_high_water_kib",
            a.high_water_bytes as f64 / 1024.0,
        );

        let (e, eb) = (&self.engine, &before.engine);
        out.insert(
            "core.batches_formed",
            (e.batches_formed - eb.batches_formed) as f64,
        );
        let padded = e.padded_units - eb.padded_units;
        out.insert(
            "core.pad_waste_ratio",
            ratio(padded, padded + e.used_units - eb.used_units),
        );

        let s: [u64; 4] = std::array::from_fn(|i| self.spec[i] - before.spec[i]);
        out.insert("specialize.hit_ratio", ratio(s[0], s[0] + s[1]));
        out.insert("specialize.tunes", s[2] as f64);
        out.insert("specialize.installs", s[3] as f64);

        let d: [u64; 5] = std::array::from_fn(|i| self.device[i] - before.device[i]);
        out.insert("device.syncs_per_req", d[0] as f64 / reqs);
        out.insert("device.copies_per_req", d[1] as f64 / reqs);
        out.insert("device.copy_kib_per_req", d[2] as f64 / 1024.0 / reqs);
        out.insert("device.pool_hit_rate", ratio(d[4], d[3]));
    }
}

/// Prepack-cache size after set-up.
pub fn prepack(out: &mut BTreeMap<&'static str, f64>) {
    out.insert(
        "tensor.prepack_entries",
        nimble_tensor::prepack::cache_len() as f64,
    );
    out.insert(
        "tensor.prepack_kib",
        nimble_tensor::prepack::cache_bytes() as f64 / 1024.0,
    );
}

/// Compile `modules` once more, outside set-up, and report the time and
/// `CompileReport` counters of `nimble_core::compile` summed over them.
pub fn compile_layer(
    modules: &[nimble_ir::Module],
    opts: &nimble_core::CompileOptions,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut total_ms = 0.0;
    let mut sums = [0usize; 6];
    for m in modules {
        let t0 = std::time::Instant::now();
        let (_exe, r) = nimble_core::compile(m, opts).map_err(|e| e.to_string())?;
        total_ms += ms(t0.elapsed());
        let parts = [
            r.instructions,
            r.kernels,
            r.memplan.storages,
            r.memplan.shape_funcs,
            r.fusion_groups.len(),
            r.placement.copies_inserted,
        ];
        for (s, p) in sums.iter_mut().zip(parts) {
            *s += p;
        }
    }
    out.insert("core.compile_ms", total_ms);
    let names = [
        "core.instructions",
        "codegen.kernels",
        "passes.storages",
        "passes.shape_funcs",
        "passes.fusion_groups",
        "passes.device_copies",
    ];
    for (name, v) in names.into_iter().zip(sums) {
        out.insert(name, v as f64);
    }
    Ok(())
}
