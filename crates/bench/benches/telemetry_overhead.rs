//! Telemetry overhead bench: the trace-off pipeline must stay within a few
//! percent of its pre-instrumentation cost, and the gap between an untraced
//! and a fully traced run shows what `--trace` actually buys/costs.
//!
//! Three measurements over the same compressed matrix:
//! * `spmv_untraced` — the default path (`Option<&mut Telemetry>` is `None`:
//!   no clocks, no event sink, only the constant-cost opcode-class tallies
//!   inside the lane interpreter).
//! * `spmv_traced`  — full spans + per-block events + traffic ledger.
//! * `lane_decode_block` — the innermost always-on cost: one 8 KB block
//!   through the DSH interpreter, opcode-class accounting included.
//! * `recorder_overhead/*` — the same untraced run with the flight
//!   recorder off (one relaxed atomic load per would-be event) vs on
//!   (thread-local buffering into the global ring). The off/on gap is the
//!   price of `--chrome-trace`; the off path must be indistinguishable
//!   from `spmv_untraced`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use recode_codec::pipeline::MatrixCodecConfig;
use recode_core::exec::{RecodedSpmv, RunCtx};
use recode_core::telemetry::Telemetry;
use recode_core::SystemConfig;
use recode_sparse::gen::{generate, GenSpec, ValueModel};
use recode_udp::progs::DshDecoder;
use recode_udp::Lane;

fn bench_matrix() -> recode_sparse::Csr {
    generate(
        &GenSpec::Stencil2D {
            nx: 80,
            ny: 80,
            points: 9,
            values: ValueModel::QuantizedGaussian { levels: 48 },
        },
        2019,
    )
}

fn bench_trace_off_vs_on(c: &mut Criterion) {
    let a = bench_matrix();
    let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
    let sys = SystemConfig::ddr4();

    let mut group = c.benchmark_group("telemetry_overhead");
    group.throughput(Throughput::Bytes((a.nnz() * 12) as u64));
    group.bench_function("spmv_untraced", |b| {
        b.iter(|| {
            let (_, stats) = r.decompress_via_udp(&sys).unwrap();
            std::hint::black_box(stats.accel.makespan_cycles);
        });
    });
    group.bench_function("spmv_traced", |b| {
        b.iter(|| {
            let mut tel = Telemetry::new();
            let ctx = RunCtx { tel: Some(&mut tel), ..RunCtx::default() };
            let (_, stats) = r.decompress_with(&sys, ctx).unwrap();
            std::hint::black_box((stats.accel.makespan_cycles, tel.block_events().len()));
        });
    });
    group.finish();
}

fn bench_recorder_off_vs_on(c: &mut Criterion) {
    use recode_core::recorder;
    let a = bench_matrix();
    let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
    let sys = SystemConfig::ddr4();

    let mut group = c.benchmark_group("recorder_overhead");
    group.throughput(Throughput::Bytes((a.nnz() * 12) as u64));
    recorder::disable();
    group.bench_function("spmv_recorder_off", |b| {
        b.iter(|| {
            let (_, stats) = r.decompress_via_udp(&sys).unwrap();
            std::hint::black_box(stats.accel.makespan_cycles);
        });
    });
    recorder::enable(recorder::DEFAULT_CAPACITY);
    group.bench_function("spmv_recorder_on", |b| {
        b.iter(|| {
            let (_, stats) = r.decompress_via_udp(&sys).unwrap();
            std::hint::black_box(stats.accel.makespan_cycles);
        });
    });
    let events = recorder::drain();
    std::hint::black_box(events.len());
    recorder::disable();
    group.finish();
}

fn bench_lane_decode(c: &mut Criterion) {
    let a = bench_matrix();
    let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
    let cm = r.compressed();
    let decoder = DshDecoder::new(cm.config.index, cm.index_table_lengths.as_deref()).unwrap();
    let block = &cm.index_stream.blocks[0];
    c.bench_function("lane_decode_block", |b| {
        let mut lane = Lane::new();
        b.iter(|| {
            let o = decoder.decode_block(&mut lane, block).unwrap();
            std::hint::black_box((o.cycles, o.opclass.total()));
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion.sample_size(20);
    targets = bench_trace_off_vs_on, bench_recorder_off_vs_on, bench_lane_decode
}
criterion_main!(benches);
