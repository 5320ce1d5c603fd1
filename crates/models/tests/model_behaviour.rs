//! Model-level behaviour: the embedding-vs-MLP dichotomy of Fig. 6, NDP
//! end-to-end correctness, and pipelining overlap.

use recssd::{OpKind, RecSsdConfig, SlsOptions, SlsPath, System};
use recssd_embedding::PageLayout;
use recssd_models::{BatchGen, ModelConfig, ModelInstance};

/// A config large enough for several small tables.
fn sys_with_tables() -> System {
    System::new(RecSsdConfig::small_wide())
}

fn small(cfg: ModelConfig) -> ModelConfig {
    cfg.scaled_tables(1000)
}

#[test]
fn embedding_dominated_models_collapse_on_ssd_but_mlp_models_do_not() {
    // The Fig. 6 dichotomy, at test scale: batch 4, 1000-row tables.
    let ratio = |cfg: ModelConfig| -> f64 {
        let mut sys = sys_with_tables();
        let model = ModelInstance::build(&mut sys, cfg, PageLayout::Spread, 1);
        let mut gen = BatchGen::uniform(11);
        let dram = model.run_inference(&mut sys, 4, SlsPath::Dram, &mut gen);
        sys.device_mut().ftl_mut().drop_caches();
        let ssd = model.run_inference(
            &mut sys,
            4,
            SlsPath::Baseline(SlsOptions::default()),
            &mut gen,
        );
        ssd.latency.as_ns() as f64 / dram.latency.as_ns() as f64
    };
    let rm1 = ratio(small(ModelConfig::dlrm_rmc1()));
    let wnd = ratio(small(ModelConfig::wnd()));
    let ncf = ratio(small(ModelConfig::ncf()));
    assert!(rm1 > 10.0, "RM1 must collapse on SSD: {rm1:.2}x");
    assert!(wnd < 2.0, "WND must tolerate SSD: {wnd:.2}x");
    assert!(ncf < 2.0, "NCF must tolerate SSD: {ncf:.2}x");
    assert!(rm1 > 5.0 * wnd, "dichotomy must be stark");
}

#[test]
fn ndp_end_to_end_outputs_match_dram() {
    let mut sys = sys_with_tables();
    let model = ModelInstance::build(
        &mut sys,
        small(ModelConfig::dlrm_rmc3()),
        PageLayout::Spread,
        3,
    );
    // Same generator seeds so both runs draw identical batches.
    let mut gen_a = BatchGen::uniform(5);
    let mut gen_b = BatchGen::uniform(5);
    let ndp = model.run_inference(&mut sys, 4, SlsPath::Ndp(SlsOptions::default()), &mut gen_a);
    let dram = model.run_inference(&mut sys, 4, SlsPath::Dram, &mut gen_b);
    for (a, b) in ndp.sls_ops.iter().zip(&dram.sls_ops) {
        assert_eq!(
            sys.result(*a).outputs,
            sys.result(*b).outputs,
            "embedding outputs must be identical"
        );
    }
}

#[test]
fn ndp_speeds_up_embedding_dominated_models() {
    // Fig. 9's naive-configuration effect at test scale.
    let mut sys = sys_with_tables();
    let model = ModelInstance::build(
        &mut sys,
        small(ModelConfig::dlrm_rmc1()),
        PageLayout::Spread,
        7,
    );
    let mut gen = BatchGen::uniform(13);
    let base = model.run_inference(
        &mut sys,
        4,
        SlsPath::Baseline(SlsOptions::naive()),
        &mut gen,
    );
    sys.device_mut().ftl_mut().drop_caches();
    let ndp = model.run_inference(&mut sys, 4, SlsPath::Ndp(SlsOptions::naive()), &mut gen);
    let speedup = base.latency.as_ns() as f64 / ndp.latency.as_ns() as f64;
    assert!(
        speedup > 2.0,
        "NDP should speed up RM1 substantially: {speedup:.2}x"
    );
}

#[test]
fn inference_times_decompose_sensibly() {
    let mut sys = sys_with_tables();
    let model = ModelInstance::build(
        &mut sys,
        small(ModelConfig::dlrm_rmc3()),
        PageLayout::Spread,
        9,
    );
    let mut gen = BatchGen::uniform(17);
    let r = model.run_inference(&mut sys, 2, SlsPath::Ndp(SlsOptions::default()), &mut gen);
    assert!(r.embed_time > recssd_sim::SimDuration::ZERO);
    assert!(r.bottom_time > recssd_sim::SimDuration::ZERO);
    assert!(r.top_time > recssd_sim::SimDuration::ZERO);
    // The top MLP runs after everything else, so latency covers at least
    // the longest of (embed, bottom) plus top.
    assert!(r.latency >= r.top_time);
    assert!(r.latency >= r.embed_time.max(r.bottom_time));
}

#[test]
fn pipelining_overlaps_batches() {
    // With SLS and NN pools, N batches of an MLP-heavy model must take
    // well under N sequential latencies (§4.2: "Multi-threading and
    // software pipelining can be used to overlap NDP SLS I/O operations
    // with the rest of the neural network computation"). Device-bound
    // embedding models cannot overlap their device time, so this effect
    // is demonstrated on WND.
    let mut sys = sys_with_tables();
    let model = ModelInstance::build(&mut sys, small(ModelConfig::wnd()), PageLayout::Spread, 21);
    let path = SlsPath::Ndp(SlsOptions::default());
    let mut gen = BatchGen::uniform(23);
    let single = model.run_inference(&mut sys, 8, path, &mut gen);
    let n = 6;
    let (makespan, mean_latency) = model.run_pipelined(&mut sys, 8, n, path, &mut gen);
    assert!(
        makespan.as_ns() < single.latency.as_ns() * n as u64 * 7 / 10,
        "pipelining must overlap: makespan {makespan} vs {n}x {}",
        single.latency
    );
    assert!(
        mean_latency >= single.latency / 2,
        "sanity on per-batch latency"
    );
}

#[test]
fn batch_generators_are_deterministic_and_in_range() {
    let rows = 500;
    for mk in [
        || BatchGen::uniform(3),
        || BatchGen::locality(500, recssd_trace::LocalityK::K1, 2, 3),
        || BatchGen::strided(128, 2),
        || BatchGen::sequential(2),
    ] {
        let mut a = mk();
        let mut b = mk();
        let ba = a.batch(1, 3, 7, rows);
        let bb = b.batch(1, 3, 7, rows);
        assert_eq!(ba, bb);
        assert!(ba
            .per_output()
            .iter()
            .all(|ids| ids.iter().all(|&id| id < rows)));
    }
}

#[test]
fn strided_generator_walks_pages() {
    let mut g = BatchGen::strided(128, 1);
    let b = g.batch(0, 1, 4, 100_000);
    assert_eq!(b.per_output()[0], vec![0, 128, 256, 384]);
}

#[test]
fn mlp_compute_occupies_nn_pool_not_sls_pool() {
    let mut sys = sys_with_tables();
    let a = sys.submit(OpKind::host_compute(1e9, 1e6));
    let b = sys.submit(OpKind::host_compute(1e9, 1e6));
    sys.run_until_idle();
    // Two NN workers exist (4 by default), so these overlap fully.
    let ra = sys.result(a).clone();
    let rb = sys.result(b).clone();
    assert_eq!(ra.started, rb.started, "parallel NN workers");
}
