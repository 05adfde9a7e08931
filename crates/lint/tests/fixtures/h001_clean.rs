// Fixture: H001 must NOT fire — the experiment assembles its
// system-under-test through the harness registry; forbidden constructor
// names appear only in prose ("partition_graph, FeatureCache and FaultPlan
// are what the Partitioner / Cache / Faults axis values build").

pub fn experiment() {
    let g = make_graph();
    let reg = Registry::builtin();
    let spec = GridSpec { partitioner: "metis-v".to_string(), ..GridSpec::default() };
    let cfg = SystemConfig::from_spec(&reg, &spec).unwrap();
    let part = cfg.partitioner.build(&g, cfg.parallel.workers(), 7);
    run(&part);
}
