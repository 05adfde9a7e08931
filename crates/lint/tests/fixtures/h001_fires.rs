// Fixture: H001 must fire — an experiment constructing axis
// implementations directly instead of assembling a `SystemConfig` through
// the harness registry (linted under crates/bench/src/experiments/...).

pub fn experiment() {
    let g = make_graph();
    let part = partition_graph(&g, PartitionMethod::MetisV, 4, 7); // H001
    let blocks = stream_b(&g, 4, 1024, 3); // H001
    let cache = FeatureCache::degree_resident(&g, 1000); // H001
    let plan = FaultPlan::uniform(9, 0.05, 4, 100); // H001
    let policy = ResiliencePolicy::hedged(1.5); // H001
    run(&part, &blocks, &cache, &plan, &policy);
}
