//! Pins the registry/grid contract (DESIGN.md §14): the builtin spec
//! lists enumerate in their pinned order, `SystemConfig` serialization
//! round-trips to an equal value, out-of-range and malformed specs are
//! errors (never panics), and grid enumeration order is identical at any
//! worker-pool size.

use gnn_dm_harness::{Axis, Grid, GridSpec, Registry, SystemConfig};
use gnn_dm_par::with_threads;

/// 1. List order is enumeration order — the builtin registry enumerates
/// each axis's specs exactly in its pinned order, every time it is
/// constructed.
#[test]
fn builtin_registration_order_is_enumeration_order() {
    let reg = Registry::builtin();
    assert_eq!(
        reg.specs(Axis::Partitioner),
        ["hash", "metis-v", "metis-ve", "metis-vet", "stream-v", "stream-b"]
    );
    assert_eq!(
        reg.specs(Axis::BatchPrep),
        [
            "fanout(25,10)+fixed(512)",
            "fanout(10,5)+fixed(256)",
            "rate(0.5,0.5;min=1)+fixed(256)",
            "fanout(5,5)+adaptive(128,2048,x2,every3)",
        ]
    );
    assert_eq!(
        reg.specs(Axis::Transfer),
        ["extract-load", "zero-copy", "zero-copy+pipe(bp)", "zero-copy+pipe(full)", "hybrid(0.5)"]
    );
    assert_eq!(reg.specs(Axis::Cache), ["none", "degree(0.3)", "presample(0.3,3)"]);
    assert_eq!(reg.specs(Axis::Parallel), ["single", "cluster(4)"]);
    assert_eq!(reg.specs(Axis::Faults), ["none", "uniform(13,0.25)"]);
    assert_eq!(reg.specs(Axis::Resilience), ["none", "hedge(1.5)"]);

    // Two constructions agree axis-for-axis (no map iteration anywhere).
    let again = Registry::builtin();
    for axis in Axis::ALL {
        assert_eq!(reg.specs(axis), again.specs(axis), "axis {}", axis.label());
    }
}

/// 2. Serialization round-trip: every cell of the full seven-axis builtin
/// product satisfies `from_id(id()) == self`, value for value — the config
/// id is a faithful serialization, not a display string.
#[test]
fn system_config_id_round_trips() {
    let reg = Registry::builtin();
    let mut grid = Grid::over(GridSpec::default());
    for axis in Axis::ALL {
        grid = grid.vary(axis, reg.specs(axis)).expect("builtin specs are valid");
    }
    let configs = grid.configs(&reg).expect("builtin product resolves");
    assert_eq!(configs.len(), 6 * 4 * 5 * 3 * 2 * 2 * 2);
    for cfg in &configs {
        let id = cfg.id();
        let back = SystemConfig::from_id(&reg, &id).expect("id parses back");
        assert_eq!(&back, cfg, "round-trip changed the config");
        assert_eq!(back.id(), id, "round-trip changed the id");
    }
}

/// Malformed ids fail loudly rather than resolving to something else.
#[test]
fn malformed_ids_are_rejected() {
    let reg = Registry::builtin();
    for bad in [
        "",
        "hash",
        "a/b/c/d/e/f",
        "a/b/c/d/e/f/g/h",
        "nope/fanout(25,10)+fixed(512)/extract-load/none/single/none/none",
        "hash/fanout(25,10)+fixed(512)/extract-load/none/single/none/stale(2)+hedge(1.5)",
    ]
    {
        assert!(SystemConfig::from_id(&reg, bad).is_err(), "`{bad}` should not resolve");
    }
}

/// Hostile specs: every out-of-range parameter, truncated or unbalanced
/// form, empty list, overflowing integer and non-canonical spelling is an
/// `Err` from resolution — nothing reaches a constructor that would panic
/// or price nonsense.
#[test]
fn hostile_specs_are_errors_not_panics() {
    let reg = Registry::builtin();
    let hostile: [(Axis, &[&str]); 7] = [
        (
            Axis::Partitioner,
            &[
                "",
                "metis-raw(refine=-1)",
                "metis-raw(refine=)",
                "metis-raw(refine=01)",
                "metis-raw(refine=18446744073709551616)",
                "stream-v(quick)",
                "stream-v(fast",
                "stream-v(fast))",
            ],
        ),
        (
            Axis::BatchPrep,
            &[
                "fanout(25,10)",
                "fanout(25,10)+fixed(0)",
                "fanout(25,10)+fixed(18446744073709551616)",
                "fanout()+fixed(512)",
                "fanout(25,,10)+fixed(512)",
                "fanout(0,5)+fixed(512)",
                "fanout(25, 10)+fixed(512)",
                "fanout(25,10+fixed(512)",
                "fanout(25,10))+fixed(512)",
                "fanout(25,10)+fixed(512)+cluster(0,1)",
                "fanout(25,10)+fixed(512)+cluster(4)",
                "fanout(25,10)+fixed(512)+cluster(4,1)+cluster(4,1)",
                "rate(NaN;min=1)+fixed(2)",
                "rate(0,0.5;min=1)+fixed(2)",
                "rate(1.5;min=1)+fixed(2)",
                "rate(;min=1)+fixed(2)",
                "hybrid(8;0.3,0.3;thr=24)+fixed(256)",
                "hybrid(8,8;0.3,0.3)+fixed(256)",
                "importance(10,5)+fixed(128)",
                "fanout(5,5)+adaptive(0,0,x0,every0)",
                "fanout(5,5)+adaptive(128,2048,x1,every3)",
                "fanout(5,5)+adaptive(128,2048,xinf,every3)",
                "fanout(5,5)+adaptive(128,2048,xNaN,every3)",
                "fanout(5,5)+adaptive(128,2048,x2,every0)",
                "fanout(5,5)+steps()",
                "fanout(5,5)+steps(0:0)",
                "fanout(5,5)+steps(0)",
                "fanout(5,5)+steps(5:64,0:128)",
                "fanout(5,5)+steps(0:64,0:128)",
            ],
        ),
        (
            Axis::Transfer,
            &[
                "",
                "hybrid(NaN)",
                "hybrid(-3)",
                "hybrid(2)",
                "hybrid(0.50)",
                "hybrid(0.5",
                "zero-copy+",
                "zero-copy+eff(0)",
                "zero-copy+eff(NaN)",
                "zero-copy+eff(1.5)",
                "zero-copy+eff(0.5)+pipe(bp)",
                "zero-copy+pipe(bp)+pipe(full)",
            ],
        ),
        (
            Axis::Cache,
            &[
                "degree(NaN)",
                "degree(2)",
                "degree(-0.1)",
                "degree(3e-1)",
                "degree(0.3",
                "degree0.3)",
                "degree()",
                "presample(0.3)",
                "presample(0.3,0)",
                "presample(inf,3)",
            ],
        ),
        (
            Axis::Parallel,
            &[
                "cluster(0)",
                "cluster()",
                "cluster(4",
                "cluster(4))",
                "cluster(04)",
                "cluster(-4)",
                "cluster(99999999999999999999999)",
            ],
        ),
        (
            Axis::Faults,
            &[
                "uniform(13,7)",
                "uniform(13,-1)",
                "uniform(13,NaN)",
                "uniform(13)",
                "uniform(-1,0.1)",
                "uniform(18446744073709551616,0.1)",
                "uniform(13,0.25",
            ],
        ),
        (
            Axis::Resilience,
            &[
                "hedge(NaN)",
                "hedge(0)",
                "hedge(inf)",
                "hedge(1.5",
                "hedge(1.5)+",
                "hedge(1.5)+hedge(1.5)",
                "none+hedge(1.5)",
                "deadline(NaN,skip)",
                "deadline(0,skip)",
                "deadline(0.05,retry)",
                "deadline(0.05)",
                "redispatch(NaN)",
                "redispatch(1.5)",
                "stale(-1)",
                "stale(2)+hedge(1.5)",
                "redispatch(0.5)+deadline(0.05,skip)",
            ],
        ),
    ];
    for (axis, specs) in hostile {
        for bad in specs {
            let mut spec = GridSpec::default();
            spec.set(axis, *bad);
            let resolved = SystemConfig::from_spec(&reg, &spec);
            assert!(resolved.is_err(), "{} spec `{bad}` should not resolve", axis.label());
        }
    }
    // The three ids that used to resolve and then panic inside the
    // partitioner, the batch selector and the device memory model.
    for id in [
        "hash/fanout(25,10)+fixed(512)/extract-load/none/cluster(0)/none/none",
        "hash/fanout(25,10)+fixed(0)/extract-load/none/single/none/none",
        "hash/fanout(25,10)+fixed(512)/extract-load/degree(NaN)/single/none/none",
    ] {
        assert!(SystemConfig::from_id(&reg, id).is_err(), "`{id}` should not resolve");
    }
    // Parameters whose zero (or lower bound) is meaningful stay in the
    // grammar.
    for id in [
        "metis-raw(refine=0)/rate(0.5;min=0)+fixed(1)/hybrid(0)/degree(0)/cluster(1)/uniform(0,0)/hedge(1)",
        "hash/hybrid(8;1;thr=0)+steps(0:1)/zero-copy+eff(1)/presample(1,1)/single/none/redispatch(0)+stale(0)",
        "hash/fanout(5,5)+steps(0:128,4:512,10:2048)/extract-load/none/single/none/none",
    ] {
        let cfg = SystemConfig::from_id(&reg, id).expect("boundary values are in range");
        assert_eq!(cfg.id(), id);
    }
}

/// 3. Grid enumeration order is pinned: row-major over the `vary`
/// declarations (first axis slowest), and bitwise-identical under
/// `GNN_DM_THREADS` ∈ {1, 2, 8} — the enumeration must never depend on
/// the worker pool.
#[test]
fn grid_enumeration_order_is_pinned_across_thread_counts() {
    let reg = Registry::builtin();
    let enumerate = || -> Vec<String> {
        let grid = Grid::over(GridSpec::default())
            .vary(
                Axis::Partitioner,
                vec!["hash".to_string(), "metis-v".to_string()],
            )
            .and_then(|g| {
                g.vary(Axis::Cache, vec!["none".to_string(), "degree(0.3)".to_string()])
            })
            .and_then(|g| {
                g.vary(Axis::Faults, vec!["none".to_string(), "uniform(13,0.25)".to_string()])
            })
            .expect("grid is valid");
        grid.configs(&reg).expect("specs resolve").iter().map(SystemConfig::id).collect()
    };
    let expected: Vec<String> = [
        // Partitioner slowest, faults fastest — row-major.
        ("hash", "none", "none"),
        ("hash", "none", "uniform(13,0.25)"),
        ("hash", "degree(0.3)", "none"),
        ("hash", "degree(0.3)", "uniform(13,0.25)"),
        ("metis-v", "none", "none"),
        ("metis-v", "none", "uniform(13,0.25)"),
        ("metis-v", "degree(0.3)", "none"),
        ("metis-v", "degree(0.3)", "uniform(13,0.25)"),
    ]
    .iter()
    .map(|(p, c, f)| {
        format!("{p}/fanout(25,10)+fixed(512)/extract-load/{c}/single/{f}/none")
    })
    .collect();
    for threads in [1usize, 2, 8] {
        let ids = with_threads(threads, enumerate);
        assert_eq!(ids, expected, "enumeration changed at {threads} thread(s)");
    }
}

/// Declaring an axis twice or with no values is an error, not a silent
/// last-writer-wins.
#[test]
fn invalid_grid_declarations_are_rejected() {
    let twice = Grid::over(GridSpec::default())
        .vary(Axis::Cache, vec!["none".to_string()])
        .and_then(|g| g.vary(Axis::Cache, vec!["degree(0.3)".to_string()]));
    assert!(twice.is_err(), "redeclared axis must be rejected");
    let empty = Grid::over(GridSpec::default()).vary(Axis::Cache, Vec::new());
    assert!(empty.is_err(), "empty axis must be rejected");
}
