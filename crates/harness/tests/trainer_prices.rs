//! Pins the hetero trainer's epoch-0 prices bit for bit: every builtin
//! transfer spec (plus `zero-copy+eff(0.5)`) crossed with every builtin
//! cache spec, each built through `SystemConfig::hetero_trainer` on one
//! 3 000-vertex planted graph. A refactor of the trainer, the cache
//! builder or the transfer engine that moves any of these bits changed a
//! price, not just the code.

use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_harness::{Axis, Grid, GridSpec, Registry};

/// `(transfer, cache, [makespan, bp, dt, gather, nn, pcie_bytes,
/// cache_hit_rate, num_batches])`, the floats as `f64::to_bits`.
const EXPECTED: [(&str, &str, [u64; 8]); 18] = [
    ("extract-load", "none", [4570555446859015391, 4562684064411555760, 4566841176154839590, 4565240028360893554, 4557913823063047042, 5578296, 0, 4]),
    ("extract-load", "degree(0.3)", [4568930571556197376, 4562684064411555760, 4563782579550360208, 4562517264339955259, 4557913823063047041, 3749944, 4600127803887934038, 4]),
    ("extract-load", "presample(0.3,3)", [4568952412501180647, 4562684064411555758, 4563826261440326751, 4562553862680197497, 4557913823063047042, 3774520, 4600041022361593699, 4]),
    ("zero-copy", "none", [4567164169319180324, 4562684064411555758, 4558353127626339762, 0, 4557913823063047043, 5578296, 0, 4]),
    ("zero-copy", "degree(0.3)", [4566787750330110513, 4562684064411555758, 4556052080441179085, 0, 4557913823063047042, 3749944, 4600127803887934038, 4]),
    ("zero-copy", "presample(0.3,3)", [4566792810008485018, 4562684064411555759, 4556092557868175115, 0, 4557913823063047045, 3774520, 4600041022361593699, 4]),
    ("zero-copy+pipe(bp)", "none", [4565440034786314436, 4562684064411555758, 4558353127626339760, 0, 4557913823063047043, 5578296, 0, 4]),
    ("zero-copy+pipe(bp)", "degree(0.3)", [4564999247665227842, 4562684064411555758, 4556052080441179085, 0, 4557913823063047042, 3749944, 4600127803887934038, 4]),
    ("zero-copy+pipe(bp)", "presample(0.3,3)", [4565005445771236611, 4562684064411555758, 4556092557868175113, 0, 4557913823063047043, 3774520, 4600041022361593699, 4]),
    ("zero-copy+pipe(full)", "none", [4565413340176194476, 4562684064411555758, 4558353127626339762, 0, 4557913823063047042, 5578296, 0, 4]),
    ("zero-copy+pipe(full)", "degree(0.3)", [4564999247665227842, 4562684064411555758, 4556052080441179085, 0, 4557913823063047042, 3749944, 4600127803887934038, 4]),
    ("zero-copy+pipe(full)", "presample(0.3,3)", [4565005445771236611, 4562684064411555758, 4556092557868175113, 0, 4557913823063047043, 3774520, 4600041022361593699, 4]),
    ("hybrid(0.5)", "none", [4570797910863120229, 4562684064411555757, 4567083640158944430, 4565240028360893553, 4557913823063047042, 6620728, 0, 4]),
    ("hybrid(0.5)", "degree(0.3)", [4569328415120884224, 4562684064411555758, 4564578266679733906, 4562322835657418361, 4557913823063047041, 6489144, 4600127803887934038, 4]),
    ("hybrid(0.5)", "presample(0.3,3)", [4568382258778517664, 4562684064411555758, 4562685953995000787, 4559537833090589707, 4557913823063047039, 4624440, 4600041022361593699, 4]),
    ("zero-copy+eff(0.5)", "none", [4567584291280209905, 4562684064411555758, 4560033615470458086, 0, 4557913823063047042, 5578296, 0, 4]),
    ("zero-copy+eff(0.5)", "degree(0.3)", [4567057304695512171, 4562684064411555759, 4557925669131667148, 0, 4557913823063047042, 3749944, 4600127803887934038, 4]),
    ("zero-copy+eff(0.5)", "presample(0.3,3)", [4567064388245236476, 4562684064411555759, 4557954003330564368, 0, 4557913823063047042, 3774520, 4600041022361593699, 4]),
];

#[test]
fn epoch_prices_are_pinned_bit_for_bit() {
    let g = planted_partition(&PplConfig {
        n: 3000,
        avg_degree: 15.0,
        num_classes: 8,
        feat_dim: 128,
        skew: 0.9,
        ..Default::default()
    });
    let reg = Registry::builtin();
    let mut transfers = reg.specs(Axis::Transfer);
    transfers.push("zero-copy+eff(0.5)".to_string());
    let configs = Grid::over(GridSpec::default())
        .vary(Axis::Transfer, transfers)
        .and_then(|grid| grid.vary(Axis::Cache, reg.specs(Axis::Cache)))
        .and_then(|grid| grid.configs(&reg))
        .expect("builtin specs resolve");
    let got: Vec<(String, String, [u64; 8])> = configs
        .iter()
        .map(|cfg| {
            let t = cfg.hetero_trainer(&g).run_epoch_model(0);
            let bits = [
                t.makespan.to_bits(),
                t.bp.to_bits(),
                t.dt.to_bits(),
                t.gather.to_bits(),
                t.nn.to_bits(),
                t.pcie_bytes,
                t.cache_hit_rate.to_bits(),
                t.num_batches as u64,
            ];
            (cfg.transfer.spec(), cfg.cache.spec(), bits)
        })
        .collect();
    let expected: Vec<(String, String, [u64; 8])> = EXPECTED
        .iter()
        .map(|&(transfer, cache, bits)| (transfer.to_string(), cache.to_string(), bits))
        .collect();
    assert_eq!(got, expected);
}
