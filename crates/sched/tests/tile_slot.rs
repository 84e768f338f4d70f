//! `Dfg::tile_slot` is the dense per-tile index the scheduler keys its
//! use counts and ready/busy cycles by: it must enumerate
//! `Dfg::tiles()` in order, so two tiles never share a slot.

use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
use flexer_model::{networks, LayerKind};
use flexer_sched::SearchOptions;
use flexer_tiling::{enumerate_tilings, Dataflow, Dfg, TilingOptions};
use std::collections::HashSet;

#[test]
fn tile_slots_follow_tiles_order_on_every_network_layer() {
    let options = [
        ("default", TilingOptions::default()),
        ("quick", SearchOptions::quick().tiling),
    ];
    let mut kinds = HashSet::new();
    for arch in [
        ArchConfig::preset(ArchPreset::Arch1),
        ArchConfig::preset(ArchPreset::Arch5),
        ArchConfig::hetero1(),
    ] {
        let model = SystolicModel::new(&arch);
        for (name, tiling) in &options {
            // Slots depend on the layer shape and tiling only, so each
            // distinct (shape, tiling) pair is checked once.
            let mut seen = HashSet::new();
            for network in networks::all() {
                for layer in network.layers() {
                    for factors in enumerate_tilings(layer, &arch, tiling) {
                        let shape = (
                            layer.kind(),
                            [layer.in_channels(), layer.in_height(), layer.in_width()],
                            [layer.out_channels(), layer.kernel_h(), layer.kernel_w()],
                            [layer.stride(), layer.padding()],
                        );
                        if !seen.insert((shape, factors)) {
                            continue;
                        }
                        let dfg = Dfg::build(layer, factors, Dataflow::Kcs, &model, &arch)
                            .unwrap_or_else(|e| panic!("{}: {e}", layer.name()));
                        for (position, tile) in dfg.tiles().enumerate() {
                            assert_eq!(
                                dfg.tile_slot(tile),
                                position,
                                "{tile} of {dfg} under {name} tiling on {arch}"
                            );
                        }
                        assert_eq!(dfg.num_tiles(), dfg.tiles().count(), "{dfg}");
                        kinds.insert(match layer.kind() {
                            LayerKind::Dense => "dense",
                            LayerKind::Matmul => "matmul",
                            LayerKind::Grouped { .. } => "grouped",
                        });
                    }
                }
            }
        }
    }
    assert_eq!(
        kinds.len(),
        3,
        "dense, matmul and grouped layers: {kinds:?}"
    );
}
