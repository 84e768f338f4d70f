//! Tiled-convolution workload generation.
//!
//! A DNN layer is too large to fit a mobile NPU's on-chip memory, so
//! its computation is split into *tiles* (paper §2.2, Figure 3). This
//! crate turns a [`flexer_model::ConvLayer`] into the workload the
//! schedulers consume:
//!
//! * [`TileId`]/[`TileKind`] — identities of input (`tIN`), weight
//!   (`tWT`) and output/partial-sum (`tOT`) data tiles;
//! * [`TilingFactors`] — how many tiles each dimension is split into,
//!   with [`enumerate_tilings`] producing all viable tilings for a
//!   layer on a given architecture;
//! * [`Dataflow`] — the six loop orders over output channels (`K`),
//!   input channels (`C`) and output spatial position (`S`), and their
//!   stationarity classification;
//! * [`Dfg`] — the data-flow graph of tiled convolutions
//!   `tCONV: OT <- IN, WT[, PS]`, with partial-sum dependency chains,
//!   per-tile byte sizes, use counts and per-op latencies.
//!
//! # Examples
//!
//! ```
//! use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
//! use flexer_model::ConvLayer;
//! use flexer_tiling::{enumerate_tilings, Dataflow, Dfg, TilingOptions};
//!
//! let layer = ConvLayer::new("conv", 64, 28, 28, 64)?;
//! let arch = ArchConfig::preset(ArchPreset::Arch1);
//! let tilings = enumerate_tilings(&layer, &arch, &TilingOptions::default());
//! assert!(!tilings.is_empty());
//!
//! let model = SystolicModel::new(&arch);
//! let dfg = Dfg::build(&layer, tilings[0], Dataflow::Csk, &model, &arch)?;
//! assert!(dfg.num_ops() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compulsory;
mod dataflow;
mod dfg;
mod factors;
mod op;
mod residency;
mod tile;

pub use compulsory::{compute_envelope, CompulsoryTiles, ComputeEnvelope};
pub use dataflow::Dataflow;
pub use dfg::{Dfg, GraphKey, TilingError};
pub use factors::{enumerate_tilings, estimate_metric, TilingFactors, TilingOptions};
pub use op::{OpId, TiledOp};
pub use residency::Residency;
pub use tile::{TileId, TileKind};
