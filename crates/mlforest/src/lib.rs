//! # wanify-forest
//!
//! A from-scratch CART / Random-Forest **regressor**, the machine-learning
//! substrate of WANify's runtime-bandwidth prediction model (paper §3.1).
//!
//! The paper selects a decision-tree-based Random Forest because it handles
//! multivariate regression with outliers, needs far less training data than
//! deep learning, and is cheap to (re)train — including *warm starts* when
//! the cluster grows (§3.3.2) or the model goes stale (§3.3.4). This crate
//! implements exactly those capabilities:
//!
//! * [`RegressionTree`] — CART with variance-reduction splits, stored as a
//!   pre-order array of 12-byte nodes (threshold or leaf value, plus one
//!   `u32` packing the split column and the right child). A fit ranks each
//!   feature's values once; every tree orders its bootstrap sample with a
//!   counting pass over those ranks, and each split scan carries its
//!   running sums in registers over contiguous copies of the node's values;
//! * [`RandomForest`] — bootstrap aggregation with per-split feature
//!   subsampling, out-of-bag error estimation, [`RandomForest::warm_start`]
//!   and one-pass batch prediction ([`RandomForest::predict_rows`]). A
//!   fitted forest keeps only its trees and, per tree, the seed and row
//!   count its bootstrap bag is replayed from, so its size grows with
//!   nodes, not with trees × training rows;
//! * [`Dataset`] — a row-major feature matrix in one flat vector, holding
//!   finite values only;
//! * [`metrics`] — MAPE and the paper's percentage "training accuracy"
//!   (100 − MAPE).
//!
//! ## Example
//!
//! ```
//! use wanify_forest::{Dataset, ForestParams, RandomForest};
//!
//! // y = 3·x0 + 1; the forest should recover it closely.
//! let mut data = Dataset::new(1);
//! for i in 0..200 {
//!     let x = f64::from(i) / 10.0;
//!     data.push(vec![x], 3.0 * x + 1.0)?;
//! }
//! let forest = RandomForest::fit(&data, &ForestParams::default(), 42);
//! let pred = forest.predict(&[5.05]);
//! assert!((pred - 16.15).abs() < 1.0);
//! # Ok::<(), wanify_forest::DatasetError>(())
//! ```

#![warn(unreachable_pub)]

pub mod baseline;
pub mod dataset;
pub mod forest;
pub mod metrics;
#[cfg(test)]
mod parity;
pub mod tree;

pub use baseline::{KnnRegressor, LinearRegressor};
pub use dataset::{Dataset, DatasetError};
pub use forest::{ForestParams, RandomForest};
pub use tree::{RegressionTree, TreeParams};
