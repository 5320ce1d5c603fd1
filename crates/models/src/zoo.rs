//! The eight-model zoo and its paper-sourced parameters.

use recssd_embedding::Quantization;

use crate::MlpSpec;

/// Performance class of a model (§3.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelClass {
    /// Runtime dominated by embedding-table operations (DLRM-RMC1/2/3).
    EmbeddingDominated,
    /// Runtime dominated by dense matrix compute (WND, MTWND, DIN, DIEN,
    /// NCF).
    MlpDominated,
}

/// Architecture parameters of one recommendation model.
///
/// The embedding-side parameters of the RMC models come from Table 1 of
/// the paper; MLP widths and the per-sample "extra" compute (attention
/// for DIN, GRU interest evolution for DIEN, multi-task heads for MTWND)
/// are sized so the DRAM-vs-SSD behaviour of Fig. 6 reproduces
/// (MLP-dominated models within ~1.01–1.09×).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Model name as used in the paper's figures.
    pub name: &'static str,
    /// Performance class.
    pub class: ModelClass,
    /// Number of embedding tables.
    pub tables: usize,
    /// Rows per table (§5: 1 M vectors for the evaluation).
    pub rows_per_table: u64,
    /// Features per embedding vector (Table 1 "Feature Size").
    pub dim: usize,
    /// Embedding lookups per table per sample (Table 1 "Indices").
    pub lookups_per_table: usize,
    /// Row storage format.
    pub quant: Quantization,
    /// Dense-feature bottom MLP.
    pub bottom_mlp: MlpSpec,
    /// Post-interaction top MLP.
    pub top_mlp: MlpSpec,
    /// Additional dense FLOPs per sample beyond the two MLPs
    /// (attention, recurrent cells, extra task heads).
    pub extra_flops_per_sample: f64,
}

impl ModelConfig {
    /// DLRM-RMC1: embedding-dominated, Table 1 row 1 (32 features, 80
    /// indices per lookup, 8 tables).
    pub fn dlrm_rmc1() -> Self {
        ModelConfig {
            name: "DLRM-RMC1",
            class: ModelClass::EmbeddingDominated,
            tables: 8,
            rows_per_table: 1_000_000,
            dim: 32,
            lookups_per_table: 80,
            quant: Quantization::F32,
            bottom_mlp: MlpSpec::new(vec![256, 128, 32]),
            top_mlp: MlpSpec::new(vec![288, 128, 1]),
            extra_flops_per_sample: 0.0,
        }
    }

    /// DLRM-RMC2: embedding-dominated, Table 1 row 2 (64 features, 120
    /// indices per lookup, 32 tables).
    pub fn dlrm_rmc2() -> Self {
        ModelConfig {
            name: "DLRM-RMC2",
            class: ModelClass::EmbeddingDominated,
            tables: 32,
            rows_per_table: 1_000_000,
            dim: 64,
            lookups_per_table: 120,
            quant: Quantization::F32,
            bottom_mlp: MlpSpec::new(vec![256, 128, 64]),
            top_mlp: MlpSpec::new(vec![2112, 256, 1]),
            extra_flops_per_sample: 0.0,
        }
    }

    /// DLRM-RMC3: embedding-dominated, Table 1 row 3 (32 features, 20
    /// indices per lookup, 10 tables).
    pub fn dlrm_rmc3() -> Self {
        ModelConfig {
            name: "DLRM-RMC3",
            class: ModelClass::EmbeddingDominated,
            tables: 10,
            rows_per_table: 1_000_000,
            dim: 32,
            lookups_per_table: 20,
            quant: Quantization::F32,
            bottom_mlp: MlpSpec::new(vec![128, 64, 32]),
            top_mlp: MlpSpec::new(vec![352, 128, 1]),
            extra_flops_per_sample: 0.0,
        }
    }

    /// Wide & Deep: MLP-dominated; a handful of one-hot lookups feeding
    /// wide FC stacks.
    pub fn wnd() -> Self {
        ModelConfig {
            name: "WND",
            class: ModelClass::MlpDominated,
            tables: 4,
            rows_per_table: 1_000_000,
            dim: 32,
            lookups_per_table: 1,
            quant: Quantization::F32,
            bottom_mlp: MlpSpec::new(vec![1024, 2048, 1024]),
            top_mlp: MlpSpec::new(vec![1152, 2048, 1024, 1]),
            extra_flops_per_sample: 2.0e6,
        }
    }

    /// Multi-Task Wide & Deep: WND with additional per-task heads.
    pub fn mtwnd() -> Self {
        ModelConfig {
            name: "MTWND",
            class: ModelClass::MlpDominated,
            tables: 6,
            rows_per_table: 1_000_000,
            dim: 32,
            lookups_per_table: 1,
            quant: Quantization::F32,
            bottom_mlp: MlpSpec::new(vec![1024, 2048, 1024]),
            top_mlp: MlpSpec::new(vec![1216, 2048, 1024, 1]),
            extra_flops_per_sample: 6.0e6, // extra task heads
        }
    }

    /// Deep Interest Network: attention over the user-behaviour sequence.
    pub fn din() -> Self {
        ModelConfig {
            name: "DIN",
            class: ModelClass::MlpDominated,
            tables: 4,
            rows_per_table: 1_000_000,
            dim: 64,
            lookups_per_table: 1,
            quant: Quantization::F32,
            bottom_mlp: MlpSpec::new(vec![256, 512, 256]),
            top_mlp: MlpSpec::new(vec![512, 1024, 512, 1]),
            // Attention over a 64-step history at dim 64.
            extra_flops_per_sample: 8.0e6,
        }
    }

    /// Deep Interest Evolution Network: GRU-based interest evolution —
    /// the most compute-heavy of the MLP-dominated set, and the one with
    /// the longest history lookups (hence its 1.09× SSD sensitivity in
    /// Fig. 6).
    pub fn dien() -> Self {
        ModelConfig {
            name: "DIEN",
            class: ModelClass::MlpDominated,
            tables: 2,
            rows_per_table: 1_000_000,
            dim: 64,
            lookups_per_table: 4, // pooled user-behaviour history
            quant: Quantization::F32,
            bottom_mlp: MlpSpec::new(vec![256, 512, 256]),
            top_mlp: MlpSpec::new(vec![384, 1024, 512, 1]),
            // Two GRU passes over the history.
            extra_flops_per_sample: 16.0e6,
        }
    }

    /// Neural Collaborative Filtering: user/item embeddings into an MLP.
    pub fn ncf() -> Self {
        ModelConfig {
            name: "NCF",
            class: ModelClass::MlpDominated,
            tables: 2,
            rows_per_table: 1_000_000,
            dim: 64,
            lookups_per_table: 1,
            quant: Quantization::F32,
            bottom_mlp: MlpSpec::new(vec![256, 1024, 512]),
            top_mlp: MlpSpec::new(vec![640, 2048, 1024, 1]),
            extra_flops_per_sample: 1.0e6,
        }
    }

    /// All eight models in the paper's presentation order.
    pub fn zoo() -> Vec<ModelConfig> {
        vec![
            ModelConfig::wnd(),
            ModelConfig::mtwnd(),
            ModelConfig::din(),
            ModelConfig::dien(),
            ModelConfig::ncf(),
            ModelConfig::dlrm_rmc1(),
            ModelConfig::dlrm_rmc2(),
            ModelConfig::dlrm_rmc3(),
        ]
    }

    /// The three Table 1 rows (RM1/RM2/RM3).
    pub fn table1() -> [ModelConfig; 3] {
        [
            ModelConfig::dlrm_rmc1(),
            ModelConfig::dlrm_rmc2(),
            ModelConfig::dlrm_rmc3(),
        ]
    }

    /// Total embedding lookups for one batch.
    pub fn lookups(&self, batch: usize) -> usize {
        self.tables * self.lookups_per_table * batch
    }

    /// Total dense FLOPs for one batch (both MLPs plus extras).
    pub fn dense_flops(&self, batch: usize) -> f64 {
        self.bottom_mlp.flops(batch)
            + self.top_mlp.flops(batch)
            + self.extra_flops_per_sample * batch as f64
    }

    /// A copy with reduced table sizes (for fast unit tests; access
    /// patterns, not absolute table size, drive the results — §6.4 "We
    /// specifically note that absolute table size does not impact our
    /// results").
    pub fn scaled_tables(mut self, rows: u64) -> Self {
        self.rows_per_table = rows;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_eight_models_with_unique_names() {
        let zoo = ModelConfig::zoo();
        assert_eq!(zoo.len(), 8);
        let names: std::collections::HashSet<_> = zoo.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn table1_matches_the_paper() {
        let [rm1, rm2, rm3] = ModelConfig::table1();
        assert_eq!((rm1.dim, rm1.lookups_per_table, rm1.tables), (32, 80, 8));
        assert_eq!((rm2.dim, rm2.lookups_per_table, rm2.tables), (64, 120, 32));
        assert_eq!((rm3.dim, rm3.lookups_per_table, rm3.tables), (32, 20, 10));
    }

    #[test]
    fn classes_split_three_five() {
        let zoo = ModelConfig::zoo();
        let emb = zoo
            .iter()
            .filter(|m| m.class == ModelClass::EmbeddingDominated)
            .count();
        assert_eq!(emb, 3);
        assert_eq!(zoo.len() - emb, 5);
    }

    #[test]
    fn embedding_dominated_models_have_high_lookup_to_flop_ratio() {
        // The defining property: lookups per unit of dense compute is
        // orders of magnitude higher for the RMC models.
        let ratio = |m: &ModelConfig| m.lookups(64) as f64 / m.dense_flops(64);
        let rm1 = ratio(&ModelConfig::dlrm_rmc1());
        let wnd = ratio(&ModelConfig::wnd());
        assert!(rm1 > 100.0 * wnd, "RM1 ratio {rm1:e} vs WND {wnd:e}");
    }

    #[test]
    fn top_mlp_inputs_match_interaction_width() {
        // Bottom output + concatenated table reductions must equal the top
        // MLP input (sum-pooled per table, concatenated across tables).
        for m in ModelConfig::zoo() {
            let interaction = m.bottom_mlp.output_dim() + m.tables * m.dim;
            assert_eq!(
                m.top_mlp.input_dim(),
                interaction,
                "{}: top input {} vs interaction {}",
                m.name,
                m.top_mlp.input_dim(),
                interaction
            );
        }
    }

    #[test]
    fn scaled_tables_only_changes_rows() {
        let m = ModelConfig::dlrm_rmc1().scaled_tables(1000);
        assert_eq!(m.rows_per_table, 1000);
        assert_eq!(m.tables, 8);
    }
}
