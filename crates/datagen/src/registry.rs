//! Data-set descriptors — the inventory behind the paper's Table I.

use ndfield::Shape;

/// The three evaluation data sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// NYX cosmology simulation (3-D, 6 fields).
    Nyx,
    /// CESM-ATM climate simulation (2-D, 79 fields).
    Atm,
    /// Hurricane-Isabel simulation (3-D, 13 fields).
    Hurricane,
}

impl DatasetId {
    /// All data sets in the paper's Table I order.
    pub const ALL: [DatasetId; 3] = [DatasetId::Nyx, DatasetId::Atm, DatasetId::Hurricane];

    /// Canonical short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Nyx => "NYX",
            DatasetId::Atm => "ATM",
            DatasetId::Hurricane => "Hurricane",
        }
    }

    /// Parse a (case-insensitive) name.
    pub fn parse(s: &str) -> Option<DatasetId> {
        match s.to_ascii_lowercase().as_str() {
            "nyx" => Some(DatasetId::Nyx),
            "atm" | "cesm" | "cesm-atm" => Some(DatasetId::Atm),
            "hurricane" | "isabel" => Some(DatasetId::Hurricane),
            _ => None,
        }
    }
}

/// Grid-size tier. Paper dimensions are kept for fidelity; scaled tiers
/// make the full evaluation tractable on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Tiny grids for unit/integration tests.
    Small,
    /// Grids the experiment harness uses by default (minutes, not hours).
    Default,
    /// The paper's actual dimensions (NYX at 2048³ needs ≫100 GB RAM —
    /// provided for completeness, not used by the harness).
    Paper,
}

/// Static description of one data set (the row of Table I).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which data set.
    pub id: DatasetId,
    /// Number of fields per snapshot.
    pub n_fields: usize,
    /// Example field names the paper lists.
    pub example_fields: &'static [&'static str],
    /// Total size of the real data set as reported by the paper.
    pub paper_data_size: &'static str,
}

impl DatasetSpec {
    /// Descriptor for a data set.
    pub fn of(id: DatasetId) -> DatasetSpec {
        match id {
            DatasetId::Nyx => DatasetSpec {
                id,
                n_fields: 6,
                example_fields: &["baryon_density", "temperature"],
                paper_data_size: "206 GB",
            },
            DatasetId::Atm => DatasetSpec {
                id,
                n_fields: 79,
                example_fields: &["CLDHGH", "CLDLOW"],
                paper_data_size: "1.5 TB",
            },
            DatasetId::Hurricane => DatasetSpec {
                id,
                n_fields: 13,
                example_fields: &["QICE", "PRECIP", "U", "V", "W"],
                paper_data_size: "62.4 GB",
            },
        }
    }

    /// Grid shape at a resolution tier.
    pub fn shape(&self, res: Resolution) -> Shape {
        match (self.id, res) {
            (DatasetId::Nyx, Resolution::Small) => Shape::D3(16, 16, 16),
            (DatasetId::Nyx, Resolution::Default) => Shape::D3(64, 64, 64),
            (DatasetId::Nyx, Resolution::Paper) => Shape::D3(2048, 2048, 2048),
            (DatasetId::Atm, Resolution::Small) => Shape::D2(90, 180),
            (DatasetId::Atm, Resolution::Default) => Shape::D2(225, 450),
            (DatasetId::Atm, Resolution::Paper) => Shape::D2(1800, 3600),
            (DatasetId::Hurricane, Resolution::Small) => Shape::D3(10, 50, 50),
            (DatasetId::Hurricane, Resolution::Default) => Shape::D3(25, 125, 125),
            (DatasetId::Hurricane, Resolution::Paper) => Shape::D3(100, 500, 500),
        }
    }

    /// In-memory bytes per snapshot (all fields, f32) at a resolution.
    pub fn snapshot_bytes(&self, res: Resolution) -> usize {
        self.shape(res).len() * 4 * self.n_fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dims_match_table_one() {
        assert_eq!(
            DatasetSpec::of(DatasetId::Nyx).shape(Resolution::Paper),
            Shape::D3(2048, 2048, 2048)
        );
        assert_eq!(
            DatasetSpec::of(DatasetId::Atm).shape(Resolution::Paper),
            Shape::D2(1800, 3600)
        );
        assert_eq!(
            DatasetSpec::of(DatasetId::Hurricane).shape(Resolution::Paper),
            Shape::D3(100, 500, 500)
        );
    }

    #[test]
    fn field_counts_match_table_one() {
        assert_eq!(DatasetSpec::of(DatasetId::Nyx).n_fields, 6);
        assert_eq!(DatasetSpec::of(DatasetId::Atm).n_fields, 79);
        assert_eq!(DatasetSpec::of(DatasetId::Hurricane).n_fields, 13);
    }

    #[test]
    fn parse_names() {
        assert_eq!(DatasetId::parse("nyx"), Some(DatasetId::Nyx));
        assert_eq!(DatasetId::parse("CESM-ATM"), Some(DatasetId::Atm));
        assert_eq!(DatasetId::parse("Isabel"), Some(DatasetId::Hurricane));
        assert_eq!(DatasetId::parse("unknown"), None);
    }

    #[test]
    fn nyx_grids_are_fft_compatible() {
        for res in [Resolution::Small, Resolution::Default, Resolution::Paper] {
            let dims = DatasetSpec::of(DatasetId::Nyx).shape(res).dims();
            for d in dims {
                assert!(d.is_power_of_two(), "NYX dim {d} not a power of two");
            }
        }
    }

    #[test]
    fn snapshot_bytes_scale() {
        let spec = DatasetSpec::of(DatasetId::Atm);
        assert_eq!(spec.snapshot_bytes(Resolution::Paper), 1800 * 3600 * 4 * 79);
    }
}
